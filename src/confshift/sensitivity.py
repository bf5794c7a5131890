"""Unit-level sensitivity analysis for treatment effects.

Each unit has one observed arm; a counterfactual prediction interval at
selection strength Gamma induces an interval for the individual effect
Y(1) - Y(0). Sweeping Gamma over a grid, the rejection region
{Gamma : C and the ITE interval are disjoint} is an initial segment of the
grid (intervals are nested in Gamma), and its largest member Gamma-hat says
how much unmeasured selection the conclusion "ITE outside C" survives.

Summaries: the survival curve S(Gamma) = fraction{Gamma-hat > Gamma}, the
familywise error rate against labeled truths, and the false discovery
proportion along the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ValidationError

__all__ = [
    "GammaGrid",
    "GammaValue",
    "Interval",
    "NullSpec",
    "fdp_curve",
    "fwer_estimate",
    "gamma_value",
    "gamma_values_from_rejections",
    "ite_set_one_missing",
    "survival_curve",
]

_NEST_TOL = 1e-9


@dataclass(frozen=True)
class Interval:
    """Closed interval with possibly infinite endpoints; lo > hi is empty."""

    lo: float
    hi: float

    @property
    def empty(self) -> bool:
        return self.lo > self.hi

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


@dataclass(frozen=True)
class GammaGrid:
    """Ascending grid of selection strengths starting at 1 (no confounding)."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0 or vals[0] != 1.0:
            raise ValidationError("gamma grid must start at 1")
        if not all(math.isfinite(v) for v in vals):
            raise ValidationError("gamma grid values must be finite")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValidationError("gamma grid must be strictly increasing")
        object.__setattr__(self, "values", vals)

    @classmethod
    def default(cls) -> "GammaGrid":
        fine = np.round(np.arange(1.0, 5.0 + 1e-9, 0.05), 10)
        coarse = np.arange(6.0, 26.0, 1.0)
        return cls(values=tuple(np.concatenate([fine, coarse])))

    @property
    def max(self) -> float:
        return self.values[-1]

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class NullSpec:
    """Null set C for the effect: a point, a left ray, or a right ray."""

    kind: str
    a: float = 0.0

    KINDS = ("point", "le", "ge")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValidationError(f"unknown null kind {self.kind!r}")

    def contains(self, value: float) -> bool:
        if self.kind == "point":
            return value == self.a
        if self.kind == "le":
            return value <= self.a
        return value >= self.a

    def disjoint(self, interval: Interval) -> bool:
        """Is C disjoint from the (closed) interval?"""
        if interval.empty:
            return True
        if self.kind == "point":
            return self.a < interval.lo or self.a > interval.hi
        if self.kind == "le":  # C = (-inf, a]
            return interval.lo > self.a
        return interval.hi < self.a  # C = [a, inf)


def ite_set_one_missing(t_obs: int, y_obs: float, cf: Interval) -> Interval:
    """Effect interval when one potential outcome is observed.

    Treated unit: y_obs - C0; control unit: C1 - y_obs (endpoint arithmetic
    handles infinite counterfactual bounds).
    """
    if t_obs not in (0, 1):
        raise ValidationError(f"t_obs must be 0 or 1, got {t_obs}")
    if t_obs == 1:
        return Interval(lo=y_obs - cf.hi, hi=y_obs - cf.lo)
    return Interval(lo=cf.lo - y_obs, hi=cf.hi - y_obs)


@dataclass(frozen=True)
class GammaValue:
    """Largest grid Gamma whose ITE interval misses C; censored at the top.

    ``gamma`` is 1.0 when no grid point rejects (note: rejection exactly at
    Gamma = 1 also reports 1.0, the grid-valued convention is conservative)
    and +inf when even the grid maximum rejects (reported as ">= grid max").
    """

    gamma: float
    censored: bool

    def exceeds(self, gamma_star: float) -> bool:
        return self.gamma > gamma_star


def gamma_value(
    unit,
    grid: GammaGrid,
    null: NullSpec,
    builder: Callable[[object, float], Interval],
) -> GammaValue:
    """Scan the grid with nested ITE intervals and report the sensitivity value.

    ``builder(unit, gamma)`` must return intervals that only grow with gamma;
    a shrink beyond tolerance raises "nestedness-violation". The scan stops at
    the first non-rejecting grid point (nestedness makes rejections an initial
    segment, so nothing further can reject).
    """
    last: Interval | None = None
    best: float | None = None
    for i, g in enumerate(grid.values):
        interval = builder(unit, g)
        if last is not None and (
            interval.lo > last.lo + _NEST_TOL or interval.hi < last.hi - _NEST_TOL
        ):
            raise ValidationError(
                f"nestedness-violation: interval shrank between gamma "
                f"{grid.values[i - 1]} and {g}"
            )
        if not null.disjoint(interval):
            break
        best = g
        last = interval
    else:
        return GammaValue(gamma=math.inf, censored=True)
    return GammaValue(gamma=1.0 if best is None else best, censored=False)


def survival_curve(gamma_hat, grid: GammaGrid) -> np.ndarray:
    """S(Gamma) = fraction of units with Gamma-hat > Gamma, on the grid."""
    gh = np.asarray(gamma_hat, dtype=float)
    if gh.size == 0:
        raise ValidationError("survival curve of an empty collection")
    return (gh[None, :] > np.asarray(grid.values)[:, None]).mean(axis=1)


def fwer_estimate(gamma_hat, is_true_null, gamma_star: float) -> tuple[float, bool]:
    """Fraction of true-null units falsely rejected at strength gamma_star.

    A unit counts when its effect lies in C (caller labels truths) and its
    sensitivity value exceeds gamma_star. Returns (rate, any_null); with no
    true nulls the rate is 0 and the flag False.
    """
    gh = np.asarray(gamma_hat, dtype=float)
    nulls = np.asarray(is_true_null, dtype=bool)
    if nulls.shape != gh.shape:
        raise ValidationError("labels and values must align")
    if not nulls.any():
        return 0.0, False
    return float(np.mean(nulls & (gh > gamma_star))), True


def fdp_curve(gamma_hat, ites, grid: GammaGrid, null: NullSpec | None = None) -> np.ndarray:
    """False discovery proportion along the grid, 0/0 read as 0.

    At each grid Gamma the discoveries are units with Gamma-hat > Gamma; the
    false ones have their realized effect inside C (default C = (-inf, 0]).
    """
    null = null if null is not None else NullSpec(kind="le", a=0.0)
    gh = np.asarray(gamma_hat, dtype=float)
    ites = np.asarray(ites, dtype=float)
    if ites.shape != gh.shape:
        raise ValidationError("ites and values must align")
    false = np.array([null.contains(v) for v in ites], dtype=bool)
    rejected = gh[None, :] > np.asarray(grid.values)[:, None]
    k = rejected.sum(axis=1)
    return np.where(k > 0, (rejected & false).sum(axis=1) / np.maximum(k, 1), 0.0)


def gamma_values_from_rejections(reject: np.ndarray, grid: GammaGrid) -> np.ndarray:
    """Vector sensitivity values from a (units x grid) rejection matrix.

    Row semantics match gamma_value: the scan walks the grid left to right
    and stops at the first non-rejection, so stray rejections after a gap are
    ignored. Returns the largest rejecting grid value per unit, 1.0 when the
    scan stops immediately, +inf for rows rejecting through the grid ceiling.
    """
    reject = np.asarray(reject, dtype=bool)
    if reject.ndim != 2 or reject.shape[1] != len(grid):
        raise ValidationError("rejection matrix must be units x grid")
    n_g = len(grid)
    runs = np.argmin(reject, axis=1)  # index of first False
    runs[reject.all(axis=1)] = n_g
    gvals = np.asarray(grid.values)
    return np.where(
        runs == 0, 1.0,
        np.where(runs == n_g, math.inf, gvals[np.minimum(np.maximum(runs - 1, 0), n_g - 1)]),
    )
