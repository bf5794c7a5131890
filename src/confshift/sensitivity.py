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

import numpy as np

from .core import ValidationError

__all__ = [
    "GammaGrid",
    "Interval",
    "NullSpec",
    "fdp_curve",
    "fwer_estimate",
    "gamma_values_from_rejections",
    "ite_set_one_missing",
    "survival_curve",
]


@dataclass(frozen=True)
class Interval:
    """Closed interval with possibly infinite endpoints; lo > hi is empty.

    The endpoints may be arrays that broadcast together; the interval and
    every test on it then work elementwise.
    """

    lo: float | np.ndarray
    hi: float | np.ndarray

    @property
    def empty(self):
        return self.lo > self.hi

    def contains(self, value):
        return (self.lo <= value) & (value <= self.hi)


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

    @property
    def region(self) -> Interval:
        """C as a closed interval: [a, a], (-inf, a] or [a, +inf)."""
        return Interval(-math.inf if self.kind == "le" else self.a,
                        math.inf if self.kind == "ge" else self.a)

    def contains(self, value):
        """Is the effect in C? Elementwise over an array of effects."""
        return self.region.contains(value)

    def disjoint(self, interval: Interval):
        """Does the closed interval miss C? True for an empty interval;
        elementwise over array endpoints."""
        c = self.region
        return (interval.lo > interval.hi) | (interval.lo > c.hi) | (interval.hi < c.lo)


def ite_set_one_missing(t_obs: int, y_obs, cf: Interval) -> Interval:
    """Effect interval when one potential outcome is observed.

    Treated unit: y_obs - C0; control unit: C1 - y_obs (endpoint arithmetic
    handles infinite counterfactual bounds). ``y_obs`` and the endpoints of
    ``cf`` may be arrays that broadcast together.
    """
    if t_obs not in (0, 1):
        raise ValidationError(f"t_obs must be 0 or 1, got {t_obs}")
    if t_obs == 1:
        return Interval(lo=y_obs - cf.hi, hi=y_obs - cf.lo)
    return Interval(lo=cf.lo - y_obs, hi=cf.hi - y_obs)


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
    false = null.contains(ites)
    rejected = gh[None, :] > np.asarray(grid.values)[:, None]
    k = rejected.sum(axis=1)
    return np.where(k > 0, (rejected & false).sum(axis=1) / np.maximum(k, 1), 0.0)


def gamma_values_from_rejections(reject: np.ndarray, grid: GammaGrid) -> np.ndarray:
    """Sensitivity values from a rejection array with the grid on its last axis.

    ``reject`` is (units x grid), or has further leading axes. Each unit's
    scan walks the grid left to right and stops at its first non-rejection,
    so stray rejections after a gap are ignored. Returns the largest
    rejecting grid value per unit, 1.0 when the scan stops immediately (a
    rejection exactly at Gamma = 1 also reports 1.0, the conservative grid
    convention), +inf for units rejecting through the grid ceiling.
    """
    reject = np.asarray(reject, dtype=bool)
    if reject.ndim < 2 or reject.shape[-1] != len(grid):
        raise ValidationError("rejection matrix must be units x grid")
    runs = np.argmin(reject, axis=-1)  # index of first False
    runs[reject.all(axis=-1)] = len(grid)
    return np.concatenate([[1.0], grid.values[:-1], [math.inf]])[runs]
