"""Nuisance estimation and likelihood-ratio bound construction.

Estimating the target-population envelope [l(x), u(x)] for the calibration
likelihood ratio requires two ingredients: a propensity model e(x) and the
treated fraction p1. Given a selection-strength parameter Gamma >= 1, every
(counterfactual arm, target population) pair maps to closed-form bound
functions of the odds r(x) = e(x) / (1 - e(x)):

    arm 1, ate:     l = p1 (1 + 1/(Gamma r)),        u = p1 (1 + Gamma/r)
    arm 1, att:     l = u = 1
    arm 1, atc:     l = (p1/p0) / (Gamma r),         u = (p1/p0) Gamma/r
    arm 0, ate:     l = p0 (1 + r/Gamma),            u = p0 (1 + Gamma r)
    arm 0, att:     l = (p0/p1) r/Gamma,             u = (p0/p1) Gamma r
    arm 0, atc:     l = u = 1

:func:`ratio_bounds` evaluates the odds once per covariate array and returns
the cell along a whole strength grid; :func:`bound_functions` is the same
envelope at one strength, as a pair of functions of x. At Gamma = 1 the
envelope collapses to the classical covariate-shift weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import ValidationError, expit

__all__ = [
    "BoundPair",
    "POPULATIONS",
    "PropensityModel",
    "TargetSpec",
    "bound_functions",
    "fit_propensity",
    "ratio_bounds",
]

POPULATIONS = ("ate", "att", "atc")

_CLIP = (0.01, 0.99)  # range of the clipped propensity predictions
_TOL = 1e-8
_MAX_ITER = 100


@dataclass(frozen=True)
class PropensityModel:
    """Logistic propensity e(x) = expit(intercept + x @ coef), clipped."""

    coef: np.ndarray
    intercept: float
    converged: bool = True
    n_iter: int = 0

    def predict(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        e = expit(self.intercept + x @ self.coef)
        return np.clip(e, *_CLIP)


def fit_propensity(x, t) -> PropensityModel:
    """Logistic regression with intercept via Newton-Raphson.

    Stops when the gradient's Euclidean norm drops below ``_TOL`` or after
    ``_MAX_ITER`` iterations. Separable data make the coefficients diverge;
    iteration then either hits the cap (``converged=False``) or stalls once
    the probabilities saturate. A singular or overflowing Newton step
    (collinear covariates at extreme scales) stops it at the last finite fit.
    Prediction clipping keeps e(x) usable in every case. A single-arm sample
    is an error ("degenerate-treatment").
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    if t.shape != (x.shape[0],):
        raise ValidationError("x and t lengths differ")
    if t.min() == t.max():
        raise ValidationError("degenerate-treatment: single-arm sample")

    design = np.column_stack([np.ones(x.shape[0]), x])
    beta = np.zeros(design.shape[1])
    converged = False
    it = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, _MAX_ITER + 1):
            prob = expit(design @ beta)
            grad = design.T @ (t - prob)
            if float(np.linalg.norm(grad)) < _TOL:
                converged = True
                break
            w = prob * (1.0 - prob)
            hess = design.T @ (design * w[:, None])
            # Tiny ridge keeps the solve well-posed when probabilities saturate.
            hess[np.diag_indices_from(hess)] += 1e-10
            try:
                step = beta + np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                break
            if not np.isfinite(design @ step).all():
                break
            beta = step
    return PropensityModel(coef=beta[1:].copy(), intercept=float(beta[0]),
                           converged=converged, n_iter=it)


@dataclass(frozen=True)
class TargetSpec:
    """Which counterfactual arm is inferred, and for which population."""

    arm: int
    population: str

    def __post_init__(self) -> None:
        if self.arm not in (0, 1):
            raise ValidationError(f"arm must be 0 or 1, got {self.arm}")
        if self.population not in POPULATIONS:
            raise ValidationError(f"unknown population {self.population!r}")


@dataclass(frozen=True)
class BoundPair:
    """Pointwise envelope [lower(x), upper(x)] for the calibration ratio."""

    gamma: float
    lower: Callable[[np.ndarray], np.ndarray]
    upper: Callable[[np.ndarray], np.ndarray]

    def __call__(self, x) -> tuple[np.ndarray, np.ndarray]:
        return (
            np.asarray(self.lower(x), dtype=float),
            np.asarray(self.upper(x), dtype=float),
        )


def _strengths(gammas, p1: float) -> np.ndarray:
    """The strengths as a float column, after checking them and ``p1``."""
    g = np.asarray(gammas, dtype=float).reshape(-1, 1)
    bad = g[~(np.isfinite(g) & (g >= 1.0))]
    if bad.size:
        raise ValidationError(f"gamma must be finite and >= 1, got {float(bad[0])}")
    if not 0.0 < p1 < 1.0:
        raise ValidationError(f"p1 must be in (0, 1), got {p1}")
    return g


class _EnvelopeOverflow(ValidationError):
    """A strength whose envelope leaves the floating-point range."""


def ratio_bounds(target: TargetSpec, gammas, propensity, p1: float,
                 x) -> tuple[np.ndarray, np.ndarray]:
    """Envelope ``(lo, hi)`` for ``target`` at every strength, shape (strengths, rows).

    ``propensity`` is anything with ``predict(x) -> e`` taking values in
    (0, 1); it is called once, and each cell of the table above is applied
    to the odds with the strengths as a column. With a clipped logistic
    model the bounds have a finite sup. A strength at which a lower bound is 0
    or the upper bounds' sum is not finite is refused (thresholds sum them).
    """
    g = _strengths(gammas, p1)
    p0 = 1.0 - p1
    arm, pop = target.arm, target.population
    if (arm, pop) in ((1, "att"), (0, "atc")):
        shape = (g.shape[0], np.atleast_2d(x).shape[0])
        return np.ones(shape), np.ones(shape)
    e = np.asarray(propensity.predict(x), dtype=float)
    r = e / (1.0 - e)
    with np.errstate(over="ignore"):
        if arm == 1 and pop == "atc":
            lo, hi = (p1 / p0) / (g * r), (p1 / p0) * g / r
        elif arm == 1:
            lo, hi = p1 * (1.0 + 1.0 / (g * r)), p1 * (1.0 + g / r)
        elif pop == "att":
            lo, hi = (p0 / p1) * r / g, (p0 / p1) * g * r
        else:
            lo, hi = p0 * (1.0 + r / g), p0 * (1.0 + g * r)
        out = ~((lo > 0.0).all(axis=1) & np.isfinite(hi.sum(axis=1)))
    if out.any():
        raise _EnvelopeOverflow(f"strength {float(g[out][0, 0])!r} overflows the ratio envelope "
                                f"of {hi.shape[1]} units: a lower bound is 0 or the upper "
                                "bounds' sum is not finite")
    return lo, hi


def bound_functions(target: TargetSpec, gamma: float, propensity, p1: float) -> BoundPair:
    """:func:`ratio_bounds` at the one strength ``gamma``, as a bound pair."""
    _strengths((gamma,), p1)

    def side(i: int) -> Callable[[np.ndarray], np.ndarray]:
        return lambda x: ratio_bounds(target, (gamma,), propensity, p1, x)[i][0]

    return BoundPair(gamma=float(gamma), lower=side(0), upper=side(1))
