"""Nuisance estimation and likelihood-ratio bound construction.

Estimating the target-population envelope [l(x), u(x)] for the calibration
likelihood ratio requires two ingredients: a propensity model e(x) and the
treated fraction p1. Given a selection-strength parameter Gamma >= 1, every
(counterfactual arm, target population) pair maps to closed-form bound
functions of the odds r(x) = e(x) / (1 - e(x)):

    arm 1, ate:     l = p1 (1 + 1/(Gamma r)),        u = p1 (1 + Gamma/r)
    arm 1, att:     l = u = 1
    arm 1, atc:     l = (p1/p0) / (Gamma r),         u = (p1/p0) Gamma/r
    arm 1, general: ate bounds scaled by the covariate shift dQ/dP(x)
    arm 0, ate:     l = p0 (1 + r/Gamma),            u = p0 (1 + Gamma r)
    arm 0, att:     l = (p0/p1) r/Gamma,             u = (p0/p1) Gamma r
    arm 0, atc:     l = u = 1
    arm 0, general: ate bounds scaled by dQ/dP(x)

At Gamma = 1 the envelope collapses to the classical covariate-shift weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import expit

from .core import ValidationError

__all__ = [
    "BoundPair",
    "POPULATIONS",
    "PropensityModel",
    "TargetSpec",
    "bound_functions",
    "fit_propensity",
]

POPULATIONS = ("ate", "att", "atc", "general")

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
    the probabilities saturate, and prediction clipping keeps e(x) usable
    either way. A single-arm sample is an error ("degenerate-treatment").
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
        beta = beta + np.linalg.solve(hess, grad)
    return PropensityModel(coef=beta[1:].copy(), intercept=float(beta[0]),
                           converged=converged, n_iter=it)


@dataclass(frozen=True)
class TargetSpec:
    """Which counterfactual arm is inferred, and for which population.

    ``covariate_shift`` (dQ/dP as a function of x, positive everywhere) is
    required exactly when population == "general".
    """

    arm: int
    population: str
    covariate_shift: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.arm not in (0, 1):
            raise ValidationError(f"arm must be 0 or 1, got {self.arm}")
        if self.population not in POPULATIONS:
            raise ValidationError(f"unknown population {self.population!r}")
        if (self.population == "general") != (self.covariate_shift is not None):
            raise ValidationError(
                "covariate_shift must be provided iff population == 'general'"
            )


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


def bound_functions(
    target: TargetSpec,
    gamma: float,
    propensity,
    p1: float,
) -> BoundPair:
    """Closed-form bound pair for ``target`` at selection strength ``gamma``.

    ``propensity`` is anything with ``predict(x) -> e`` taking values in
    (0, 1); with a clipped logistic model the bounds have a finite sup.
    """
    if not 1.0 <= gamma < math.inf:
        raise ValidationError(f"gamma must be finite and >= 1, got {gamma}")
    if not 0.0 < p1 < 1.0:
        raise ValidationError(f"p1 must be in (0, 1), got {p1}")
    p0 = 1.0 - p1
    arm, pop, shift = target.arm, target.population, target.covariate_shift

    def odds(x) -> np.ndarray:
        e = np.asarray(propensity.predict(x), dtype=float)
        return e / (1.0 - e)

    if arm == 1:
        if pop == "att":
            lower = upper = lambda x: np.ones(np.atleast_2d(x).shape[0])
        elif pop == "atc":
            lower = lambda x: (p1 / p0) / (gamma * odds(x))
            upper = lambda x: (p1 / p0) * gamma / odds(x)
        else:  # ate / general
            lower = lambda x: p1 * (1.0 + 1.0 / (gamma * odds(x)))
            upper = lambda x: p1 * (1.0 + gamma / odds(x))
    else:
        if pop == "atc":
            lower = upper = lambda x: np.ones(np.atleast_2d(x).shape[0])
        elif pop == "att":
            lower = lambda x: (p0 / p1) * odds(x) / gamma
            upper = lambda x: (p0 / p1) * gamma * odds(x)
        else:  # ate / general
            lower = lambda x: p0 * (1.0 + odds(x) / gamma)
            upper = lambda x: p0 * (1.0 + gamma * odds(x))

    if pop == "general":
        base_lower, base_upper = lower, upper

        def lower(x, _f=base_lower):
            s = np.asarray(shift(x), dtype=float)
            if np.any(s <= 0):
                raise ValidationError("covariate_shift must be positive everywhere")
            return s * _f(x)

        def upper(x, _f=base_upper):
            s = np.asarray(shift(x), dtype=float)
            if np.any(s <= 0):
                raise ValidationError("covariate_shift must be positive everywhere")
            return s * _f(x)

    return BoundPair(gamma=float(gamma), lower=lower, upper=upper)
