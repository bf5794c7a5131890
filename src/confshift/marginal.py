"""Distribution-free marginal procedure under a bounded likelihood ratio.

Given calibration scores V_1..V_n with pointwise envelope l_i <= w_i <= u_i
on the (unknown) calibration-to-target likelihood ratio, and the test-point
upper bound u_test, the threshold is the first sorted score V_[k] whose
pessimistic CDF estimate

    F(k) = sum_{i<=k} l_[i] / (sum_{i<=k} l_[i] + sum_{i>k} u_[i] + u_test)

reaches 1 - alpha; +inf when even F(n) falls short. F is nondecreasing in k
(numerator grows, denominator shrinks), so the search is a single pass.

Also here: the marginal coverage-gap certificate for misspecified
envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PROB_SLACK, ValidationError, _envelope_sums

__all__ = [
    "CalibrationSet",
    "marginal_gap",
    "robust_threshold_many",
]


@dataclass
class CalibrationSet:
    """Calibration scores with their ratio envelope, plus the test bound.

    Arrays stay in original sample order (the PAC machinery needs it). The
    envelope kernel's stably sorted scores ``vs`` and cumulative sums
    ``cum_lo``/``tail_hi`` are built once, at construction. All bounds must
    be strictly positive and l <= u elementwise.
    """

    v: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    u_test: float
    vs: np.ndarray = field(init=False, repr=False)
    cum_lo: np.ndarray = field(init=False, repr=False)
    tail_hi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.v = np.asarray(self.v, dtype=float)
        self.lo = np.asarray(self.lo, dtype=float)
        self.hi = np.asarray(self.hi, dtype=float)
        n = self.v.shape[0]
        if n == 0:
            raise ValidationError("empty-dataset: no calibration scores")
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ValidationError("score and bound arrays must have equal length")
        if not (np.isfinite(self.v).all() and np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise ValidationError("scores and bounds must be finite")
        if np.any(self.lo <= 0) or np.any(self.hi < self.lo):
            raise ValidationError("bounds must satisfy 0 < lo <= hi")
        if not (np.isfinite(self.u_test) and self.u_test > 0):
            raise ValidationError(f"u_test must be positive and finite, got {self.u_test}")
        self.u_test = float(self.u_test)
        self.vs, self.cum_lo, self.tail_hi = _envelope_sums(self.v, self.lo, self.hi)

    @property
    def n(self) -> int:
        return self.v.shape[0]


def robust_threshold_many(v, lo, hi, alpha: float, u_tests) -> np.ndarray:
    """Thresholds for many test points sharing one calibration set.

    Vectorized over ``u_tests``: every test unit carries its own upper
    bound. Returns +inf (the trivial set) where the calibration mass cannot
    certify the level, e.g. for very small n or aggressive envelopes.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    vs, cum_lo, tail_hi = _envelope_sums(v, lo, hi)
    n = vs.shape[0]

    # F(k) >= c with c = (1 - alpha) - slack, rewritten to avoid the division:
    # (1 - c) cum_lo - c tail_hi >= c u_test at the k-th sorted score. The
    # left side is nondecreasing in k in exact arithmetic; accumulate-max
    # irons out float dust so searchsorted stays valid.
    c = (1.0 - alpha) - PROB_SLACK
    key = np.maximum.accumulate((1.0 - c) * cum_lo[1:] - c * tail_hi[1:])
    idx = np.searchsorted(key, c * np.asarray(u_tests, dtype=float), side="left")
    out = np.where(idx < n, vs[np.minimum(idx, n - 1)], math.inf)
    return np.asarray(out, dtype=float)


def marginal_gap(w_eval, lo, hi, n_calib: int | None = None) -> float:
    """Coverage-gap certificate for a (possibly misspecified) envelope.

    Empirical plug-in of

        ||1/l||_inf ( ||(l - w)_+||_1 + ||(u - w)_-||_1
                      + (1/n) ||w (u - w)_-||_1 )

    over evaluation points with known true ratio ``w_eval`` and envelope
    ``lo``/``hi`` there; the infinity norm is the max over evaluation points,
    the 1-norm the mean. ``n_calib`` defaults to the number of evaluation
    points.
    """
    w = np.asarray(w_eval, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("w_eval must be a nonempty 1-d array")
    n = w.size if n_calib is None else int(n_calib)
    if n < 1:
        raise ValidationError(f"n_calib must be >= 1, got {n_calib}")
    l_hat, u_hat = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if l_hat.shape != w.shape or u_hat.shape != w.shape:
        raise ValidationError("bounds and w_eval shapes disagree")

    under = np.maximum(l_hat - w, 0.0)   # (l - w)_+, lower bound too high
    over = np.maximum(w - u_hat, 0.0)    # (u - w)_-, upper bound too low
    terms = under.mean() + over.mean() + (w * over).mean() / n
    return float((1.0 / l_hat).max() * terms)
