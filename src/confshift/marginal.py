"""Distribution-free marginal procedure under a bounded likelihood ratio.

Given calibration scores V_1..V_n with pointwise envelope l_i <= w_i <= u_i
on the (unknown) calibration-to-target likelihood ratio, and the test-point
upper bound u_test, the threshold is the first sorted score V_[k] whose
pessimistic CDF estimate

    F(k) = sum_{i<=k} l_[i] / (sum_{i<=k} l_[i] + sum_{i>k} u_[i] + u_test)

reaches 1 - alpha; +inf when even F(n) falls short. F is nondecreasing in k
(numerator grows, denominator shrinks), so the search is a single pass.

Also here: the weighted-conformal oracle (known weights; the exactness
benchmark the robust threshold collapses to when l = u) and the marginal
coverage-gap certificate for misspecified envelopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PROB_SLACK, ValidationError, _envelope_sums
from .nuisance import BoundPair

__all__ = [
    "CalibrationSet",
    "marginal_gap",
    "robust_threshold",
    "robust_threshold_many",
    "weighted_conformal_threshold",
]


@dataclass
class CalibrationSet:
    """Calibration scores with their ratio envelope, plus the test bound.

    Arrays stay in original sample order (the PAC machinery needs it); the
    stable sort permutation is cached at construction. All bounds must be
    strictly positive and l <= u elementwise.
    """

    v: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    u_test: float
    order: np.ndarray = field(init=False, repr=False)

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
        self.order = np.argsort(self.v, kind="stable")

    @property
    def n(self) -> int:
        return self.v.shape[0]

    def sorted_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.v[self.order], self.lo[self.order], self.hi[self.order]


def robust_threshold_many(v, lo, hi, alpha: float, u_tests) -> np.ndarray:
    """Thresholds for many test points sharing one calibration set.

    Vectorized over ``u_tests``; used by the experiment layer where every
    test unit carries its own upper bound. Semantics match
    :func:`robust_threshold` exactly.
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


def robust_threshold(calib: CalibrationSet, alpha: float) -> float:
    """Score threshold with guaranteed 1 - alpha marginal coverage.

    Returns +inf (the trivial set) when the calibration mass cannot certify
    the level, e.g. for very small n or aggressive envelopes.
    """
    return float(
        robust_threshold_many(calib.v, calib.lo, calib.hi, alpha, [calib.u_test])[0]
    )


def weighted_conformal_threshold(v, w, w_test: float, alpha: float) -> float:
    """Oracle weighted-conformal threshold for exactly known weights.

    Quantile(1 - alpha) of sum_i p_i delta_{V_i} + p_test delta_{+inf} with
    p_i = w_i / (sum w + w_test); the lower-quantile convention puts the
    threshold at +inf when the finite atoms cannot carry 1 - alpha mass.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must be in (0, 1), got {alpha}")
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.shape != w.shape or v.ndim != 1 or v.size == 0:
        raise ValidationError("scores and weights must be equal-length 1-d arrays")
    if np.any(w < 0) or w_test < 0:
        raise ValidationError("weights must be nonnegative")
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / (float(w.sum()) + float(w_test))
    idx = int(np.searchsorted(cum, (1.0 - alpha) - PROB_SLACK, side="left"))
    if idx >= v.size:
        return math.inf
    return float(v[order[idx]])


def marginal_gap(
    x_eval,
    w_eval,
    bounds: BoundPair,
    q: float = math.inf,
    n_calib: int | None = None,
) -> float:
    """Coverage-gap certificate for a (possibly misspecified) envelope.

    Empirical plug-in of

        ||1/l||_q ( ||(l - w)_+||_p + ||(u - w)_-||_p
                    + (1/n) ||w^{1/p} (u - w)_-||_p )

    over evaluation points with known true ratio ``w_eval``, with the dual
    pairing (q, p) in {(inf, 1), (1, inf)}; the infinity norm is the max over
    evaluation points, the 1-norm the mean. ``n_calib`` defaults to the
    number of evaluation points.
    """
    w = np.asarray(w_eval, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("w_eval must be a nonempty 1-d array")
    if q == math.inf:
        p = 1.0
    elif q == 1:
        p = math.inf
    else:
        raise ValidationError(f"q must be 1 or inf, got {q}")
    n = w.size if n_calib is None else int(n_calib)
    if n < 1:
        raise ValidationError(f"n_calib must be >= 1, got {n_calib}")
    l_hat, u_hat = bounds(x_eval)
    if l_hat.shape != w.shape or u_hat.shape != w.shape:
        raise ValidationError("bounds and w_eval shapes disagree")

    under = np.maximum(l_hat - w, 0.0)   # (l - w)_+, lower bound too high
    over = np.maximum(w - u_hat, 0.0)    # (u - w)_-, upper bound too low
    if p == 1.0:
        terms = under.mean() + over.mean() + (w * over).mean() / n
    else:
        terms = under.max() + over.max() + over.max() / n  # w^{1/p} = 1 at p=inf
    inv_l = 1.0 / l_hat
    lead = inv_l.max() if q == math.inf else inv_l.mean()
    return float(lead * terms)
