"""Distribution-free marginal procedure under a bounded likelihood ratio.

Given calibration scores V_1..V_n with pointwise envelope l_i <= w_i <= u_i
on the (unknown) calibration-to-target likelihood ratio, and the test-point
upper bound u_test, the threshold is the first sorted score V_[k] whose
pessimistic CDF estimate

    F(k) = sum_{i<=k} l_[i] / (sum_{i<=k} l_[i] + sum_{i>k} u_[i] + u_test)

reaches 1 - alpha; +inf when even F(n) falls short. F is nondecreasing in k
(numerator grows, denominator shrinks), so the search is a single pass.
:func:`robust_threshold_many` builds the sorted scores and the two sums with
``core._envelope_sums``; a :class:`CalibrationSet` holds no sorted view.

Also here: the marginal coverage-gap certificate for misspecified
envelopes.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    A plain record, checked once at construction: arrays stay in original
    sample order (the PAC machinery needs it), all bounds must be strictly
    positive and l <= u elementwise. The readers sort what they need:
    ``core._envelope_sums`` gives the stably sorted scores and the envelope
    sums, and ``pac.pac_threshold_path`` sorts a path's shared scores once.
    """

    v: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    u_test: float

    def __post_init__(self) -> None:
        self.v, self.lo, self.hi = (np.asarray(a, dtype=float) for a in (self.v, self.lo, self.hi))
        n = self.v.shape[0]
        if n == 0:
            raise ValidationError("empty-dataset: no calibration scores")
        if self.lo.shape != (n,) or self.hi.shape != (n,):
            raise ValidationError("score and bound arrays must have equal length")
        if not all(np.isfinite(a).all() for a in (self.v, self.lo, self.hi)):
            raise ValidationError("scores and bounds must be finite")
        if np.any(self.lo <= 0) or np.any(self.hi < self.lo):
            raise ValidationError("bounds must satisfy 0 < lo <= hi")
        if not (np.isfinite(self.u_test) and self.u_test > 0):
            raise ValidationError(f"u_test must be positive and finite, got {self.u_test}")
        self.u_test = float(self.u_test)

    @property
    def n(self) -> int:
        return self.v.shape[0]


def robust_threshold_many(v, lo, hi, alpha: float, u_tests) -> np.ndarray:
    """Thresholds for many test points sharing one calibration set.

    Vectorized over ``u_tests``: every test unit carries its own upper
    bound. Returns +inf (the trivial set) where the calibration mass cannot
    certify the level, e.g. for very small n or aggressive envelopes.

    A strength axis is optional: with ``lo``/``hi`` of shape
    (strengths x n) and ``u_tests`` of shape (strengths x m), row i of the
    result equals the 1-d call on row i of each, bit for bit, and one sort
    of ``v`` serves the whole grid.
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
    key = np.maximum.accumulate((1.0 - c) * cum_lo[..., 1:] - c * tail_hi[..., 1:], axis=-1)
    target = c * np.asarray(u_tests, dtype=float)
    if key.ndim == 2 and (target.ndim != 2 or len(target) != len(key)):
        raise ValidationError("u_tests must have one row per strength")
    key = np.atleast_2d(key)
    idx = np.array([np.searchsorted(row, t, side="left")
                    for row, t in zip(key, target.reshape(len(key), -1))])
    out = np.where(idx < n, vs[np.minimum(idx, n - 1)], np.inf)
    return out.reshape(target.shape)


def marginal_gap(w_eval, lo, hi, n_calib: int | None = None) -> float:
    """Coverage-gap certificate for a (possibly misspecified) envelope.

    The guarantee it certifies: when the true ratio w may leave the envelope
    [l, u], the alg1 set built from n calibration units still covers with

        P(Y in C(X)) >= 1 - alpha - gap,

    where gap is the population value of the expression below (weighted
    conformal with estimated weights; Lei & Candes, arXiv 2006.06138). This
    function returns the empirical plug-in of

        ||1/l||_inf ( ||(l - w)_+||_1 + ||(u - w)_-||_1
                      + (1/n) ||w (u - w)_-||_1 )

    over evaluation points with known true ratio ``w_eval`` and envelope
    ``lo``/``hi`` there; the infinity norm is the max over evaluation points,
    the 1-norm the mean. ``n_calib`` defaults to the number of evaluation
    points.
    """
    w, l_hat, under, over = _envelope_misses(w_eval, lo, hi)
    n = w.size if n_calib is None else int(n_calib)
    if n < 1:
        raise ValidationError(f"n_calib must be >= 1, got {n_calib}")
    terms = under.mean() + over.mean() + (w * over).mean() / n
    return float((1.0 / l_hat).max() * terms)


def _envelope_misses(w_eval, lo, hi) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The gap certificates' checked inputs ``w`` and ``lo`` as float arrays,
    and by how much w leaves the envelope: (l - w)_+ where the lower bound is
    too high, (w - u)_+ = (u - w)_- where the upper bound is too low. ``w_eval``
    must be a nonempty 1-d array and each bound shaped like it."""
    w = np.asarray(w_eval, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ValidationError("w_eval must be a nonempty 1-d array")
    l_hat, u_hat = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if l_hat.shape != w.shape or u_hat.shape != w.shape:
        raise ValidationError("bounds and w_eval shapes disagree")
    return w, l_hat, np.maximum(l_hat - w, 0.0), np.maximum(w - u_hat, 0.0)
