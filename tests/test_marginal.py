"""Marginal robust threshold, weighted-conformal oracle, coverage gap."""

import math

import numpy as np
import pytest

from confshift import (
    CalibrationSet,
    ValidationError,
    marginal_gap,
    robust_threshold_many,
    rng,
)
from confshift.core import _envelope_sums

V5 = np.array([3.0, 1.0, 4.0, 1.5, 5.0])
ONES5 = np.ones(5)


def _unit_calib(alpha_free_v=V5, u_test=1.0):
    return CalibrationSet(v=alpha_free_v, lo=ONES5, hi=ONES5, u_test=u_test)


def robust_threshold(calib, alpha):
    """robust_threshold_many at the calibration set's own test bound."""
    return float(robust_threshold_many(calib.v, calib.lo, calib.hi, alpha, [calib.u_test])[0])


def threshold_scan(calib, alpha):
    """Scalar reference: the first sorted score V_[k] whose pessimistic CDF
    F(k) = sum_{i<=k} l / (sum_{i<=k} l + sum_{i>k} u + u_test) reaches
    1 - alpha, else +inf."""
    order = np.argsort(calib.v, kind="stable")
    lo, hi = calib.lo[order], calib.hi[order]
    for k in range(1, calib.n + 1):
        num = lo[:k].sum()
        if num / (num + hi[k:].sum() + calib.u_test) >= (1.0 - alpha) - 1e-12:
            return float(calib.v[order][k - 1])
    return math.inf


def weighted_conformal_threshold(v, w, w_test, alpha):
    """Oracle weighted-conformal threshold for exactly known weights:
    Quantile(1 - alpha) of sum_i p_i delta_{V_i} + p_test delta_{+inf}, with
    p_i = w_i / (sum w + w_test) and the lower-quantile convention."""
    order = np.argsort(v, kind="stable")
    cum = np.cumsum(w[order]) / (float(w.sum()) + float(w_test))
    idx = int(np.searchsorted(cum, (1.0 - alpha) - 1e-12, side="left"))
    return math.inf if idx >= v.size else float(v[order][idx])


def quantile_inf(values, q, weights):
    """Scalar reference: the lower quantile inf{z : P(Z <= z) >= q} of the
    distribution with mass proportional to ``weights`` on ``values``, found
    by trying every atom; +inf when none reaches the level."""
    total = weights.sum()
    hits = [z for z in values if weights[values <= z].sum() / total >= q - 1e-12]
    return min(hits, default=math.inf)


# ---------------------------------------------------------------------------
# CalibrationSet
# ---------------------------------------------------------------------------


def test_calibration_set_validation():
    with pytest.raises(ValidationError):
        CalibrationSet(v=np.array([]), lo=np.array([]), hi=np.array([]), u_test=1.0)
    with pytest.raises(ValidationError):
        CalibrationSet(v=V5, lo=ONES5[:4], hi=ONES5, u_test=1.0)
    with pytest.raises(ValidationError):
        CalibrationSet(v=V5, lo=0.0 * ONES5, hi=ONES5, u_test=1.0)
    with pytest.raises(ValidationError):
        CalibrationSet(v=V5, lo=2 * ONES5, hi=ONES5, u_test=1.0)
    with pytest.raises(ValidationError):
        CalibrationSet(v=np.array([np.inf] + [0.0] * 4), lo=ONES5, hi=ONES5, u_test=1.0)
    with pytest.raises(ValidationError):
        CalibrationSet(v=V5, lo=ONES5, hi=ONES5, u_test=0.0)
    with pytest.raises(ValidationError):
        CalibrationSet(v=V5, lo=ONES5, hi=ONES5, u_test=math.inf)


def test_calibration_set_sorted_arrays():
    c = CalibrationSet(v=V5, lo=np.arange(1.0, 6.0), hi=np.arange(1.0, 6.0) + 1, u_test=1.0)
    vs, cum_lo, tail_hi = _envelope_sums(c.v, c.lo, c.hi)
    assert vs.tolist() == [1.0, 1.5, 3.0, 4.0, 5.0]
    # sorted lo = [2, 4, 1, 3, 5], sorted hi = [3, 5, 2, 4, 6]
    assert cum_lo.tolist() == [0.0, 2.0, 6.0, 7.0, 10.0, 15.0]
    assert tail_hi.tolist() == [20.0, 17.0, 12.0, 10.0, 6.0, 0.0]
    # original-order arrays untouched
    assert c.v.tolist() == V5.tolist()
    assert c.lo.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert c.hi.tolist() == [2.0, 3.0, 4.0, 5.0, 6.0]


# ---------------------------------------------------------------------------
# robust threshold, hand values
# ---------------------------------------------------------------------------


def test_threshold_exchangeable_hand_values():
    # l = u = u_test = 1: pessimistic CDF is k/(n+1) = k/6.
    assert robust_threshold(_unit_calib(), 0.5) == 3.0
    assert robust_threshold(_unit_calib(), 1.0 / 6.0) == 5.0
    assert robust_threshold(_unit_calib(), 0.99) == 1.0
    assert robust_threshold(_unit_calib(), 0.1) == math.inf


def test_threshold_weighted_hand_value():
    c = CalibrationSet(
        v=np.array([1.0, 2.0, 3.0]),
        lo=np.array([2.0, 1.0, 1.0]),
        hi=np.array([2.0, 1.0, 1.0]),
        u_test=1.0,
    )
    # cumulative masses 0.4, 0.6, 0.8
    assert robust_threshold(c, 0.4) == 2.0
    assert robust_threshold(c, 0.2) == 3.0  # boundary level reached exactly
    assert robust_threshold(c, 0.1) == math.inf
    assert robust_threshold(c, 0.65) == 1.0


def test_threshold_loose_envelope_hand_value():
    c = CalibrationSet(
        v=np.array([1.0, 2.0]),
        lo=np.array([0.5, 0.5]),
        hi=np.array([2.0, 2.0]),
        u_test=2.0,
    )
    # F(1) = 0.5/4.5 = 1/9, F(2) = 1/3
    assert robust_threshold(c, 0.7) == 2.0
    assert robust_threshold(c, 0.2) == math.inf


def test_threshold_many_matches_scalar():
    r = rng(21)
    for _ in range(30):
        n = int(r.integers(1, 50))
        v = r.normal(size=n)
        lo = r.uniform(0.2, 1.0, size=n)
        hi = lo + r.uniform(0.0, 1.0, size=n)
        alpha = float(r.uniform(0.05, 0.95))
        u_tests = r.uniform(0.2, 3.0, size=7)
        many = robust_threshold_many(v, lo, hi, alpha, u_tests)
        for j, ut in enumerate(u_tests):
            one = threshold_scan(CalibrationSet(v, lo, hi, float(ut)), alpha)
            assert many[j] == one


def test_threshold_many_needs_one_test_row_per_strength():
    v, lo = np.arange(4.0), np.ones((2, 4))
    with pytest.raises(ValidationError):
        robust_threshold_many(v, lo, lo, 0.1, np.ones(3))
    with pytest.raises(ValidationError):
        robust_threshold_many(v, lo, lo, 0.1, np.ones((3, 2)))


def test_threshold_split_conformal_reduction():
    # l = u = u_test = 1 must reproduce the textbook split-conformal rank.
    r = rng(2)
    for n in (1, 5, 99):
        v = r.normal(size=n)
        for alpha in (0.1, 0.3, 0.5):
            got = robust_threshold(
                CalibrationSet(v, np.ones(n), np.ones(n), 1.0), alpha
            )
            k = math.ceil((1.0 - alpha) * (n + 1))
            want = math.inf if k > n else float(np.sort(v)[k - 1])
            assert got == want


def test_threshold_monotone_in_alpha_envelope_and_utest():
    r = rng(22)
    for _ in range(20):
        n = int(r.integers(2, 40))
        v = r.normal(size=n)
        lo = r.uniform(0.3, 1.0, size=n)
        hi = lo + r.uniform(0.0, 0.8, size=n)
        c = CalibrationSet(v, lo, hi, 1.0)
        alphas = np.sort(r.uniform(0.05, 0.95, size=5))[::-1]
        thr = [robust_threshold(c, a) for a in alphas]
        assert all(a <= b for a, b in zip(thr, thr[1:]))  # stricter level, larger set
        # widening the envelope can only grow the threshold
        wide = CalibrationSet(v, 0.5 * lo, 2.0 * hi, 1.0)
        alpha = 0.3
        assert robust_threshold(c, alpha) <= robust_threshold(wide, alpha)
        bigger_utest = CalibrationSet(v, lo, hi, 4.0)
        assert robust_threshold(c, alpha) <= robust_threshold(bigger_utest, alpha)


# ---------------------------------------------------------------------------
# weighted-conformal oracle
# ---------------------------------------------------------------------------


def test_weighted_conformal_hand_value():
    v = np.array([1.0, 2.0, 3.0])
    w = np.array([2.0, 1.0, 1.0])
    assert weighted_conformal_threshold(v, w, 1.0, 0.4) == 2.0
    assert weighted_conformal_threshold(v, w, 1.0, 0.05) == math.inf


def test_weighted_conformal_is_quantile_with_infinite_atom():
    r = rng(23)
    for _ in range(40):
        n = int(r.integers(1, 30))
        v = r.normal(size=n)
        w = r.uniform(0.1, 2.0, size=n)
        w_test = float(r.uniform(0.1, 2.0))
        alpha = float(r.uniform(0.05, 0.95))
        want = quantile_inf(
            np.append(v, math.inf), 1.0 - alpha, np.append(w, w_test)
        )
        assert weighted_conformal_threshold(v, w, w_test, alpha) == want


def test_exact_envelope_matches_weighted_oracle():
    # l = u = w: the robust construction loses nothing.
    r = rng(24)
    for _ in range(100):
        n = int(r.integers(1, 60))
        v = r.normal(size=n)
        w = r.uniform(0.1, 3.0, size=n)
        w_test = float(r.uniform(0.1, 3.0))
        alpha = float(r.uniform(0.05, 0.95))
        robust = robust_threshold(CalibrationSet(v, w, w, w_test), alpha)
        oracle = weighted_conformal_threshold(v, w, w_test, alpha)
        assert robust == oracle


# ---------------------------------------------------------------------------
# marginal gap
# ---------------------------------------------------------------------------


def test_marginal_gap_zero_for_exact_envelope():
    w = np.array([0.5, 1.0, 2.0])
    assert marginal_gap(w, w, w) == 0.0


def test_marginal_gap_hand_values():
    w = np.array([1.0, 1.0])
    # under = (0.2, 0), over = (0.1, 0), n = 2
    want_inf = (1 / 0.8) * (0.1 + 0.05 + 0.025)
    np.testing.assert_allclose(marginal_gap(w, [1.2, 0.8], [0.9, 1.5]), want_inf, rtol=1e-12)


def test_marginal_gap_validation():
    w = np.array([1.0])
    with pytest.raises(ValidationError):
        marginal_gap(np.array([]), [1.0], [1.0])
    with pytest.raises(ValidationError):
        marginal_gap(w, w, w, n_calib=0)
    with pytest.raises(ValidationError):
        marginal_gap(w, [1.0, 1.0], [1.0, 1.0])
