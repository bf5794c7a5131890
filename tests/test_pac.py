"""PAC thresholds via plug-in, Hoeffding, and betting-martingale envelopes."""

import gc
import math
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from confshift import (
    CalibrationSet,
    ValidationError,
    envelope_hoeffding,
    envelope_wsr,
    marginal_gap,
    pac_gap,
    pac_threshold,
    pac_threshold_path,
    rng,
)
from confshift import pac
from confshift.pac import _default_m, _Kernel, _wsr_first_crossing, _wsr_lcb_rows

LEVEL_SLACK = 1e-12


# ---------------------------------------------------------------------------
# Scalar oracles: the WSR kernel as textbook expressions, one temporary per
# step. The package's in-place kernel must return the same floats, and the
# linear-scan references below are built on these copies.
# ---------------------------------------------------------------------------


def _running_mean(f: np.ndarray) -> np.ndarray:
    """Running means mu_j of the summands up to and including j, started
    at 1/2, per row of the (R, n) matrix ``f``."""
    i = np.arange(1, f.shape[1] + 1)
    return (0.5 + np.cumsum(f, axis=1)) / (1.0 + i)


def _nu_from_squares(sq: np.ndarray, delta: float) -> np.ndarray:
    """Betting fractions nu_j from the squared deviations (f_j - mu_j)^2:
    each bet reads the running variance up to j - 1, started at 1/4."""
    n = sq.shape[1]
    i = np.arange(1, n + 1)
    sig2 = (0.25 + np.cumsum(sq, axis=1)) / (1.0 + i)
    sig2_prev = np.concatenate(
        [np.full((sq.shape[0], 1), 0.25), sig2[:, :-1]], axis=1
    )
    return np.minimum(1.0, np.sqrt(2.0 * math.log(2.0 / delta) / (n * sig2_prev)))


def _running_nu(f: np.ndarray, delta: float) -> np.ndarray:
    """Betting fractions nu_j per row of the (R, n) summand matrix ``f``."""
    return _nu_from_squares((f - _running_mean(f)) ** 2, delta)


def _log_wealth_max(f: np.ndarray, nu: np.ndarray, g: np.ndarray | float) -> np.ndarray:
    """max_i log prod_{j<=i} (1 + nu_j (f_j - g)) per row, g in [0, 1].

    Factors are in [0, 2] for g in [0, 1]; a zero factor kills the wealth,
    which the running max already accounts for through earlier prefixes.
    """
    if isinstance(g, np.ndarray):
        g = g[:, None]
    factors = np.maximum(1.0 + nu * (f - g), 0.0)
    with np.errstate(divide="ignore"):
        logs = np.log(factors)
    return np.max(np.cumsum(logs, axis=1), axis=1)


def _log_wealth_bound(lo: np.ndarray, hi: np.ndarray, g0: np.ndarray, delta: float) -> np.ndarray:
    """Upper bound on ``_log_wealth_max(r, _running_nu(r, delta), g0)`` over
    every summand row r whose entries each equal the entry of ``lo`` or of
    ``hi`` in the same row, where lo <= hi entrywise; one bound per row.

    Such rows are the summands at every t between two sorted scores, because
    each summand is a nondecreasing step function of t. The running means lie
    between the two corner rows' means; each squared deviation lies between
    ``sq_lo`` (the squared distance from the entry's two values to that mean
    interval) and ``sq_hi`` (the largest of the four corners); so nu lies
    between the fractions those squares give, and each factor is at most
    1 + nu* (hi - g0), with nu* the larger fraction where hi >= g0 and the
    smaller one elsewhere.
    """
    mu_lo, mu_hi = _running_mean(lo), _running_mean(hi)
    sq_hi = np.maximum.reduce([(x - mu) ** 2 for x in (lo, hi) for mu in (mu_lo, mu_hi)])
    sq_lo = np.minimum((lo - np.clip(lo, mu_lo, mu_hi)) ** 2,
                       (hi - np.clip(hi, mu_lo, mu_hi)) ** 2)
    nu = np.where(hi >= g0[:, None], _nu_from_squares(sq_lo, delta),
                  _nu_from_squares(sq_hi, delta))
    return _log_wealth_max(hi, nu, g0)


def _wsr_lcb(f: np.ndarray, delta: float, tol: float = 1e-10) -> float:
    """Lower confidence bound of one summand row by bisection on [0, 1]."""
    f = f[None, :]
    nu = _running_nu(f, delta)
    thresh = math.log(2.0 / delta)
    lo, hi = 0.0, 1.0
    if _log_wealth_max(f, nu, lo)[0] <= thresh:
        hi = 0.0
    for _ in range(int(math.ceil(math.log2(1.0 / tol)))):
        mid = 0.5 * (lo + hi)
        if _log_wealth_max(f, nu, mid)[0] <= thresh:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _vs(calib: CalibrationSet) -> np.ndarray:
    """The set's scores in stable sorted order, as the searches read them."""
    return np.sort(calib.v, kind="stable")


def _summands(calib: CalibrationSet, t: np.ndarray, m: float) -> tuple[np.ndarray, np.ndarray]:
    """WSR summand rows at each threshold in ``t``, both (len(t), n):
    f = 1{V <= t} l / M and h = 1 - 1{V > t} u / M."""
    below = calib.v[None, :] <= t[:, None]
    f = np.where(below, calib.lo / m, 0.0)
    h = 1.0 - np.where(below, 0.0, calib.hi / m)
    return f, h


def envelope_plugin(calib, t, penalty=0.0):
    """Scalar reference: the plug-in envelope
    max{mean(1{V<=t} l), 1 - mean(1{V>t} u)} minus ``penalty``, clamped to
    [0, 1]."""
    below = calib.v <= t
    value = max(calib.lo[below].sum(), calib.n - calib.hi[~below].sum()) / calib.n - penalty
    return min(max(value, 0.0), 1.0)


def _envelope_curve(method, calib, delta, m=None):
    """Scalar reference: the envelope at every sorted score, repaired by a
    running max, as (sorted scores, curve). Hoeffding is the plug-in minus
    M sqrt(log(2/delta) / (2n)); ``m`` defaults to the set's own M."""
    vs = np.sort(calib.v, kind="stable")
    if method == "wsr":
        raw = [envelope_wsr(calib, t, delta, m) for t in vs]
    else:
        m = _default_m(calib) if m is None else m
        penalty = 0.0 if method == "plugin" else m * math.sqrt(math.log(2 / delta) / (2 * calib.n))
        raw = [envelope_plugin(calib, t, penalty) for t in vs]
    return vs, np.maximum.accumulate(raw)


def _scan_threshold(method, calib, alpha, delta, m=None):
    """Scalar reference: the first sorted score whose repaired envelope
    clears 1 - alpha, else +inf."""
    vs, curve = _envelope_curve(method, calib, delta, m)
    crossed = curve >= (1.0 - alpha) - LEVEL_SLACK
    return float(vs[np.argmax(crossed)]) if crossed.any() else math.inf


def _random_calib(r, n=None, collapse=False):
    n = int(r.integers(2, 50)) if n is None else n
    v = r.normal(size=n)
    lo = r.uniform(0.2, 1.0, size=n)
    hi = lo if collapse else lo + r.uniform(0.0, 1.0, size=n)
    return CalibrationSet(v, lo, hi, float(r.uniform(0.2, 2.0)))


# ---------------------------------------------------------------------------
# envelope hand values
# ---------------------------------------------------------------------------


def test_plugin_hand_values():
    c = CalibrationSet(np.arange(1.0, 10.0), np.ones(9), np.ones(9), 1.0)
    # unit bounds: both envelope terms equal k/n at the k-th sorted score
    np.testing.assert_allclose(envelope_plugin(c, 3.0), 3.0 / 9.0, rtol=0, atol=1e-15)
    assert envelope_plugin(c, 0.0) == 0.0
    assert envelope_plugin(c, 9.0) == 1.0
    heavy = CalibrationSet(np.array([1.0]), np.array([3.0]), np.array([3.0]), 1.0)
    assert envelope_plugin(heavy, 2.0) == 1.0  # clamped


def test_hoeffding_hand_value():
    # n=100 unit summands, M=1: 1 - sqrt(log(40)/200)
    c = CalibrationSet(np.arange(100.0), np.ones(100), np.ones(100), 1.0)
    got = envelope_hoeffding(c, 99.0, delta=0.05)
    np.testing.assert_allclose(got, 0.864189848425938, rtol=0, atol=1e-15)
    # floor at zero for hopeless t
    assert envelope_hoeffding(c, -1.0, delta=0.05) == 0.0


def test_wsr_single_point_is_zero():
    c = CalibrationSet(np.array([1.0]), np.array([1.0]), np.array([1.0]), 1.0)
    assert envelope_wsr(c, 1.0, delta=0.05) == 0.0


def test_wsr_frozen_regression_value():
    # Guards the betting construction (running nu, wealth max, bisection).
    r = rng(14)
    n = 40
    v = r.normal(size=n)
    b = r.uniform(0.5, 1.5, size=n)
    c = CalibrationSet(v, b, b, 1.2)
    t = float(np.median(v))
    np.testing.assert_allclose(
        envelope_wsr(c, t, delta=0.05), 0.3029835289576874, rtol=0, atol=1e-12
    )


def test_envelope_ranges_and_ordering():
    r = rng(31)
    for _ in range(25):
        c = _random_calib(r)
        t = float(r.normal())
        plug = envelope_plugin(c, t)
        hoef = envelope_hoeffding(c, t, 0.1)
        wsr = envelope_wsr(c, t, 0.1)
        assert 0.0 <= plug <= 1.0
        assert 0.0 <= wsr <= 1.0
        assert hoef >= 0.0
        if plug < 1.0:
            assert hoef <= plug + 1e-12


def test_envelope_validation():
    c = _random_calib(rng(1))
    with pytest.raises(ValidationError):
        envelope_hoeffding(c, 0.0, delta=0.0)
    with pytest.raises(ValidationError):
        envelope_wsr(c, 0.0, delta=1.0)
    with pytest.raises(ValidationError):
        envelope_wsr(c, 0.0, delta=0.1, M=0.01)  # below max bound
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            envelope_wsr(c, 0.0, delta=0.1, M=bad)
        with pytest.raises(ValidationError):
            envelope_hoeffding(c, 0.0, delta=0.1, M=bad)


# ---------------------------------------------------------------------------
# pac_threshold
# ---------------------------------------------------------------------------


def test_plugin_threshold_split_conformal_analogue():
    # unit bounds, n=9, alpha=0.1: needs k/9 >= 0.9, first met at the top score
    r = rng(6)
    v = r.normal(size=9)
    c = CalibrationSet(v, np.ones(9), np.ones(9), 1.0)
    assert pac_threshold(c, 0.1, 0.05, "plugin") == np.sort(v)[8]
    assert pac_threshold(c, 0.5, 0.05, "plugin") == np.sort(v)[4]


def test_threshold_frozen_regression_values():
    r = rng(14)
    n = 40
    v = r.normal(size=n)
    b = r.uniform(0.5, 1.5, size=n)
    c = CalibrationSet(v, b, b, 1.2)
    np.testing.assert_allclose(
        pac_threshold(c, 0.3, 0.05, "wsr"), 1.0232382136634648, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(
        pac_threshold(c, 0.3, 0.05, "plugin"), 0.4146068139746092, rtol=0, atol=1e-12
    )
    assert pac_threshold(c, 0.3, 0.05, "hoeffding") == math.inf


@pytest.mark.parametrize("method", ["plugin", "hoeffding", "wsr"])
def test_threshold_matches_envelope_scan(method):
    """First sorted score whose repaired envelope clears 1 - alpha."""
    r = rng(32)
    for _ in range(20):
        c = _random_calib(r)
        alpha = float(r.uniform(0.1, 0.9))
        assert pac_threshold(c, alpha, 0.1, method) == _scan_threshold(method, c, alpha, 0.1)


@pytest.mark.parametrize("method", ["plugin", "hoeffding", "wsr"])
def test_threshold_monotone_in_alpha(method):
    r = rng(33)
    for _ in range(10):
        c = _random_calib(r)
        alphas = np.sort(r.uniform(0.05, 0.95, size=5))[::-1]
        thr = [pac_threshold(c, float(a), 0.1, method) for a in alphas]
        assert all(a <= b for a, b in zip(thr, thr[1:]))


def test_hoeffding_threshold_dominates_plugin():
    r = rng(34)
    for _ in range(20):
        c = _random_calib(r)
        alpha = float(r.uniform(0.1, 0.9))
        assert pac_threshold(c, alpha, 0.1, "hoeffding") >= pac_threshold(
            c, alpha, 0.1, "plugin"
        )


def test_wsr_degenerate_small_m_certifies_everything():
    # M <= alpha: the u-side term 1 - M exceeds 1 - alpha at every t.
    c = CalibrationSet(np.array([2.0, 1.0, 3.0]), np.full(3, 0.01), np.full(3, 0.02), 0.05)
    assert pac_threshold(c, 0.3, 0.05, "wsr") == 1.0
    assert envelope_wsr(c, 0.5, 0.05) >= 0.7


def test_threshold_validation():
    c = _random_calib(rng(2))
    with pytest.raises(ValidationError):
        pac_threshold(c, 0.3, 0.05, "magic")
    with pytest.raises(ValidationError):
        pac_threshold(c, 0.0, 0.05, "wsr")
    with pytest.raises(ValidationError):
        pac_threshold(c, 0.3, 0.0, "wsr")
    with pytest.raises(ValidationError):
        pac_threshold(c, 0.3, 0.05, "wsr", M=1e-6)
    big = _random_calib(rng(2), n=200)
    for method in ("plugin", "hoeffding", "wsr"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValidationError):
                pac_threshold(big, 0.3, 0.05, method, M=bad)
    # plugin ignores delta entirely
    assert pac_threshold(c, 0.3, 0.0, "plugin") == pac_threshold(c, 0.3, 0.9, "plugin")


# ---------------------------------------------------------------------------
# pac_threshold_path
# ---------------------------------------------------------------------------


def _widening_path(r, n_sets=6, n=None):
    n = int(r.integers(5, 40)) if n is None else n
    v = r.normal(size=n)
    w = r.uniform(0.3, 1.2, size=n)
    w_test = float(r.uniform(0.3, 1.2))
    path = []
    for gamma in np.linspace(1.0, 3.0, n_sets):
        path.append(CalibrationSet(v, w / gamma, w * gamma, w_test * gamma))
    return path


@pytest.mark.parametrize("method", ["plugin", "hoeffding", "wsr"])
def test_path_equals_repaired_single_thresholds(method):
    r = rng(35)
    for _ in range(8):
        path = _widening_path(r)
        alpha, delta = float(r.uniform(0.1, 0.6)), 0.1
        m = max(max(c.lo.max(), c.hi.max(), c.u_test) for c in path)
        got = pac_threshold_path(path, alpha, delta, method)
        singles = [pac_threshold(c, alpha, delta, method, M=m) for c in path]
        want = np.maximum.accumulate(singles)
        np.testing.assert_array_equal(got, want)
        assert (got[:-1] <= got[1:]).all()  # diff would nan out on inf pairs


@settings(max_examples=150, deadline=None)
@given(method=st.sampled_from(("plugin", "hoeffding", "wsr")),
       v=st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=30),
       data=st.data())
def test_path_equals_running_max_on_arbitrary_paths(method, v, data):
    """Any path, widening or not, with tied scores, is the running max of the
    per-set thresholds: for plugin and Hoeffding those of the scalar
    envelope scan, for wsr those of one-set searches."""
    n = len(v)
    bound = st.floats(0.05, 3.0)
    path = []
    for _ in range(data.draw(st.integers(1, 6))):
        lo = np.array(data.draw(st.lists(bound, min_size=n, max_size=n)))
        extra = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
        path.append(CalibrationSet(np.array(v), lo, lo + extra, data.draw(bound)))
    alpha = data.draw(st.floats(0.05, 0.95))
    delta = data.draw(st.floats(0.01, 0.5))
    m = max(max(c.lo.max(), c.hi.max(), c.u_test) for c in path)
    singles = [pac_threshold(c, alpha, delta, method, M=m) if method == "wsr"
               else _scan_threshold(method, c, alpha, delta, m) for c in path]
    np.testing.assert_array_equal(pac_threshold_path(path, alpha, delta, method),
                                  np.maximum.accumulate(singles))


@settings(max_examples=300, deadline=None)
@given(v=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0)),
                  min_size=1, max_size=40),
       data=st.data())
def test_wsr_crossing_predicate_is_monotone_in_t(v, data):
    """On small instances (n <= 40) the exact WSR crossing test (log-wealth
    at the fixed bet g0 reaches log(2/delta)) has not been seen to turn from
    true to false as t rises through the distinct scores: on the l side, on
    the u side, and for their OR. Scores may tie, and M may exceed its
    default. This is an observation about small n that no code relies on:
    the test does flip on a larger instance (see
    test_wsr_crossing_predicate_flips_on_campaign_instance), and the search
    is exact without monotonicity."""
    n = len(v)
    bound = st.floats(0.05, 3.0)
    lo = np.array(data.draw(st.lists(bound, min_size=n, max_size=n)))
    extra = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n, max_size=n)))
    calib = CalibrationSet(np.array(v), lo, lo + extra, data.draw(bound))
    m = _default_m(calib) * data.draw(st.floats(1.0, 4.0))
    alpha = data.draw(st.floats(0.05, 0.95))
    delta = data.draw(st.floats(0.01, 0.5))
    thresh = math.log(2.0 / delta)
    hits = []
    for rows, g0 in zip(_summands(calib, np.unique(calib.v), m),
                        ((1.0 - alpha) / m, (m - alpha) / m)):
        if 0.0 < g0 <= 1.0:
            hits.append(_log_wealth_max(rows, _running_nu(rows, delta), g0) >= thresh)
        else:  # g0 <= 0 certifies every t (u side, M <= alpha); g0 > 1 none
            hits.append(np.full(rows.shape[0], g0 <= 0.0))
    for hit in (*hits, hits[0] | hits[1]):
        assert not (hit[:-1] & ~hit[1:]).any()


# ---------------------------------------------------------------------------
# WSR crossing search: branch and bound against the linear scan
# ---------------------------------------------------------------------------

FLIP = Path(__file__).with_name("wsr_crossing_flip.npz")


def _side_hits(calib, t, alpha, delta, m):
    """Exact crossing test at each threshold in ``t`` on the l side and on
    the u side: log-wealth at the fixed bet g0 reaches log(2/delta)."""
    thresh = math.log(2.0 / delta)
    hits = []
    for rows, g0 in zip(_summands(calib, t, m), ((1.0 - alpha) / m, (m - alpha) / m)):
        if g0 <= 1.0:
            hits.append(_log_wealth_max(rows, _running_nu(rows, delta), g0) >= thresh)
        else:
            hits.append(np.zeros(len(t), dtype=bool))
    return hits


def _crossing_hits(calib, t, alpha, delta, m):
    """Exact crossing test at each threshold in ``t``, OR over the sides."""
    l_hits, u_hits = _side_hits(calib, t, alpha, delta, m)
    return l_hits | u_hits


def _linear_first_crossing(calib, alpha, delta, m, start=0):
    """Reference search: test every sorted candidate from ``start`` on, in
    blocks of 256, and return the first that passes (n when none does)."""
    n, vs = calib.n, _vs(calib)
    if start >= n:
        return n
    if (m - alpha) / m <= 0.0:
        return start
    for blk in range(start, n, 256):
        hit = _crossing_hits(calib, vs[blk : blk + 256], alpha, delta, m)
        if hit.any():
            return blk + int(np.argmax(hit))
    return n


def _linear_path(path, alpha, delta):
    """Reference path: each linear search resumes at the previous crossing."""
    m = max(_default_m(c) for c in path)
    out, cur = [], 0
    for c in path:
        cur = _linear_first_crossing(c, alpha, delta, m, cur)
        out.append(float(_vs(c)[cur]) if cur < c.n else math.inf)
    return np.array(out)


def _seeded_calib(seed, n, ties, spread):
    """Calibration set of n units: integer scores when ``ties``, bounds
    lo = w / (1 + spread) and hi = w * (1 + spread)."""
    r = rng(seed)
    v = r.integers(-4, 5, size=n).astype(float) if ties else r.normal(size=n)
    w = r.uniform(0.2, 1.5, size=n)
    g = 1.0 + spread
    return CalibrationSet(v, w / g, w * g, float(r.uniform(0.2, 2.0)) * g)


_search_cases = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(17, 300),
    ties=st.booleans(),
    spread=st.floats(0.0, 2.0),
    alpha=st.floats(0.02, 0.6),
    delta=st.floats(0.01, 0.5),
)


_inflate = st.one_of(st.just(1.0), st.floats(1.0, 4.0))


@settings(max_examples=200, deadline=None)
@given(start=st.floats(0.0, 1.0), inflate=_inflate, window=st.sampled_from((0, 1, 3, 16)),
       **_search_cases)
def test_wsr_search_equals_linear_scan(seed, n, ties, spread, inflate, alpha, delta, start,
                                       window):
    """The branch-and-bound search returns the linear scan's index, from any
    start, top down (no window) or from a first window that may overshoot
    the crossing or miss it by more than the leaf-tested ranges reach, with
    tied scores and M above its default. n exceeds the leaf size, so ranges
    are skipped by the bound."""
    calib = _seeded_calib(seed, n, ties, spread)
    m = _default_m(calib) * inflate
    k = int(start * n)
    assert (_wsr_first_crossing(calib, _vs(calib), alpha, delta, m, k, window)
            == _linear_first_crossing(calib, alpha, delta, m, k))


@settings(max_examples=60, deadline=None)
@given(order=st.permutations(range(5)), widening=st.booleans(), **_search_cases)
def test_wsr_path_equals_resumed_linear_walk(seed, n, ties, spread, alpha, delta, order,
                                             widening):
    """pac_threshold_path equals the resumed linear walk on widening paths
    and on the same sets in any order."""
    base = _seeded_calib(seed, n, ties, 0.0)
    path = [CalibrationSet(base.v, base.lo / g, base.hi * g, base.u_test * g)
            for g in 1.0 + spread * np.arange(5) / 4.0]
    if not widening:
        path = [path[i] for i in order]
    np.testing.assert_array_equal(pac_threshold_path(path, alpha, delta),
                                  _linear_path(path, alpha, delta))


@settings(max_examples=200, deadline=None)
@given(ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), inflate=_inflate,
       **_search_cases)
def test_wsr_log_wealth_bound_dominates_every_row(seed, n, ties, spread, inflate, alpha,
                                                  delta, ends):
    """On each side, the bound from the end rows of a candidate range is at
    least the computed log-wealth of every row in the range, with no slack."""
    calib = _seeded_calib(seed, n, ties, spread)
    m = _default_m(calib) * inflate
    a, b = sorted(int(e * (n - 1)) for e in ends)
    kernel = _Kernel(n, delta)
    for rows, g0 in zip(_summands(calib, _vs(calib)[a : b + 1], m),
                        ((1.0 - alpha) / m, (m - alpha) / m)):
        exact = kernel.log_wealth_max(rows, kernel.running_nu(rows), g0)
        assert kernel.log_wealth_bound(rows[[0, -1]], g0) >= exact.max()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4), n=st.integers(1, 40),
       share=st.sampled_from((0.0, 0.5, 1.0)), delta=st.floats(0.01, 0.5),
       g_end=st.sampled_from((0.0, 1.0)))
def test_kernel_floats_equal_the_oracle(seed, rows, n, share, delta, g_end):
    """The in-place kernel returns the oracle's floats bit for bit: betting
    fractions, max log-wealth at a common bet and at one bet per row, the
    range bound of each row's end pair against the batched oracle, and the
    bisection of several stacked rows. A ``share`` of the entries (and of
    the bets) comes from {0, 1/4, 1/2, 1}, so rows hold zeros, ones and
    exact ties; n may be 1; the common bet is 0 or 1."""
    r = rng(seed)

    def draw(shape):
        return np.where(r.random(shape) < share,
                        r.choice([0.0, 0.25, 0.5, 1.0], size=shape), r.random(shape))

    f, other, g = draw((rows, n)), draw((rows, n)), draw(rows)
    lo, hi = np.minimum(f, other), np.maximum(f, other)
    kernel = _Kernel(n, delta)
    nu = kernel.running_nu(f)
    np.testing.assert_array_equal(nu, _running_nu(f, delta))
    np.testing.assert_array_equal(kernel.log_wealth_max(f, nu, g_end),
                                  _log_wealth_max(f, nu, g_end))
    np.testing.assert_array_equal(kernel.log_wealth_max(f, nu, g), _log_wealth_max(f, nu, g))
    np.testing.assert_array_equal([kernel.log_wealth_bound(np.stack((a, b)), g0)
                                   for a, b, g0 in zip(lo, hi, g)],
                                  _log_wealth_bound(lo, hi, g, delta))
    np.testing.assert_array_equal(_wsr_lcb_rows(kernel, f), [_wsr_lcb(x, delta) for x in f])
    out, work = np.empty((rows, n)), np.empty((rows, n))
    assert kernel.running_nu(f, out, work) is out
    np.testing.assert_array_equal(out, nu)
    np.testing.assert_array_equal(kernel.log_wealth_max(f, out, g, work),
                                  _log_wealth_max(f, nu, g))


@settings(max_examples=100, deadline=None)
@given(leaf=st.integers(1, 16), at=st.floats(0.0, 1.0), inflate=_inflate, **_search_cases)
def test_leaf_kernel_equals_the_oracle(seed, n, ties, spread, inflate, alpha, delta, leaf, at):
    """The one-side leaf writes each side's summand rows into its scratch
    with the oracle's floats, and its crossing test agrees with the oracle's
    on every row, on both sides."""
    calib = _seeded_calib(seed, n, ties, spread)
    m = _default_m(calib) * inflate
    a = int(at * (n - leaf))
    t = _vs(calib)[a : a + leaf]
    kernel = _Kernel(n, delta, 16)
    for side, rows, hits in zip(pac._sides(calib, m, alpha), _summands(calib, t, m),
                                _side_hits(calib, t, alpha, delta, m)):
        np.testing.assert_array_equal(kernel.side_rows(calib.v, t, side), rows)
        if side.g0 <= 1.0:
            np.testing.assert_array_equal(kernel.passes(calib.v, t, side), hits)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 60), ties=st.booleans(),
       t=st.floats(-5.0, 5.0), delta=st.floats(0.01, 0.5), inflate=_inflate)
def test_envelope_wsr_equals_two_one_sided_bisections(seed, n, ties, t, delta, inflate):
    """envelope_wsr bisects the l-side and u-side rows in one stacked call;
    each row's bisection runs on its own, so the value equals two one-row
    oracle bisections."""
    calib = _seeded_calib(seed, n, ties, 0.5)
    m = _default_m(calib) * inflate
    f, h = _summands(calib, np.array([t]), m)
    value = max(m * _wsr_lcb(f[0], delta), 1.0 - m + m * _wsr_lcb(h[0], delta))
    assert envelope_wsr(calib, t, delta, M=m) == min(max(value, 0.0), 1.0)


def test_wsr_crossing_predicate_flips_on_campaign_instance():
    """The Gamma = 2.1 calibration set of one sensitivity-campaign
    replication (n = 1000): the crossing test passes at sorted index 958 and
    fails at 959, so a bisection over t could miss the first crossing. The
    search still returns the linear scan's index."""
    d = np.load(FLIP)
    calib = CalibrationSet(d["v"], d["lo"], d["hi"], float(d["u_test"]))
    m, alpha, delta = float(d["m"]), float(d["alpha"]), float(d["delta"])
    assert _crossing_hits(calib, _vs(calib)[958:960], alpha, delta, m).tolist() == [True, False]
    assert _linear_first_crossing(calib, alpha, delta, m) == 958
    assert _wsr_first_crossing(calib, _vs(calib), alpha, delta, m) == 958


def _count_rows(monkeypatch):
    """Record (rows, side) of every summand block the search builds through
    ``_Kernel.side_rows``: two end rows per bound, one row per candidate of
    a leaf. The side is "u" (summand 1 below t) or "l"."""
    rows = []
    build = pac._Kernel.side_rows

    def counted(self, v, t, side):
        rows.append((len(t), "u" if np.isscalar(side.below) else "l"))
        return build(self, v, t, side)

    monkeypatch.setattr(pac._Kernel, "side_rows", counted)
    return rows


def test_wsr_search_evaluates_few_rows(monkeypatch):
    """A search from 0 to a crossing above 0.9 n splits [0, n) top down: it
    builds summands for at most 32 candidate rows, bound end rows included
    (a bound per level, then one leaf)."""
    n = 1000
    r = rng(0)
    w = r.uniform(0.3, 1.5, size=n)
    calib = CalibrationSet(r.normal(size=n), w / 2.0, w * 2.0, 3.0)
    m = _default_m(calib)
    rows = _count_rows(monkeypatch)
    k = _wsr_first_crossing(calib, _vs(calib), 0.1, 0.05, m)
    monkeypatch.undo()
    assert k == _linear_first_crossing(calib, 0.1, 0.05, m) > 0.9 * n
    assert sum(r for r, _ in rows) <= 32


def test_wsr_resumed_searches_build_one_side(monkeypatch):
    """On the campaign set, max(l) / M is below the l-side bet, so the static
    certificate drops the l side at every t. A search resumed at each start
    from 943 to the crossing at 958, with a window that ends at the crossing,
    builds one u-side leaf of exactly its window: one row per candidate
    walked, and no bound."""
    d = np.load(FLIP)
    calib = CalibrationSet(d["v"], d["lo"], d["hi"], float(d["u_test"]))
    m, alpha, delta = float(d["m"]), float(d["alpha"]), float(d["delta"])
    assert calib.lo.max() / m <= (1.0 - alpha) / m
    assert _Kernel(calib.n, delta).side_dead(pac._sides(calib, m, alpha)[0])
    rows = _count_rows(monkeypatch)
    starts = range(943, 959)
    vs = _vs(calib)
    got = [_wsr_first_crossing(calib, vs, alpha, delta, m, s, 959 - s) for s in starts]
    monkeypatch.undo()
    assert got == [958] * len(starts)
    assert rows == [(959 - s, "u") for s in starts]


def _one_side_calib(seed, n, alpha, l_live):
    """Calibration set with max(l) = 1 - alpha when not ``l_live``, so the
    largest l-side summand equals the bet g0 = (1 - alpha) / M and the side
    is dead at every t, and with max(l) above 1 - alpha otherwise."""
    r = rng(seed)
    top = (1.0 - alpha) * (1.6 if l_live else 1.0)
    lo = r.uniform(0.2, 1.0, size=n) * top
    lo[r.integers(n)] = top
    hi = lo * r.uniform(1.0, 1.5, size=n)
    return CalibrationSet(r.normal(size=n), lo, hi, float(hi.max()))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(17, 300), alpha=st.floats(0.05, 0.5),
       delta=st.floats(0.01, 0.5), start=st.floats(0.0, 1.0), l_live=st.booleans())
def test_wsr_search_with_a_dead_side_equals_linear_scan(seed, n, alpha, delta, start, l_live):
    """With the l side dead at every t (max(l) <= 1 - alpha) or live at
    some t, the per-side search returns the linear scan's index."""
    calib = _one_side_calib(seed, n, alpha, l_live)
    m = _default_m(calib)
    k = int(start * n)
    assert (_wsr_first_crossing(calib, _vs(calib), alpha, delta, m, k)
            == _linear_first_crossing(calib, alpha, delta, m, k))


def _ratio_calib(seed, n, mean=1.03):
    """Calibration set with one ratio w for both bounds (Gamma = 1): w falls
    with the score and averages ``mean``, so the l-side envelope
    mean(w 1{V <= t}) runs above the u side's 1 - mean(w 1{V > t})."""
    r = rng(seed)
    v = r.normal(size=n)
    w = np.exp(-0.15 * v + 0.05 * r.normal(size=n))
    w *= mean / w.mean()
    return CalibrationSet(v, w, w, float(w.max()))


@pytest.mark.parametrize("seed", [0, 1])
def test_wsr_search_revives_a_side_in_a_later_range(monkeypatch, seed):
    """A bound drops a side for its own range only: the l side of a Gamma = 1
    set is dead by the bound on an early range and still tested on a later
    one (by a bound that fails or by a leaf), and the search returns the
    linear scan's index."""
    calib = _ratio_calib(seed, 300, mean=1.0)
    m = _default_m(calib)
    steps = []  # ("dead" | "live" | "leaf") of each l-side bound or leaf, in order
    bound, leaf = pac._Kernel.range_dead, pac._Kernel.passes

    def bounded(self, v, vs, a, b, side):
        out = bound(self, v, vs, a, b, side)
        if not np.isscalar(side.below):
            steps.append("dead" if out else "live")
        return out

    def tested(self, v, t, side):
        if not np.isscalar(side.below):
            steps.append("leaf")
        return leaf(self, v, t, side)

    monkeypatch.setattr(pac._Kernel, "range_dead", bounded)
    monkeypatch.setattr(pac._Kernel, "passes", tested)
    k = _wsr_first_crossing(calib, _vs(calib), 0.1, 0.05, m)
    monkeypatch.undo()
    assert k == _linear_first_crossing(calib, 0.1, 0.05, m)
    assert "dead" in steps
    assert {"live", "leaf"} & set(steps[steps.index("dead") + 1:])


def test_wsr_search_finds_an_l_side_just_above_its_bet():
    """Every l is 1.05 (1 - alpha), so each l-side summand below t clears
    the bet g0 = (1 - alpha) / M by 5 %: the l side alone passes first, and
    the search returns the linear scan's index, where a rule that drops a
    side too early would miss it."""
    n, alpha, delta = 1000, 0.1, 0.05
    calib = CalibrationSet(rng(3).normal(size=n), np.full(n, 1.05 * (1.0 - alpha)),
                           np.full(n, 4.0), 1.0)
    m = _default_m(calib)
    k = _linear_first_crossing(calib, alpha, delta, m)
    f, h = _summands(calib, _vs(calib)[k : k + 1], m)
    thresh = math.log(2.0 / delta)
    assert _log_wealth_max(f, _running_nu(f, delta), (1.0 - alpha) / m)[0] >= thresh
    assert _log_wealth_max(h, _running_nu(h, delta), (m - alpha) / m)[0] < thresh
    assert _wsr_first_crossing(calib, _vs(calib), alpha, delta, m) == k < n


@settings(max_examples=300, deadline=None)
@given(v=st.lists(st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0)),
                  min_size=1, max_size=40),
       data=st.data())
def test_wsr_static_certificate_never_drops_a_passing_l_side(v, data):
    """When ``_Kernel.side_dead`` drops the l side, the oracle finds no t at
    which it passes: small n (where nu is often 1 and the certificate is
    tight), tied scores, and every l between 0.9 and 1.2 times 1 - alpha, so
    each l-side summand lies just below or just above its bet. The search
    still returns the linear scan's index."""
    n = len(v)
    alpha = data.draw(st.floats(0.05, 0.5))
    delta = data.draw(st.floats(0.01, 0.5))
    lo = (1.0 - alpha) * np.array(data.draw(st.lists(st.floats(0.9, 1.2), min_size=n,
                                                      max_size=n)))
    hi = lo * np.array(data.draw(st.lists(st.floats(1.0, 1.5), min_size=n, max_size=n)))
    calib = CalibrationSet(np.array(v), lo, hi, float(hi.max()))
    m = _default_m(calib) * data.draw(_inflate)
    if _Kernel(n, delta).side_dead(pac._sides(calib, m, alpha)[0]):
        assert not _side_hits(calib, np.unique(calib.v), alpha, delta, m)[0].any()
    assert (_wsr_first_crossing(calib, _vs(calib), alpha, delta, m)
            == _linear_first_crossing(calib, alpha, delta, m))


@pytest.mark.parametrize("ratio", [0.99, 1.01])
def test_wsr_static_certificate_is_exact_where_every_bet_is_full(ratio):
    """n = 20 equal l, each just above the bet: the running variance stays
    so small that every nu is 1, and at the top score the l-side log-wealth
    is the certificate's own sum. With that sum 1 % below log(2/delta) the
    side is dropped and passes nowhere; 1 % above, it passes at the top
    score and the certificate keeps it."""
    n, alpha, delta, m = 20, 0.1, 0.05, 2.0
    thresh = math.log(2.0 / delta)
    lo = np.full(n, (1.0 - alpha) + m * math.expm1(ratio * thresh / n))
    calib = CalibrationSet(rng(4).normal(size=n), lo, lo, 1.0)
    l_side = pac._sides(calib, m, alpha)[0]
    f = _summands(calib, _vs(calib)[-1:], m)[0]
    assert (_running_nu(f, delta) == 1.0).all()
    passes = _side_hits(calib, _vs(calib), alpha, delta, m)[0]
    assert _Kernel(n, delta).side_dead(l_side) == (ratio < 1.0) == (not passes.any())


def _gamma_path(base, gammas):
    """``base`` widened by each strength: bounds l / gamma and u * gamma."""
    return [CalibrationSet(base.v, base.lo / g, base.hi * g, base.u_test * g) for g in gammas]


def test_wsr_path_from_a_collapsed_set_crosses_on_the_l_side_first():
    """The first set of a scan path has l == u (Gamma = 1); there the l side
    passes before the u side, so the search must find the l side's crossing
    below the u side's, and the path equals the resumed linear walk."""
    base = _ratio_calib(0, 300)
    path = _gamma_path(base, np.linspace(1.0, 2.2, 13))
    m = max(_default_m(c) for c in path)
    l_hits, u_hits = _side_hits(path[0], _vs(base), 0.1, 0.05, m)
    assert np.argmax(l_hits) < np.argmax(u_hits)
    np.testing.assert_array_equal(pac_threshold_path(path, 0.1, 0.05),
                                  _linear_path(path, 0.1, 0.05))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(17, 300), alpha=st.floats(0.05, 0.3),
       delta=st.floats(0.01, 0.5), mean=st.floats(0.98, 1.08), shuffle=st.booleans())
def test_wsr_path_from_a_collapsed_set_equals_resumed_linear_walk(seed, n, alpha, delta, mean,
                                                                  shuffle):
    """Paths whose first set has l == u, widening or shuffled after it."""
    gammas = np.linspace(1.0, 2.2, 7)
    if shuffle:
        rng(seed).shuffle(gammas[1:])
    path = _gamma_path(_ratio_calib(seed, n, mean), gammas)
    np.testing.assert_array_equal(pac_threshold_path(path, alpha, delta),
                                  _linear_path(path, alpha, delta))


def test_wsr_non_widening_path_overshoots_and_misses_its_window():
    """Strengths out of order: the window taken from one search's offset
    overshoots the next crossing (offset 0 after a window of 16) and falls
    short of another (offset 20 after a window of 1); the path still equals
    the resumed linear walk."""
    path = _gamma_path(_seeded_calib(1, 200, False, 0.0), [1.0, 1.0, 2.5, 1.0, 1.2, 3.0, 1.1])
    m = max(_default_m(c) for c in path)
    cur, offsets = 0, []
    for c in path:
        nxt = _linear_first_crossing(c, 0.2, 0.05, m, cur)
        offsets.append(nxt - cur)
        cur = nxt
    windows = [min(o + 1, 16) for o in offsets[:-1]]
    assert (16, 0) in zip(windows, offsets[1:]) and (1, 20) in zip(windows, offsets[1:])
    np.testing.assert_array_equal(pac_threshold_path(path, 0.2, 0.05),
                                  _linear_path(path, 0.2, 0.05))


def test_wsr_path_leaves_nothing_for_the_cyclic_collector(monkeypatch):
    """A path's kernel and its scratch go when the call returns: with the
    cyclic collector paused, the kernel is freed by reference counting
    alone and a collection afterwards finds nothing."""
    kernels = []
    build = pac._Kernel.__init__

    def recorded(self, *args):
        build(self, *args)
        kernels.append(weakref.ref(self))

    monkeypatch.setattr(pac._Kernel, "__init__", recorded)
    path = _gamma_path(_ratio_calib(2, 300), np.linspace(1.0, 2.2, 13))
    gc.collect()
    gc.disable()
    try:
        pac_threshold_path(path, 0.1, 0.05)
        assert len(kernels) == 1 and kernels[0]() is None
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("alpha", [0.1, 0.3])
def test_wsr_search_with_a_bet_above_one_equals_linear_scan(alpha):
    """An M below 1 - alpha (all bounds small, M above its default) puts the
    l-side bet g0 = (1 - alpha) / M above 1, where no summand reaches it."""
    r = rng(7)
    n = 300
    lo = r.uniform(0.05, 0.3, size=n)
    calib = CalibrationSet(r.normal(size=n), lo, lo * 1.5, 0.4)
    m = 0.6
    assert (1.0 - alpha) / m > 1.0 and m >= _default_m(calib)
    for k in (0, 100, 250):
        assert (_wsr_first_crossing(calib, _vs(calib), alpha, 0.05, m, k)
                == _linear_first_crossing(calib, alpha, 0.05, m, k))


def test_path_validation():
    r = rng(36)
    path = _widening_path(r, n_sets=3, n=10)
    other = CalibrationSet(r.normal(size=10), np.ones(10), np.ones(10), 1.0)
    with pytest.raises(ValidationError):
        pac_threshold_path([], 0.3, 0.1)
    with pytest.raises(ValidationError):
        pac_threshold_path(path + [other], 0.3, 0.1)
    with pytest.raises(ValidationError):
        pac_threshold_path(path, 0.3, 0.1, M=1e-9)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            pac_threshold_path(path, 0.3, 0.1, "hoeffding", M=bad)


# ---------------------------------------------------------------------------
# envelope curves / pac_gap
# ---------------------------------------------------------------------------


def test_estimate_curve_monotone_and_bounded():
    r = rng(37)
    c = _random_calib(r, n=30)
    for method in ("plugin", "hoeffding", "wsr"):
        vs, curve = _envelope_curve(method, c, 0.1)
        assert (np.diff(curve) >= 0).all()
        assert vs.tolist() == np.sort(c.v).tolist()
        if method != "hoeffding":
            assert curve.min() >= 0.0 and curve.max() <= 1.0


def test_pac_gap_hand_values():
    w = np.array([1.0, 1.0])
    np.testing.assert_allclose(pac_gap(w, [1.2, 0.8], [0.9, 1.5]), 0.1, rtol=1e-12)
    assert pac_gap(w, w, w) == 0.0
    with pytest.raises(ValidationError):
        pac_gap(np.array([]), w, w)


@pytest.mark.parametrize("gap", [marginal_gap, pac_gap])
@pytest.mark.parametrize("lo, hi", [
    ([[1.5], [0.5]], [[3.0], [3.0]]),   # column bounds, which would broadcast to 2 x 2
    ([1.5, 0.5, 1.0], [3.0, 3.0]),
    ([1.5, 0.5], [3.0, 3.0, 3.0]),
])
def test_gap_certificates_refuse_bounds_not_shaped_like_w(gap, lo, hi):
    with pytest.raises(ValidationError, match="shapes disagree"):
        gap(np.array([1.0, 2.0]), lo, hi)
