"""PAC thresholds via plug-in, Hoeffding, and betting-martingale envelopes."""

import math
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
    pac_gap,
    pac_threshold,
    pac_threshold_path,
    rng,
)
from confshift.nuisance import BoundPair
from confshift import pac
from confshift.pac import (_default_m, _log_wealth_bound, _log_wealth_max, _running_nu,
                           _summands, _wsr_first_crossing)

LEVEL_SLACK = 1e-12


def envelope_plugin(calib, t):
    """Scalar reference: the plug-in envelope
    max{mean(1{V<=t} l), 1 - mean(1{V>t} u)}, clamped to [0, 1]."""
    below = calib.v <= t
    value = max(calib.lo[below].sum(), calib.n - calib.hi[~below].sum()) / calib.n
    return min(max(value, 0.0), 1.0)


def _envelope_curve(method, calib, delta):
    """Scalar reference: the envelope at every sorted score, repaired by a
    running max, as (sorted scores, curve)."""
    vs = np.sort(calib.v, kind="stable")
    if method == "plugin":
        raw = [envelope_plugin(calib, t) for t in vs]
    elif method == "hoeffding":
        raw = [envelope_hoeffding(calib, t, delta) for t in vs]
    else:
        raw = [envelope_wsr(calib, t, delta) for t in vs]
    return vs, np.maximum.accumulate(raw)


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
        delta = 0.1
        vs, curve = _envelope_curve(method, c, delta)
        level = (1.0 - alpha) - LEVEL_SLACK
        crossed = curve >= level
        want = float(vs[np.argmax(crossed)]) if crossed.any() else math.inf
        assert pac_threshold(c, alpha, delta, method) == want


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
    """Any path, widening or not, with tied scores: resuming each search at
    the previous crossing gives the running max of the per-set thresholds."""
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
    singles = [pac_threshold(c, alpha, delta, method, M=m) for c in path]
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


def _crossing_hits(calib, t, alpha, delta, m):
    """Exact crossing test at each threshold in ``t``, OR over the sides:
    log-wealth at the fixed bet g0 reaches log(2/delta)."""
    thresh = math.log(2.0 / delta)
    hits = []
    for rows, g0 in zip(_summands(calib, t, m), ((1.0 - alpha) / m, (m - alpha) / m)):
        if g0 <= 1.0:
            hits.append(_log_wealth_max(rows, _running_nu(rows, delta), g0) >= thresh)
        else:
            hits.append(np.zeros(len(t), dtype=bool))
    return hits[0] | hits[1]


def _linear_first_crossing(calib, alpha, delta, m, start=0):
    """Reference search: test every sorted candidate from ``start`` on, in
    blocks of 256, and return the first that passes (n when none does)."""
    n = calib.n
    if start >= n:
        return n
    if (m - alpha) / m <= 0.0:
        return start
    for blk in range(start, n, 256):
        hit = _crossing_hits(calib, calib.vs[blk : blk + 256], alpha, delta, m)
        if hit.any():
            return blk + int(np.argmax(hit))
    return n


def _linear_path(path, alpha, delta):
    """Reference path: each linear search resumes at the previous crossing."""
    m = max(_default_m(c) for c in path)
    out, cur = [], 0
    for c in path:
        cur = _linear_first_crossing(c, alpha, delta, m, cur)
        out.append(float(c.vs[cur]) if cur < c.n else math.inf)
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
@given(start=st.floats(0.0, 1.0), inflate=_inflate, **_search_cases)
def test_wsr_search_equals_linear_scan(seed, n, ties, spread, inflate, alpha, delta, start):
    """The branch-and-bound search returns the linear scan's index, from any
    start, with tied scores and M above its default. n exceeds the leaf
    size, so ranges are skipped by the bound."""
    calib = _seeded_calib(seed, n, ties, spread)
    m = _default_m(calib) * inflate
    k = int(start * n)
    assert (_wsr_first_crossing(calib, alpha, delta, m, k)
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
    for rows, g0 in zip(_summands(calib, calib.vs[a : b + 1], m),
                        ((1.0 - alpha) / m, (m - alpha) / m)):
        exact = _log_wealth_max(rows, _running_nu(rows, delta), g0)
        bound = _log_wealth_bound(rows[:1], rows[-1:], np.array([g0]), delta)[0]
        assert bound >= exact.max()


def test_wsr_crossing_predicate_flips_on_campaign_instance():
    """The Gamma = 2.1 calibration set of one sensitivity-campaign
    replication (n = 1000): the crossing test passes at sorted index 958 and
    fails at 959, so a bisection over t could miss the first crossing. The
    search still returns the linear scan's index."""
    d = np.load(FLIP)
    calib = CalibrationSet(d["v"], d["lo"], d["hi"], float(d["u_test"]))
    m, alpha, delta = float(d["m"]), float(d["alpha"]), float(d["delta"])
    assert _crossing_hits(calib, calib.vs[958:960], alpha, delta, m).tolist() == [True, False]
    assert _linear_first_crossing(calib, alpha, delta, m) == 958
    assert _wsr_first_crossing(calib, alpha, delta, m) == 958


def test_wsr_search_evaluates_few_rows(monkeypatch):
    """A search from 0 to a crossing above 0.9 n builds summands for fewer
    than n / 4 candidate rows, bound end rows included."""
    n = 1000
    r = rng(0)
    w = r.uniform(0.3, 1.5, size=n)
    calib = CalibrationSet(r.normal(size=n), w / 2.0, w * 2.0, 3.0)
    m = _default_m(calib)
    rows = []

    def counted(c, t, m):
        rows.append(len(t))
        return _summands(c, t, m)

    monkeypatch.setattr(pac, "_summands", counted)
    k = _wsr_first_crossing(calib, 0.1, 0.05, m)
    monkeypatch.undo()
    assert k == _linear_first_crossing(calib, 0.1, 0.05, m) > 0.9 * n
    assert sum(rows) < n / 4


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
    bounds = BoundPair(
        gamma=1.0,
        lower=lambda x: np.array([1.2, 0.8]),
        upper=lambda x: np.array([0.9, 1.5]),
    )
    np.testing.assert_allclose(pac_gap(np.zeros((2, 1)), w, bounds), 0.1, rtol=1e-12)
    exact = BoundPair(gamma=1.0, lower=lambda x: w, upper=lambda x: w)
    assert pac_gap(np.zeros((2, 1)), w, exact) == 0.0
    with pytest.raises(ValidationError):
        pac_gap(np.zeros((1, 1)), np.array([]), exact)
