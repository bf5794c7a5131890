"""Sensitivity values, survival curves, FWER and FDP summaries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from confshift import (
    GammaGrid,
    Interval,
    NullSpec,
    ScoreFn,
    ValidationError,
    fdp_curve,
    fwer_estimate,
    gamma_values_from_rejections,
    ite_set_one_missing,
    rng,
    survival_curve,
)
from confshift.simulate import scan_gamma_values

GRID = GammaGrid(values=(1.0, 1.2, 1.5, 2.0, 3.0))


# ---------------------------------------------------------------------------
# interval / null primitives
# ---------------------------------------------------------------------------


def test_interval_basics():
    assert Interval(2.0, 1.0).empty


def test_null_spec_membership_and_disjointness():
    le = NullSpec(kind="le", a=0.0)
    ge = NullSpec(kind="ge", a=1.0)
    pt = NullSpec(kind="point", a=0.5)
    box = Interval(0.2, 0.8)
    assert le.disjoint(box)
    assert ge.disjoint(box)
    assert not pt.disjoint(box)
    assert pt.disjoint(Interval(0.6, 0.8))
    # anything is disjoint from an empty interval
    assert le.disjoint(Interval(1.0, -1.0))
    with pytest.raises(ValidationError):
        NullSpec(kind="between")


_END = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((-math.inf, math.inf)))


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(NullSpec.KINDS), a=st.floats(-2.0, 2.0),
       t_obs=st.sampled_from((0, 1)), data=st.data())
def test_elementwise_primitives_match_scalar_calls(kind, a, t_obs, data):
    n = data.draw(st.integers(1, 10))
    lo = data.draw(hnp.arrays(float, n, elements=_END))
    hi = data.draw(hnp.arrays(float, n, elements=_END))
    y = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    null = NullSpec(kind=kind, a=a)
    ite = ite_set_one_missing(t_obs, y, Interval(lo, hi))
    miss = null.disjoint(ite)
    for i in range(n):
        one = ite_set_one_missing(t_obs, float(y[i]), Interval(float(lo[i]), float(hi[i])))
        assert (ite.lo[i], ite.hi[i]) == (one.lo, one.hi)
        assert miss[i] == null.disjoint(one)


def test_ite_one_missing_flips_for_treated():
    cf = Interval(1.0, 3.0)
    treated = ite_set_one_missing(1, 10.0, cf)
    assert (treated.lo, treated.hi) == (7.0, 9.0)
    control = ite_set_one_missing(0, 10.0, cf)
    assert (control.lo, control.hi) == (-9.0, -7.0)
    half_line = ite_set_one_missing(1, 0.0, Interval(-math.inf, 2.0))
    assert (half_line.lo, half_line.hi) == (-2.0, math.inf)
    with pytest.raises(ValidationError):
        ite_set_one_missing(2, 0.0, cf)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_validation_and_default():
    with pytest.raises(ValidationError):
        GammaGrid(values=(1.5, 2.0))
    with pytest.raises(ValidationError):
        GammaGrid(values=(1.0, 1.0))
    with pytest.raises(ValidationError):
        GammaGrid(values=())
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError):
            GammaGrid(values=(1.0, 2.0, bad))
    d = GammaGrid.default()
    assert d.values[0] == 1.0 and d.values[-1] == 25.0
    assert len(d) == 101
    assert all(b > a for a, b in zip(d.values, d.values[1:]))


# ---------------------------------------------------------------------------
# scalar reference scan
# ---------------------------------------------------------------------------


def _misses(null, lo, hi):
    """Scalar reference for NullSpec.disjoint: does [lo, hi] miss C?"""
    if lo > hi:
        return True
    if null.kind == "point":
        return null.a < lo or null.a > hi
    if null.kind == "le":  # C = (-inf, a]
        return lo > null.a
    return hi < null.a  # C = [a, inf)


def gamma_value(grid, null, build):
    """Scalar reference scan: walk the grid while the interval
    ``build(gamma) = (lo, hi)`` misses C. Returns the largest rejecting grid
    value, 1.0 when the scan stops at once, +inf through the grid ceiling."""
    best = 1.0
    for g in grid.values:
        if not _misses(null, *build(g)):
            return best
        best = g
    return math.inf


def test_gamma_value_prefix_semantics():
    null = NullSpec(kind="ge", a=10.0)  # reject while hi < 10
    widths = {1.0: 1.0, 1.2: 2.0, 1.5: 11.0, 2.0: 12.0, 3.0: 13.0}
    assert gamma_value(GRID, null, lambda g: (0.0, widths[g])) == 1.2


def test_gamma_value_collapse_and_censoring():
    null = NullSpec(kind="ge", a=10.0)
    assert gamma_value(GRID, null, lambda g: (0.0, 20.0)) == 1.0  # never disjoint
    assert gamma_value(GRID, null, lambda g: (0.0, 1.0)) == math.inf  # through the ceiling


def test_gamma_value_stops_at_first_acceptance():
    # A later disjoint interval must not resurrect the scan.
    null = NullSpec(kind="ge", a=10.0)
    calls = []

    def build(gamma):
        calls.append(gamma)
        return 0.0, 20.0 if gamma == 1.2 else 1.0

    assert gamma_value(GRID, null, build) == 1.0
    assert calls == [1.0, 1.2]  # scan ended at the first non-rejection


def test_gamma_values_from_rejections_matches_scalar_scan():
    r = rng(51)
    for _ in range(50):
        n = int(r.integers(1, 30))
        reject = r.uniform(size=(n, len(GRID))) < 0.5
        got = gamma_values_from_rejections(reject, GRID)
        for i in range(n):
            row = reject[i]
            run = 0
            while run < len(GRID) and row[run]:
                run += 1
            if run == 0:
                want = 1.0
            elif run == len(GRID):
                want = math.inf
            else:
                want = GRID.values[run - 1]
            assert got[i] == want
    with pytest.raises(ValidationError):
        gamma_values_from_rejections(np.zeros(4, dtype=bool), GRID)


class _ShiftQuantiles:
    """q(x, beta) = x1 + beta - 1/2: monotone in beta and row by row exact."""

    def quantile(self, x, beta):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        b = np.asarray(beta, dtype=float)
        return x[:, 0] + (b - 0.5) if b.ndim == 0 else x[:, :1] + (b - 0.5)


_THR = st.one_of(st.floats(-1.0, 2.0), st.just(math.inf))


def _cf_interval(fn, x_row, thr):
    """Scalar reference for ScoreFn.interval, per score kind."""
    def q(beta):
        return float(fn.model.quantile(x_row, beta)[0])
    if fn.kind == "cqr":
        return q(fn.alpha / 2.0) - thr, q(1.0 - fn.alpha / 2.0) + thr
    if fn.kind == "cqr_one_sided":
        return -math.inf, q(1.0 - fn.alpha) + thr
    return q(0.5) - thr, q(0.5) + thr


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(ScoreFn.KINDS), null_kind=st.sampled_from(NullSpec.KINDS),
       null_a=st.floats(-2.0, 2.0), t_obs=st.sampled_from((0, 1)),
       upper=st.sets(st.floats(1.01, 10.0), max_size=5), data=st.data())
def test_scan_matches_scalar_gamma_value_oracle(kind, null_kind, null_a, t_obs, upper, data):
    grid = GammaGrid(values=tuple(sorted({1.0, *upper})))
    n = data.draw(st.integers(1, 8))
    x = data.draw(hnp.arrays(float, (n, 1), elements=st.floats(-2.0, 2.0)))
    y = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    # Unsorted along the grid, as threshold_path may give: the scan itself
    # stops at the first non-rejection.
    thr = data.draw(hnp.arrays(float, (len(grid), n), elements=_THR))
    fn = ScoreFn(kind=kind, model=_ShiftQuantiles(), alpha=0.2)
    null = NullSpec(kind=null_kind, a=null_a)
    got = scan_gamma_values(fn, fn.model.quantile(x, fn.betas), t_obs, y, thr, grid, null)

    for i in range(n):
        def build(gamma, i=i):
            lo, hi = _cf_interval(fn, x[i:i + 1], float(thr[grid.values.index(gamma), i]))
            yi = float(y[i])
            return (yi - hi, yi - lo) if t_obs == 1 else (lo - yi, hi - yi)

        assert got[i] == gamma_value(grid, null, build)


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(ScoreFn.KINDS), null_kind=st.sampled_from(NullSpec.KINDS),
       null_a=st.floats(-2.0, 2.0), t_obs=st.sampled_from((0, 1)),
       upper=st.sets(st.floats(1.01, 10.0), max_size=5), data=st.data())
def test_scan_ignores_a_running_max_of_the_thresholds(kind, null_kind, null_a, t_obs,
                                                      upper, data):
    # Disjointness from C only weakens as a threshold grows (negative ones
    # may empty the interval), so repairing the path changes no value.
    grid = GammaGrid(values=tuple(sorted({1.0, *upper})))
    n = data.draw(st.integers(1, 8))
    x = data.draw(hnp.arrays(float, (n, 1), elements=st.floats(-2.0, 2.0)))
    y = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    raw = data.draw(hnp.arrays(float, (len(grid), n), elements=_THR))
    fn = ScoreFn(kind=kind, model=_ShiftQuantiles(), alpha=0.2)
    null = NullSpec(kind=null_kind, a=null_a)
    q = fn.model.quantile(x, fn.betas)
    np.testing.assert_array_equal(
        scan_gamma_values(fn, q, t_obs, y, raw, grid, null),
        scan_gamma_values(fn, q, t_obs, y, np.maximum.accumulate(raw, axis=0), grid, null))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(ScoreFn.KINDS), null_kind=st.sampled_from(NullSpec.KINDS),
       t_obs=st.sampled_from((0, 1)), data=st.data())
def test_stacked_scan_equals_separate_scans(kind, null_kind, t_obs, data):
    grid = GRID
    n = data.draw(st.integers(1, 6))
    paths = data.draw(st.integers(1, 3))
    x = data.draw(hnp.arrays(float, (n, 1), elements=st.floats(-2.0, 2.0)))
    y = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    raw = data.draw(hnp.arrays(float, (paths, len(grid), n), elements=_THR))
    thr = np.maximum.accumulate(raw, axis=1)
    fn = ScoreFn(kind=kind, model=_ShiftQuantiles(), alpha=0.2)
    null = NullSpec(kind=null_kind, a=0.0)
    q = fn.model.quantile(x, fn.betas)
    stacked = scan_gamma_values(fn, q, t_obs, y, thr, grid, null)
    assert stacked.shape == (paths, n)
    for j in range(paths):
        np.testing.assert_array_equal(
            stacked[j], scan_gamma_values(fn, q, t_obs, y, thr[j], grid, null))


# ---------------------------------------------------------------------------
# curves and error rates
# ---------------------------------------------------------------------------


def _gv(x):
    """A sensitivity value as the summaries take it: a plain float."""
    return float(x)


def test_survival_curve_hand_values():
    values = [_gv(1.0), _gv(1.2), _gv(2.0), _gv(math.inf)]
    s = survival_curve(values, GRID)
    np.testing.assert_allclose(s, [0.75, 0.5, 0.5, 0.25, 0.25])
    with pytest.raises(ValidationError):
        survival_curve([], GRID)


def test_survival_monotone_nonincreasing():
    r = rng(52)
    vals = [_gv(float(g)) for g in r.choice([1.0, 1.2, 1.5, 2.0, 3.0, math.inf], size=40)]
    s = survival_curve(vals, GRID)
    assert (np.diff(s) <= 1e-12).all()


def test_fwer_estimate_strict_exceedance():
    values = [_gv(1.5), _gv(2.0), _gv(1.0), _gv(math.inf)]
    nulls = [True, True, False, True]
    # strict: the 1.5 value does not exceed 1.5; 2.0 and inf do
    assert fwer_estimate(values, nulls, gamma_star=1.5) == 0.5
    assert fwer_estimate(values, [False] * 4, gamma_star=1.5) == 0.0
    with pytest.raises(ValidationError):
        fwer_estimate(values, [True], 1.5)


def test_fdp_curve_hand_values_and_empty_convention():
    values = [_gv(2.0), _gv(2.0), _gv(1.0)]
    ites = [0.0, 3.0, -1.0]  # first is a true null under C = (-inf, 0]
    f = fdp_curve(values, ites, GRID)
    np.testing.assert_allclose(f, [0.5, 0.5, 0.5, 0.0, 0.0])
    # no discoveries anywhere: all zeros, not NaN
    none = [_gv(1.0)] * 3
    np.testing.assert_allclose(fdp_curve(none, ites, GRID), np.zeros(len(GRID)))
    with pytest.raises(ValidationError):
        fdp_curve(values, [0.0], GRID)


def test_fdp_zero_when_all_effects_positive():
    r = rng(53)
    values = [_gv(float(g)) for g in r.choice([1.0, 1.5, math.inf], size=30)]
    ites = r.uniform(0.5, 2.0, size=30)
    assert fdp_curve(values, ites, GRID).max() == 0.0
