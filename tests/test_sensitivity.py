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
    gamma_value,
    gamma_values_from_rejections,
    ite_set_both_missing,
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
    assert Interval(0.0, 1.0).contains(0.5)
    assert not Interval(0.0, 1.0).contains(1.5)
    assert Interval(2.0, 1.0).empty
    assert Interval(-math.inf, math.inf).contains(1e12)


def test_null_spec_membership_and_disjointness():
    le = NullSpec(kind="le", a=0.0)
    ge = NullSpec(kind="ge", a=1.0)
    pt = NullSpec(kind="point", a=0.5)
    assert le.contains(0.0) and not le.contains(0.1)
    assert ge.contains(1.0) and not ge.contains(0.9)
    assert pt.contains(0.5) and not pt.contains(0.50001)
    box = Interval(0.2, 0.8)
    assert le.disjoint(box)
    assert ge.disjoint(box)
    assert not pt.disjoint(box)
    assert pt.disjoint(Interval(0.6, 0.8))
    # anything is disjoint from an empty interval
    assert le.disjoint(Interval(1.0, -1.0))
    with pytest.raises(ValidationError):
        NullSpec(kind="between")


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


def test_ite_both_missing_difference_set():
    got = ite_set_both_missing(Interval(1.0, 2.0), Interval(-1.0, 4.0))
    assert (got.lo, got.hi) == (-3.0, 3.0)


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
    d = GammaGrid.default()
    assert d.values[0] == 1.0 and d.max == 25.0
    assert len(d) == 101
    assert all(b > a for a, b in zip(d.values, d.values[1:]))


# ---------------------------------------------------------------------------
# gamma_value scan
# ---------------------------------------------------------------------------


def _builder_from_widths(widths):
    """Intervals [0, widths[gamma]] looked up per grid value."""

    def build(unit, gamma):
        return Interval(0.0, widths[gamma])

    return build


def test_gamma_value_prefix_semantics():
    null = NullSpec(kind="ge", a=10.0)  # reject while hi < 10
    widths = {1.0: 1.0, 1.2: 2.0, 1.5: 11.0, 2.0: 12.0, 3.0: 13.0}
    gv = gamma_value(None, GRID, null, _builder_from_widths(widths))
    assert gv.gamma == 1.2 and not gv.censored


def test_gamma_value_collapse_and_censoring():
    null = NullSpec(kind="ge", a=10.0)
    nothing = {g: 20.0 for g in GRID.values}  # never disjoint
    gv = gamma_value(None, GRID, null, _builder_from_widths(nothing))
    assert gv.gamma == 1.0 and not gv.censored
    everything = {g: 1.0 for g in GRID.values}  # rejects through the ceiling
    gv = gamma_value(None, GRID, null, _builder_from_widths(everything))
    assert gv.gamma == math.inf and gv.censored
    assert gv.exceeds(1e9)


def test_gamma_value_rejects_nestedness_violation():
    null = NullSpec(kind="ge", a=10.0)
    shrinking = {1.0: 2.0, 1.2: 1.0, 1.5: 1.0, 2.0: 1.0, 3.0: 1.0}
    with pytest.raises(ValidationError, match="nestedness"):
        gamma_value(None, GRID, null, _builder_from_widths(shrinking))


def test_gamma_value_stops_at_first_acceptance():
    # A later disjoint interval must not resurrect the scan.
    null = NullSpec(kind="ge", a=10.0)
    calls = []

    def build(unit, gamma):
        calls.append(gamma)
        hi = 20.0 if gamma == 1.2 else 1.0
        return Interval(0.0, hi)

    gv = gamma_value(None, GRID, null, build)
    assert gv.gamma == 1.0
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


@settings(max_examples=300, deadline=None)
@given(kind=st.sampled_from(ScoreFn.KINDS), null_kind=st.sampled_from(NullSpec.KINDS),
       null_a=st.floats(-2.0, 2.0), t_obs=st.sampled_from((0, 1)),
       upper=st.sets(st.floats(1.01, 10.0), max_size=5), data=st.data())
def test_scan_matches_scalar_gamma_value_oracle(kind, null_kind, null_a, t_obs, upper, data):
    grid = GammaGrid(values=tuple(sorted({1.0, *upper})))
    n = data.draw(st.integers(1, 8))
    x = data.draw(hnp.arrays(float, (n, 1), elements=st.floats(-2.0, 2.0)))
    y = data.draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    raw = data.draw(hnp.arrays(float, (len(grid), n), elements=_THR))
    thr = np.maximum.accumulate(raw, axis=0)  # nested along the grid, as threshold_path gives
    fn = ScoreFn(kind=kind, model=_ShiftQuantiles(), alpha=0.2)
    null = NullSpec(kind=null_kind, a=null_a)
    got = scan_gamma_values(fn, x, t_obs, y, thr, grid, null)

    for i in range(n):
        def build(unit, gamma, i=i):
            lo, hi = fn.interval(x[i:i + 1], thr[grid.values.index(gamma), i])
            return ite_set_one_missing(t_obs, float(y[i]), Interval(float(lo[0]), float(hi[0])))

        assert got[i] == gamma_value(i, grid, null, build).gamma


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
    rate, any_null = fwer_estimate(values, nulls, gamma_star=1.5)
    # strict: the 1.5 value does not exceed 1.5; 2.0 and inf do
    assert any_null and rate == 0.5
    rate, any_null = fwer_estimate(values, [False] * 4, gamma_star=1.5)
    assert rate == 0.0 and not any_null
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
