"""Propensity fitting and likelihood-ratio bound functions."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from confshift import nuisance
from confshift import (
    BoundPair,
    PropensityModel,
    TargetSpec,
    ValidationError,
    bound_functions,
    fit_propensity,
    ratio_bounds,
    rng,
)

ALL_CELLS = [(a, p) for a in (0, 1) for p in ("ate", "att", "atc")]


# ---------------------------------------------------------------------------
# propensity
# ---------------------------------------------------------------------------


def test_fit_recovers_logistic_coefficients():
    r = rng(0)
    n = 20000
    x = r.normal(size=(n, 3))
    beta = np.array([0.8, -0.5, 0.2])
    e = expit(0.3 + x @ beta)
    t = (r.uniform(size=n) < e).astype(int)
    model = fit_propensity(x, t)
    assert model.converged
    np.testing.assert_allclose(model.coef, beta, atol=0.08)
    np.testing.assert_allclose(model.intercept, 0.3, atol=0.08)


def test_fit_balanced_intercept_only():
    # No covariate signal: e(x) should come out near the treated fraction.
    r = rng(1)
    x = r.normal(size=(5000, 2))
    t = (r.uniform(size=5000) < 0.3).astype(int)
    model = fit_propensity(x, t)
    np.testing.assert_allclose(model.predict(x).mean(), t.mean(), atol=0.02)


def test_fit_separable_data_stops_and_clips(monkeypatch):
    x = np.linspace(-1, 1, 40)[:, None]
    t = (x[:, 0] > 0).astype(int)
    with monkeypatch.context() as m:
        m.setattr(nuisance, "_MAX_ITER", 10)
        capped = fit_propensity(x, t)
    assert not capped.converged and capped.n_iter == 10
    # With the default cap the saturated gradient stalls instead; predictions
    # stay clipped and finite either way.
    model = fit_propensity(x, t)
    e = model.predict(x)
    assert np.isfinite(model.coef).all()
    assert e.min() >= 0.01 and e.max() <= 0.99


def test_fit_validation():
    with pytest.raises(ValidationError):
        fit_propensity(np.zeros((3, 1)), [1, 1, 1])
    with pytest.raises(ValidationError):
        fit_propensity(np.zeros((3, 1)), [0, 1])


def test_predict_clipping_bounds():
    model = PropensityModel(coef=np.array([50.0]), intercept=0.0)
    e = model.predict(np.array([[-1.0], [0.0], [1.0]]))
    assert e.tolist() == [0.01, 0.5, 0.99]


# ---------------------------------------------------------------------------
# TargetSpec
# ---------------------------------------------------------------------------


def test_target_spec_validation():
    TargetSpec(arm=1, population="ate")
    with pytest.raises(ValidationError):
        TargetSpec(arm=2, population="ate")
    for population in ("treated", "general"):
        with pytest.raises(ValidationError):
            TargetSpec(arm=1, population=population)


# ---------------------------------------------------------------------------
# bound functions
# ---------------------------------------------------------------------------


class _FixedPropensity:
    def __init__(self, e):
        self.e = np.asarray(e, dtype=float)

    def predict(self, x):
        return np.broadcast_to(self.e, (np.atleast_2d(x).shape[0],))


def _hand_bounds(arm, pop, e, gamma, p1):
    r = e / (1.0 - e)
    p0 = 1.0 - p1
    table = {
        (1, "ate"): (p1 * (1 + 1 / (gamma * r)), p1 * (1 + gamma / r)),
        (1, "att"): (1.0, 1.0),
        (1, "atc"): ((p1 / p0) / (gamma * r), (p1 / p0) * gamma / r),
        (0, "ate"): (p0 * (1 + r / gamma), p0 * (1 + gamma * r)),
        (0, "att"): ((p0 / p1) * r / gamma, (p0 / p1) * gamma * r),
        (0, "atc"): (1.0, 1.0),
    }
    return table[(arm, pop)]


@pytest.mark.parametrize("arm,pop", ALL_CELLS)
def test_bound_closed_forms(arm, pop):
    e, gamma, p1 = 0.35, 1.8, 0.42
    pair = bound_functions(
        TargetSpec(arm=arm, population=pop), gamma, _FixedPropensity(e), p1
    )
    lo, hi = pair(np.zeros((4, 2)))
    want_lo, want_hi = _hand_bounds(arm, pop, e, gamma, p1)
    np.testing.assert_allclose(lo, want_lo, rtol=1e-12)
    np.testing.assert_allclose(hi, want_hi, rtol=1e-12)


@pytest.mark.parametrize("arm,pop", ALL_CELLS)
def test_bounds_collapse_at_gamma_one(arm, pop):
    pair = bound_functions(
        TargetSpec(arm=arm, population=pop), 1.0, _FixedPropensity(0.27), 0.4
    )
    lo, hi = pair(np.zeros((3, 1)))
    np.testing.assert_allclose(lo, hi, rtol=1e-12)


@pytest.mark.parametrize("arm,pop", ALL_CELLS)
def test_bounds_ordered_and_widening_in_gamma(arm, pop):
    r = rng(5)
    x = r.normal(size=(30, 2))
    prop = PropensityModel(coef=np.array([0.7, -0.3]), intercept=0.1)
    prev_lo = prev_hi = None
    for gamma in (1.0, 1.5, 2.5, 6.0):
        lo, hi = bound_functions(
            TargetSpec(arm=arm, population=pop), gamma, prop, 0.45
        )(x)
        assert (lo > 0).all() and (lo <= hi + 1e-12).all()
        if prev_lo is not None:
            assert (lo <= prev_lo + 1e-12).all()
            assert (hi >= prev_hi - 1e-12).all()
        prev_lo, prev_hi = lo, hi


class _FirstColumnPropensity:
    """e(x) read off the first covariate, so a test picks propensities directly."""

    def predict(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float))[:, 0]


def _closure_bounds(arm, pop, gamma, propensity, p1):
    """The per-strength bound closures ``ratio_bounds`` replaced, kept as its oracle."""
    p0 = 1.0 - p1

    def odds(x):
        e = np.asarray(propensity.predict(x), dtype=float)
        return e / (1.0 - e)

    if arm == 1:
        if pop == "att":
            lower = upper = lambda x: np.ones(np.atleast_2d(x).shape[0])
        elif pop == "atc":
            lower = lambda x: (p1 / p0) / (gamma * odds(x))
            upper = lambda x: (p1 / p0) * gamma / odds(x)
        else:
            lower = lambda x: p1 * (1.0 + 1.0 / (gamma * odds(x)))
            upper = lambda x: p1 * (1.0 + gamma / odds(x))
    else:
        if pop == "atc":
            lower = upper = lambda x: np.ones(np.atleast_2d(x).shape[0])
        elif pop == "att":
            lower = lambda x: (p0 / p1) * odds(x) / gamma
            upper = lambda x: (p0 / p1) * gamma * odds(x)
        else:
            lower = lambda x: p0 * (1.0 + odds(x) / gamma)
            upper = lambda x: p0 * (1.0 + gamma * odds(x))
    return lower, upper


_PROPENSITY = st.one_of(st.sampled_from((0.01, 0.99)), st.floats(0.01, 0.99))


@settings(max_examples=300, deadline=None)
@given(cell=st.sampled_from(ALL_CELLS),
       gammas=st.lists(st.one_of(st.just(1.0), st.floats(1.0, 50.0)), min_size=1, max_size=6),
       p1=st.floats(0.01, 0.99), e=st.lists(_PROPENSITY, min_size=1, max_size=20))
def test_ratio_bounds_match_the_per_strength_closures_bit_for_bit(cell, gammas, p1, e):
    target, prop = TargetSpec(*cell), _FirstColumnPropensity()
    x = np.column_stack([e, np.zeros(len(e))])
    lo, hi = ratio_bounds(target, gammas, prop, p1, x)
    assert lo.shape == hi.shape == (len(gammas), len(e))
    for i, gamma in enumerate(gammas):
        lower, upper = _closure_bounds(*cell, gamma, prop, p1)
        np.testing.assert_array_equal(lo[i], lower(x))
        np.testing.assert_array_equal(hi[i], upper(x))
        pair_lo, pair_hi = bound_functions(target, gamma, prop, p1)(x)
        np.testing.assert_array_equal(pair_lo, lo[i])
        np.testing.assert_array_equal(pair_hi, hi[i])


@pytest.mark.parametrize("x,t", [
    # Two equal columns at 1e150: the ridge is lost and the solve is singular.
    (np.repeat(np.array([0.0, 1.0, 1.0, 0.0, 1.0, 0.0])[:, None] * 1e150, 2, axis=1),
     [0, 1, 0, 1, 1, 0]),
    # A Newton step whose linear predictor overflows.
    ([[1e149, 9e149], [9e149, 3e149], [8e149, 2e149], [0.0, 4e149], [8e149, 3e149],
      [2e149, 4e149]], [1, 0, 0, 1, 0, 0]),
])
def test_fit_stops_at_the_last_finite_step(x, t):
    """Covariates at extreme scales: a singular or overflowing Newton step
    ends the fit, unconverged, at finite coefficients, with no warning."""
    model = fit_propensity(x, t)
    assert not model.converged
    assert np.isfinite(model.coef).all() and math.isfinite(model.intercept)
    assert np.isfinite(model.predict(x)).all()


@pytest.mark.parametrize("cell,e,gammas", [
    ((1, "ate"), 0.3, (1.0, 1e308)),   # each upper bound finite, their sum not
    ((1, "ate"), 0.3, (1.7e308,)),     # an upper bound overflows
    ((1, "atc"), 0.9, (1.0, 1e308)),   # gamma * odds overflows: a lower bound is 0
])
def test_ratio_bounds_refuse_a_strength_out_of_float_range(cell, e, gammas):
    x = np.zeros((4, 1))
    with pytest.raises(ValidationError, match=re.escape(f"strength {gammas[-1]!r} overflows the "
                                                        "ratio envelope of 4 units")):
        ratio_bounds(TargetSpec(*cell), gammas, _FixedPropensity(e), 0.4, x)
    lo, hi = ratio_bounds(TargetSpec(*cell), (1.0, 1e306), _FixedPropensity(e), 0.4, x)
    assert (lo > 0).all() and np.isfinite(hi.sum(axis=1)).all()


def test_ratio_bounds_call_the_propensity_once_per_array():
    calls = []

    class Counting(_FirstColumnPropensity):
        def predict(self, x):
            calls.append(1)
            return super().predict(x)

    ratio_bounds(TargetSpec(1, "ate"), np.linspace(1.0, 26.0, 101), Counting(), 0.4,
                 np.full((5, 1), 0.3))
    assert len(calls) == 1


def test_bound_functions_validation():
    spec = TargetSpec(arm=1, population="ate")
    with pytest.raises(ValidationError):
        bound_functions(spec, 0.9, _FixedPropensity(0.3), 0.4)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            bound_functions(spec, gamma, _FixedPropensity(0.3), 0.4)
    with pytest.raises(ValidationError):
        bound_functions(spec, 1.5, _FixedPropensity(0.3), 0.0)
    for gammas in ((1.0, 0.9), (1.0, float("nan")), (float("inf"),)):
        with pytest.raises(ValidationError, match="gamma"):
            ratio_bounds(spec, gammas, _FixedPropensity(0.3), 0.4, np.zeros((2, 1)))
    with pytest.raises(ValidationError, match="p1"):
        ratio_bounds(spec, (1.5,), _FixedPropensity(0.3), 1.0, np.zeros((2, 1)))


def test_bound_pair_call_coerces_to_float_arrays():
    pair = BoundPair(
        gamma=1.0,
        lower=lambda x: [1, 2],
        upper=lambda x: [3, 4],
    )
    lo, hi = pair(np.zeros((2, 1)))
    assert lo.dtype == float and hi.dtype == float
