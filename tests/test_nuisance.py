"""Propensity fitting and likelihood-ratio bound functions."""

import numpy as np
import pytest
from scipy.special import expit

from confshift import nuisance
from confshift import (
    BoundPair,
    PropensityModel,
    TargetSpec,
    ValidationError,
    bound_functions,
    fit_propensity,
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
    TargetSpec(arm=0, population="general", covariate_shift=lambda x: np.ones(len(x)))
    with pytest.raises(ValidationError):
        TargetSpec(arm=2, population="ate")
    with pytest.raises(ValidationError):
        TargetSpec(arm=1, population="treated")
    with pytest.raises(ValidationError):
        TargetSpec(arm=1, population="general")  # shift missing
    with pytest.raises(ValidationError):
        TargetSpec(arm=1, population="ate", covariate_shift=lambda x: x)


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


def test_general_population_scales_ate_bounds():
    prop = _FixedPropensity(0.35)
    shift = lambda x: 2.0 * np.ones(np.atleast_2d(x).shape[0])
    base = bound_functions(TargetSpec(arm=1, population="ate"), 1.6, prop, 0.42)
    gen = bound_functions(
        TargetSpec(arm=1, population="general", covariate_shift=shift),
        1.6,
        prop,
        0.42,
    )
    x = np.zeros((3, 1))
    np.testing.assert_allclose(gen(x)[0], 2.0 * base(x)[0], rtol=1e-12)
    np.testing.assert_allclose(gen(x)[1], 2.0 * base(x)[1], rtol=1e-12)
    bad = bound_functions(
        TargetSpec(
            arm=1,
            population="general",
            covariate_shift=lambda x: -np.ones(np.atleast_2d(x).shape[0]),
        ),
        1.6,
        prop,
        0.42,
    )
    with pytest.raises(ValidationError):
        bad(x)


def test_bound_functions_validation():
    spec = TargetSpec(arm=1, population="ate")
    with pytest.raises(ValidationError):
        bound_functions(spec, 0.9, _FixedPropensity(0.3), 0.4)
    for gamma in (float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            bound_functions(spec, gamma, _FixedPropensity(0.3), 0.4)
    with pytest.raises(ValidationError):
        bound_functions(spec, 1.5, _FixedPropensity(0.3), 0.0)


def test_bound_pair_call_coerces_to_float_arrays():
    pair = BoundPair(
        gamma=1.0,
        lower=lambda x: [1, 2],
        upper=lambda x: [3, 4],
    )
    lo, hi = pair(np.zeros((2, 1)))
    assert lo.dtype == float and hi.dtype == float
