"""Confounded data generator identities and the experiment runners."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr

from confshift import (
    SimConfig,
    TargetSpec,
    ValidationError,
    beta_vector,
    bound_functions,
    gen_semisynthetic,
    gen_superpop,
    oracle_bound_pair,
    propensity_threshold,
    rng,
    robust_threshold_many,
    run_coverage_experiment,
    run_sensitivity_experiment,
    true_likelihood_ratio,
    true_treated_fraction,
)
from confshift import simulate
from confshift.simulate import _sigma, _two_regime, _worker_count, threshold_path

CELLS = [(a, pop) for a in (0, 1) for pop in ("ate", "att", "atc")]


def test_beta_vector_head_and_padding():
    np.testing.assert_array_equal(beta_vector(2), [-0.531, 0.126])
    np.testing.assert_array_equal(
        beta_vector(6), [-0.531, 0.126, -0.312, 0.018, 0.0, 0.0]
    )
    with pytest.raises(ValidationError):
        beta_vector(0)


def test_two_regime_propensity_averages_to_marginal():
    """a(x) P(|U|>t) + b(x) P(|U|<=t) must reproduce e(x) exactly."""
    r = rng(61)
    x = r.uniform(size=(50, 4))
    e = expit(x @ beta_vector(4))
    sig = _sigma(x)
    for gamma in (1.0, 1.5, 2.0, 4.0):
        low, high, cut = _two_regime(e, gamma, sig)
        assert (low <= e + 1e-15).all() and (e <= high + 1e-15).all()
        np.testing.assert_array_equal(cut, propensity_threshold(x, gamma))
        p_inside = 2.0 * ndtr(cut / sig) - 1.0
        mean_exu = low * (1.0 - p_inside) + high * p_inside
        np.testing.assert_allclose(mean_exu, e, rtol=0, atol=1e-12)


def test_gen_superpop_deterministic_and_consistent():
    d1 = gen_superpop(200, 4, 1.5, rng(7), "fixed", 0.3)
    d2 = gen_superpop(200, 4, 1.5, rng(7), "fixed", 0.3)
    for f in ("x", "u", "t", "y0", "y1", "e_x", "e_xu"):
        np.testing.assert_array_equal(getattr(d1, f), getattr(d2, f))
    np.testing.assert_array_equal(d1.y_obs, np.where(d1.t == 1, d1.y1, d1.y0))
    np.testing.assert_array_equal(d1.outcome(0), d1.y0)
    # latent propensity takes exactly the two regime values
    low, high, _ = _two_regime(d1.e_x, 1.5, 1.0)
    on_regime = np.isclose(d1.e_xu, low) | np.isclose(d1.e_xu, high)
    assert on_regime.all()
    np.testing.assert_allclose(d1.y1 - d1.y0, 0.3, rtol=0, atol=1e-15)


def test_gen_superpop_random_effect_and_validation():
    d = gen_superpop(100, 4, 1.2, rng(8), "random", 0.5)
    np.testing.assert_allclose(d.y1 - d.y0, 0.5 * d.u, rtol=1e-12)
    with pytest.raises(ValidationError):
        gen_superpop(10, 4, 0.9, rng(0))
    with pytest.raises(ValidationError):
        gen_superpop(10, 4, 1.1, rng(0), effect_kind="quadratic")


def test_treated_fraction_quadrature():
    np.testing.assert_allclose(
        true_treated_fraction(4), 0.4141867647608462, rtol=0, atol=1e-12
    )
    # padded dimensions carry zero coefficients: same integral
    assert true_treated_fraction(9) == true_treated_fraction(4)
    # Monte Carlo cross-check
    d = gen_superpop(200_000, 4, 1.0, rng(62))
    se = float(d.e_x.std()) / np.sqrt(d.n)
    assert abs(d.e_x.mean() - true_treated_fraction(4)) < 4 * se
    assert abs(d.t.mean() - true_treated_fraction(4)) < 0.006


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the sensitivity campaign calibrates on controls (arm 0) "
                          "but builds its envelope for cfg.target(), arm 1")
def test_sensitivity_campaign_envelope_covers_control_ratios():
    gamma = 1.6
    cfg = SimConfig(n_train=50, n_calib=50, gamma_true=gamma)
    d = gen_superpop(20000, cfg.p, gamma, rng(71))
    controls = d.take(np.nonzero(d.t == 0)[0])
    # Controls calibrate Y(0) for the whole population: target arm 0, ate.
    w = true_likelihood_ratio(controls, TargetSpec(arm=0, population="ate"))
    lo, hi = simulate._bound_family(cfg, controls)(gamma)(controls.x)
    assert ((w >= lo - 1e-10) & (w <= hi + 1e-10)).all()


@pytest.mark.parametrize("arm,pop", CELLS)
def test_true_ratio_respects_oracle_envelope(arm, pop):
    gamma = 1.7
    d = gen_superpop(400, 4, gamma, rng(63))
    target = TargetSpec(arm=arm, population=pop)
    w = true_likelihood_ratio(d, target)
    lo, hi = oracle_bound_pair(target, gamma, 4)(d.x)
    assert (w >= lo - 1e-10).all()
    assert (w <= hi + 1e-10).all()
    if (arm, pop) in ((1, "att"), (0, "atc")):
        np.testing.assert_array_equal(w, np.ones(d.n))


def test_true_ratio_is_adversarially_tight():
    # Main marginal target: w sits exactly on an envelope endpoint everywhere.
    gamma = 2.0
    d = gen_superpop(500, 4, gamma, rng(64))
    target = TargetSpec(arm=1, population="ate")
    w = true_likelihood_ratio(d, target)
    lo, hi = oracle_bound_pair(target, gamma, 4)(d.x)
    at_edge = np.isclose(w, lo, rtol=1e-10) | np.isclose(w, hi, rtol=1e-10)
    assert at_edge.all()
    assert not np.isclose(w, lo, rtol=1e-10).all()  # both edges are visited
    assert not np.isclose(w, hi, rtol=1e-10).all()


def test_oracle_bounds_collapse_without_confounding():
    d = gen_superpop(300, 4, 1.0, rng(65))
    target = TargetSpec(arm=1, population="ate")
    lo, hi = oracle_bound_pair(target, 1.0, 4)(d.x)
    w = true_likelihood_ratio(d, target)
    np.testing.assert_allclose(lo, w, rtol=1e-12)
    np.testing.assert_allclose(hi, w, rtol=1e-12)


def test_ratio_unit_mean_over_training_arm():
    gamma = 1.6
    d = gen_superpop(120_000, 4, gamma, rng(66))
    treated = d.take(np.nonzero(d.t == 1)[0])
    w = true_likelihood_ratio(treated, TargetSpec(arm=1, population="ate"))
    assert abs(w.mean() - 1.0) < 0.02


# ---------------------------------------------------------------------------
# SimConfig / runners
# ---------------------------------------------------------------------------


def test_sim_config_validation():
    SimConfig(n_train=10, n_calib=10)
    with pytest.raises(ValidationError):
        SimConfig(n_train=0, n_calib=10)
    with pytest.raises(ValidationError):
        SimConfig(n_train=10, n_calib=10, procedure="alg3")
    with pytest.raises(ValidationError):
        SimConfig(n_train=10, n_calib=10, bounds="guessed")
    with pytest.raises(ValidationError):
        SimConfig(n_train=10, n_calib=10, alphas=(0.2, 1.2))
    cfg = SimConfig(n_train=10, n_calib=10, arm=0, population="att")
    assert cfg.target() == TargetSpec(arm=0, population="att")


@pytest.mark.parametrize("field", ["gamma_true", "gamma_bounds"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.5])
def test_sim_config_rejects_nonfinite_strengths(field, value):
    # A NaN strength used to pass every check and left the arm-unit pool
    # loop drawing forever.
    with pytest.raises(ValidationError, match=field):
        SimConfig(n_train=10, n_calib=10, **{field: value})


def _tiny_cfg(**kw):
    base = dict(
        n_train=60,
        n_calib=50,
        n_test=20,
        gamma_true=1.5,
        alphas=(0.2, 0.5),
        n_reps=3,
        seed=11,
    )
    base.update(kw)
    return SimConfig(**base)


def test_coverage_experiment_report_shape_and_determinism():
    cfg = _tiny_cfg()
    rep1 = run_coverage_experiment(cfg)
    rep2 = run_coverage_experiment(cfg)
    assert rep1 == rep2
    assert rep1["n_reps"] == 3
    for key in ("0.2", "0.5"):
        entry = rep1["per_alpha"][key]
        assert len(entry["coverage_per_rep"]) == 3
        assert all(0.0 <= c <= 1.0 for c in entry["coverage_per_rep"])
        assert 0.0 <= entry["coverage_q05"] <= entry["coverage_mean"] <= 1.0


def test_coverage_experiment_oracle_gaps_are_zero():
    # Exact envelope: every misspecification certificate vanishes.
    cfg = _tiny_cfg(n_eval_gap=40, n_reps=2)
    rep = run_coverage_experiment(cfg)
    entry = rep["per_alpha"]["0.2"]
    # the true ratio is computed through a different algebraic route than
    # the bound functions, so allow float dust
    assert entry["marginal_gap_max"] <= 1e-12
    assert entry["pac_gap_max"] <= 1e-12
    assert entry["lower_bound_l1_max"] <= 1e-12


def test_coverage_experiment_alg2_runs():
    cfg = _tiny_cfg(procedure="alg2", envelope="plugin", n_reps=2, alphas=(0.3,))
    rep = run_coverage_experiment(cfg)
    assert set(rep["per_alpha"]) == {"0.3"}


def test_sensitivity_experiment_report_shape():
    cfg = _tiny_cfg(
        effect_a=1.0,
        effect_kind="random",
        grid=(1.0, 1.2, 1.5),
        n_reps=3,
        alphas=(0.2,),
        envelope="plugin",
    )
    rep1 = run_sensitivity_experiment(cfg)
    rep2 = run_sensitivity_experiment(cfg)
    assert rep1 == rep2
    assert rep1["gamma_grid"] == [1.0, 1.2, 1.5]
    for key in ("alg1", "alg2"):
        entry = rep1[key]
        assert len(entry["fwer_per_rep"]) == 3
        assert all(0.0 <= v <= 1.0 for v in entry["fwer_per_rep"])
        assert 0.0 <= entry["fwer_q95"] <= 1.0
        surv = entry["survival_mean"]
        assert all(0.0 <= s <= 1.0 for s in surv)
        assert all(a >= b - 1e-12 for a, b in zip(surv, surv[1:]))
        assert all(0.0 <= v <= 1.0 for v in entry["fdp_max"])


def test_sensitivity_survival_orders_with_effect_size():
    # Bigger uplift is easier to certify: survival dominates pointwise-ish;
    # compare the areas to keep the check stable at small n.
    grid = (1.0, 1.2, 1.5, 2.0)
    areas = []
    for a in (0.0, 2.0):
        cfg = _tiny_cfg(
            effect_a=a, grid=grid, n_reps=4, alphas=(0.2,), envelope="plugin"
        )
        rep = run_sensitivity_experiment(cfg)
        areas.append(float(np.mean(rep["alg1"]["survival_mean"])))
    assert areas[1] > areas[0]


def test_scan_replication_fits_the_propensity_once(monkeypatch):
    fits = []

    def counting_fit(*args, **kwargs):
        fits.append(1)
        return real_fit(*args, **kwargs)

    real_fit = simulate.fit_propensity
    monkeypatch.setattr(simulate, "fit_propensity", counting_fit)
    cfg = _tiny_cfg(bounds="estimated", grid=(1.0, 1.2, 1.5, 2.0), n_reps=2,
                    alphas=(0.2,), envelope="plugin")
    run_sensitivity_experiment(cfg)
    assert len(fits) == cfg.n_reps


def test_worker_count_is_clamped_to_reps_and_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert _worker_count(1, 100) == 1
    assert _worker_count(64, 3) == min(3, cpus)
    assert _worker_count(10**6, 10**6) == cpus


class _FirstColumnPropensity:
    """e(x) read off the first covariate, so a test picks propensities directly."""

    def predict(self, x):
        return np.atleast_2d(np.asarray(x, dtype=float))[:, 0]


_E = st.floats(0.01, 0.99)
_V = st.one_of(st.integers(-3, 3).map(float), st.floats(-5.0, 5.0))  # ties and spread


@settings(max_examples=200, deadline=None)
@given(arm=st.sampled_from((0, 1)), pop=st.sampled_from(("ate", "att", "atc")),
       calib=st.lists(st.tuples(_E, _V), min_size=1, max_size=40),
       e_test=st.lists(_E, min_size=1, max_size=6),
       gammas=st.sets(st.floats(1.0, 30.0), min_size=1, max_size=8),
       alpha=st.floats(0.01, 0.99), p1=st.floats(0.05, 0.95))
def test_threshold_path_alg1_repair_is_a_noop_on_builtin_bounds(
        arm, pop, calib, e_test, gammas, alpha, p1):
    e_cal, v = (np.array(c) for c in zip(*calib))
    x_cal, x_test = e_cal[:, None], np.array(e_test)[:, None]
    pairs = [bound_functions(TargetSpec(arm=arm, population=pop), g,
                             _FirstColumnPropensity(), p1) for g in sorted(gammas)]
    envelopes = [b(x_cal) + (b.upper(x_test),) for b in pairs]
    raw = np.array([robust_threshold_many(v, lo, hi, alpha, ht) for lo, hi, ht in envelopes])
    np.testing.assert_array_equal(threshold_path(v, envelopes, alpha, "alg1"), raw)
    # alg2 takes the largest bound over all strengths as its scale M; on the
    # built-in families the widest (last) triple already holds it.
    widest = max(a.max() for a in envelopes[-1])
    assert max(a.max() for env in envelopes for a in env) == widest


# ---------------------------------------------------------------------------
# semi-synthetic
# ---------------------------------------------------------------------------


def test_semisynthetic_rebuild():
    base = gen_superpop(300, 3, 1.0, rng(67))
    out1 = gen_semisynthetic(
        base.x, base.t, base.y_obs, gamma=1.5,
        effect=lambda x: x[:, 0], seed=5,
    )
    out2 = gen_semisynthetic(
        base.x, base.t, base.y_obs, gamma=1.5,
        effect=lambda x: x[:, 0], seed=5,
    )
    np.testing.assert_array_equal(out1.t, out2.t)
    np.testing.assert_array_equal(out1.y0, out2.y0)
    np.testing.assert_allclose(out1.y1 - out1.y0, base.x[:, 0], rtol=0, atol=1e-12)
    low, high, _ = _two_regime(out1.e_x, 1.5, 1.0)
    assert (np.isclose(out1.e_xu, low) | np.isclose(out1.e_xu, high)).all()
    with pytest.raises(ValidationError):
        gen_semisynthetic(base.x, base.t, base.y_obs, gamma=0.5)
    with pytest.raises(ValidationError):
        gen_semisynthetic(base.x, np.ones_like(base.t), base.y_obs, gamma=1.5)
