"""Confounded data generator identities and the experiment runners."""

import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit, ndtr

from confshift import (
    CalibrationSet,
    KNNQuantileModel,
    SimConfig,
    TargetSpec,
    ValidationError,
    beta_vector,
    gen_superpop,
    oracle_bound_pair,
    pac_threshold_path,
    ratio_bounds,
    rng,
    robust_threshold_many,
    run_coverage_experiment,
    run_sensitivity_experiment,
    true_likelihood_ratio,
    true_treated_fraction,
)
from confshift import simulate
from confshift.cli import _TABLES
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
        p_inside = 2.0 * ndtr(cut / sig) - 1.0
        mean_exu = low * (1.0 - p_inside) + high * p_inside
        np.testing.assert_allclose(mean_exu, e, rtol=0, atol=1e-12)


def test_gen_superpop_deterministic_and_consistent():
    d1 = gen_superpop(200, 4, 1.5, rng(7), "fixed", 0.3)
    d2 = gen_superpop(200, 4, 1.5, rng(7), "fixed", 0.3)
    for f in ("x", "u", "t", "y0", "y1", "e_x", "e_xu"):
        np.testing.assert_array_equal(getattr(d1, f), getattr(d2, f))
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


def _meshgrid_treated_fraction(p: int) -> float:
    """The quadrature on full meshgrid copies of the nodes and weights
    (eight 24^4 arrays at p >= 4), kept as the oracle of its broadcast form."""
    beta = beta_vector(p)
    active = np.nonzero(beta)[0]
    if active.size == 0:
        return 0.5
    nodes, weights = np.polynomial.legendre.leggauss(24)
    xs = 0.5 * (nodes + 1.0)
    ws = 0.5 * weights
    grids = np.meshgrid(*([xs] * active.size), indexing="ij")
    wgrids = np.meshgrid(*([ws] * active.size), indexing="ij")
    z = sum(beta[d] * g for d, g in zip(active, grids))
    w = wgrids[0]
    for g in wgrids[1:]:
        w = w * g
    return float((w * expit(z)).sum())


@pytest.mark.parametrize("p", range(1, 9))
def test_treated_fraction_matches_the_meshgrid_quadrature_bit_for_bit(p):
    assert true_treated_fraction(p) == _meshgrid_treated_fraction(p)


def _traced_peak(fn, *args) -> int:
    """Peak bytes that tracemalloc sees during one call of ``fn``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_treated_fraction_peaks_under_8_mib():
    # 5.30 MiB with broadcast axes; the meshgrid form peaked at 27.85 MiB.
    true_treated_fraction.cache_clear()
    assert _traced_peak(true_treated_fraction, 4) < 8 * 2**20


@pytest.mark.parametrize("run, cfg, measured_mib", [
    (run_coverage_experiment,
     SimConfig(n_train=1000, n_calib=2000, n_test=10_000, p=4, gamma_true=1.5,
               alphas=(0.2, 0.5), procedure="alg2", envelope="wsr", seed=404), 4.26),
    (run_sensitivity_experiment,
     SimConfig(n_train=500, n_calib=1000, n_test=100, p=4, gamma_true=1.6, alphas=(0.1,),
               seed=808, grid=tuple(np.round(np.linspace(1.0, 2.2, 13), 1))), 2.51),
], ids=["c04-coverage", "c08-scan"])
def test_one_replication_stays_under_twice_its_measured_peak(run, cfg, measured_mib):
    """One c04-sized coverage replication peaks at 4.26 MiB under tracemalloc
    and one c08-sized scan replication (13-point grid) at 2.51 MiB, with
    P(T = 1) cached (numpy 2.4, seeds 404 and 808). Twice that is the bound,
    so a new temporary of O(n_test x n_train) floats fails the c04 case,
    and a P(T = 1) quadrature (5.3 MiB) run uncached fails the c08 case."""
    true_treated_fraction(cfg.p)
    assert _traced_peak(run, cfg, 1) < 2 * measured_mib * 2**20


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the sensitivity campaign calibrates on controls (arm 0) "
                          "but builds its envelope for cfg.target(), arm 1")
def test_sensitivity_campaign_envelope_covers_control_ratios(monkeypatch):
    # The envelope is the one the campaign itself asks its step for.
    targets = []

    def recording_step(target, *args, **kwargs):
        targets.append(target)
        return real_step(target, *args, **kwargs)

    real_step = simulate._calibrated_thresholds
    monkeypatch.setattr(simulate, "_calibrated_thresholds", recording_step)
    gamma = 1.6
    cfg = SimConfig(n_train=50, n_calib=50, gamma_true=gamma, grid=(1.0, gamma))
    run_sensitivity_experiment(cfg, threads=1)
    (target,) = targets
    d = gen_superpop(20000, cfg.p, gamma, rng(71))
    controls = d.take(np.nonzero(d.t == 0)[0])
    # Controls calibrate Y(0) for the target population: arm 0.
    w = true_likelihood_ratio(controls, TargetSpec(arm=0, population=cfg.population))
    prop, p1 = simulate._propensity(cfg, controls)
    (lo,), (hi,) = ratio_bounds(target, (gamma,), prop, p1, controls.x)
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
    with pytest.raises(ValidationError, match="arm"):
        SimConfig(n_train=10, n_calib=10, arm=2)
    with pytest.raises(ValidationError, match="repeat"):
        SimConfig(n_train=10, n_calib=10, alphas=(0.2, 0.5, 0.2))
    for field in ("seed", "n_eval_gap"):
        with pytest.raises(ValidationError, match=field):
            SimConfig(n_train=10, n_calib=10, **{field: -1})
    cfg = SimConfig(n_train=10, n_calib=10, arm=0, population="att")
    assert cfg.target() == TargetSpec(arm=0, population="att")


@pytest.mark.parametrize("field", ["gamma_true", "gamma_bounds"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.5])
def test_sim_config_rejects_nonfinite_strengths(field, value):
    # A NaN strength used to pass every check and left the arm-unit pool
    # loop drawing forever.
    with pytest.raises(ValidationError, match=field):
        SimConfig(n_train=10, n_calib=10, **{field: value})


@pytest.mark.parametrize("run", [run_coverage_experiment, run_sensitivity_experiment])
def test_a_campaign_without_alphas_is_refused_by_name(run):
    # An empty alphas used to pass the config and fail in numpy's reshape.
    with pytest.raises(ValidationError, match="alphas"):
        run(SimConfig(n_train=40, n_calib=40, n_test=5, alphas=()))


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


def test_coverage_gap_entries_do_not_depend_on_alpha():
    cfg = _tiny_cfg(n_eval_gap=40, n_reps=2, bounds="estimated")
    per_alpha = run_coverage_experiment(cfg)["per_alpha"]
    assert per_alpha["0.2"]["lower_bound_l1_max"] > 0.0
    for extra in ("marginal_gap", "pac_gap", "lower_bound_l1"):
        for stat in ("_mean", "_max"):
            assert per_alpha["0.2"][extra + stat] == per_alpha["0.5"][extra + stat]


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


def test_gamma_hat_is_nondecreasing_in_the_effect_size():
    """With common seeds, only Y(1) = Y(0) + a moves with the effect size a:
    the draw's RNG order, T and the control calibration do not depend on it.
    A treated unit's effect interval has lower end (y0 + a) - cf.hi, which
    only grows with a, so every unit's sensitivity value is nondecreasing in
    a, for alg1 and alg2 (Jin, Ren & Candes, Section 5.2).
    Compared with >=: censored values are +inf."""
    effects = (-1.0, 0.0, 0.5, 1.0, 2.0)
    for gamma in (1.2, 2.0):
        cfgs = [SimConfig(n_train=500, n_calib=1000, n_test=100, p=4, gamma_true=gamma,
                          alphas=(0.1,), delta=0.05, envelope="wsr", effect_a=a,
                          n_reps=3, seed=808) for a in effects]
        for rep in range(3):
            gh = [simulate._sensitivity_rep((cfg, simulate._rep_seeds(cfg)[rep])) for cfg in cfgs]
            for key in ("alg1", "alg2"):
                vals = np.array([g[key] for g in gh])
                assert (vals[1:] >= vals[:-1]).all(), (gamma, rep, key)
                assert (vals[-1] > vals[0]).any()


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


@pytest.mark.parametrize("alphas", [(0.2,), (0.1, 0.2, 0.5)])
def test_coverage_replication_queries_the_knn_model_twice(monkeypatch, alphas):
    # One query for the calibration units and one for the test units, each
    # asking for every alpha's levels at once.
    levels = []

    def counting_quantile(self, x, beta):
        levels.append(len(beta))
        return real_quantile(self, x, beta)

    real_quantile = KNNQuantileModel.quantile
    monkeypatch.setattr(KNNQuantileModel, "quantile", counting_quantile)
    cfg = _tiny_cfg(alphas=alphas, n_reps=2)
    report = run_coverage_experiment(cfg)
    assert levels == [2 * len(alphas)] * (2 * cfg.n_reps)
    for alpha in alphas:
        # Each alpha reads exactly what a campaign at that alpha alone reads.
        alone = run_coverage_experiment(dataclasses.replace(cfg, alphas=(alpha,)))
        key = repr(alpha)
        assert report["per_alpha"][key] == alone["per_alpha"][key]


def test_worker_count_is_clamped_to_reps_and_cpus():
    cpus = len(os.sched_getaffinity(0))
    assert _worker_count(1, 100) == 1
    assert _worker_count(64, 3) == min(3, cpus)
    assert _worker_count(10**6, 10**6) == cpus
    assert _worker_count(None, 10**6) == cpus
    assert _worker_count(None, 1) == 1


# A value off its SimConfig default for every field a campaign may reject.
_OFF_DEFAULT = {"grid": (1.0, 2.0), "score": "abs_residual", "procedure": "alg2",
                "gamma_bounds": 1.5, "n_eval_gap": 10}


@pytest.mark.parametrize("campaign", ["coverage", "sensitivity"])
def test_each_campaign_reads_every_setting_it_accepts(campaign):
    names = {f.name for f in dataclasses.fields(SimConfig)}
    read = set()

    class Logged(SimConfig):
        def __getattribute__(self, name):
            if name in names:
                read.add(name)
            return super().__getattribute__(name)

    if campaign == "coverage":
        kw = dict(procedure="alg2", alphas=(0.2, 0.5), n_eval_gap=30)
        rep, run = simulate._coverage_rep, run_coverage_experiment
    else:
        kw = dict(grid=(1.0, 1.3), alphas=(0.2,))
        rep, run = simulate._sensitivity_rep, run_sensitivity_experiment
    kw.update(n_train=40, n_calib=40, n_test=5, gamma_true=1.3, envelope="plugin",
              bounds="estimated", n_reps=1, seed=5)
    cfg = Logged(**kw)
    read.clear()
    rep((cfg, simulate._rep_seeds(cfg)[0]))  # what a threads=1 run does in-process

    unread = set(simulate._UNREAD[campaign])
    assert not read & unread
    # n_reps and seed feed the seed tree outside the replication.
    assert read | unread | {"n_reps", "seed"} == names
    defaults = {f.name: f.default for f in dataclasses.fields(SimConfig)}
    for name in unread:
        # The CLI leaves a field unset exactly when it passes the default.
        assert _TABLES["simulate"][name].default == defaults[name]
        off = dataclasses.replace(SimConfig(**kw), **{name: _OFF_DEFAULT[name]})
        with pytest.raises(ValidationError, match=f"{campaign} campaign does not read {name}"):
            run(off, threads=1)
    if campaign == "sensitivity":
        with pytest.raises(ValidationError, match="alphas"):
            run(dataclasses.replace(SimConfig(**kw), alphas=(0.1, 0.2)), threads=1)


@pytest.mark.parametrize("campaign,kw,name", [
    ("coverage", dict(envelope="plugin"), "envelope"),
    ("coverage", dict(delta=0.3), "delta"),
    ("coverage", dict(procedure="alg2", envelope="plugin", delta=0.3), "delta"),
    ("sensitivity", dict(envelope="plugin", delta=0.3), "delta"),
])
def test_a_campaign_rejects_a_setting_its_procedure_never_reads(campaign, kw, name):
    # alg1 coverage reads no alg2 envelope, and the plugin envelope no delta.
    run = run_coverage_experiment if campaign == "coverage" else run_sensitivity_experiment
    cfg = SimConfig(n_train=40, n_calib=40, n_test=5, n_reps=1, **kw)
    with pytest.raises(ValidationError, match=f"{campaign} campaign does not read {name}"):
        run(cfg, threads=1)


@pytest.mark.parametrize("campaign", ["coverage", "sensitivity"])
def test_worker_processes_never_change_a_report(campaign):
    # threads=2 runs a two-process pool on any host with two usable CPUs.
    if campaign == "coverage":
        cfg = _tiny_cfg(procedure="alg2", bounds="estimated", n_eval_gap=30, n_reps=4)
        run = run_coverage_experiment
    else:
        cfg = _tiny_cfg(grid=(1.0, 1.2, 1.5), alphas=(0.2,), bounds="estimated", n_reps=4)
        run = run_sensitivity_experiment
    assert run(cfg, threads=2) == run(cfg, threads=1)


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
    target, grid = TargetSpec(arm=arm, population=pop), sorted(gammas)
    lo, hi = ratio_bounds(target, grid, _FirstColumnPropensity(), p1, x_cal)
    hi_test = ratio_bounds(target, grid, _FirstColumnPropensity(), p1, x_test)[1]
    raw = np.array([robust_threshold_many(v, *row, alpha, ht)
                    for *row, ht in zip(lo, hi, hi_test)])
    np.testing.assert_array_equal(threshold_path(v, lo, hi, hi_test, alpha, "alg1"), raw)
    np.testing.assert_array_equal(np.maximum.accumulate(raw, axis=0), raw)
    # alg2 takes the largest bound over all strengths as its scale M; on the
    # built-in families the widest (last) strength already holds it.
    widest = max(a[-1].max() for a in (lo, hi, hi_test))
    assert max(a.max() for a in (lo, hi, hi_test)) == widest


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), strengths=st.integers(1, 5),
       m=st.integers(1, 6), ties=st.booleans(), u_scale=st.floats(0.1, 50.0),
       alpha=st.floats(0.01, 0.99), envelope=st.sampled_from(("plugin", "hoeffding", "wsr")))
@example(seed=0, n=1, strengths=1, m=1, ties=True, u_scale=50.0, alpha=0.1, envelope="wsr")
def test_threshold_path_shares_one_sort_bit_for_bit(seed, n, strengths, m, ties, u_scale,
                                                    alpha, envelope):
    """Along a grid, alg1 equals one 1-d robust_threshold_many call per
    strength and alg2 equals pac_threshold_path over sets built one by one,
    bit for bit, although both sort the scores once per grid. Scores may
    tie, n and the grid may be 1, and a large test bound gives +inf."""
    r = rng(seed)
    v = r.integers(-2, 3, size=n).astype(float) if ties else r.normal(size=n)
    lo = r.uniform(0.2, 1.5, size=(strengths, n))
    hi = lo * r.uniform(1.0, 3.0, size=(strengths, n))
    hi_test = r.uniform(0.2, 1.0, size=(strengths, m)) * u_scale
    per_strength = np.array([robust_threshold_many(v, *row, alpha, ht)
                             for *row, ht in zip(lo, hi, hi_test)])
    np.testing.assert_array_equal(threshold_path(v, lo, hi, hi_test, alpha, "alg1"),
                                  per_strength)
    one_by_one = [CalibrationSet(v, *row, float(ht.max())) for *row, ht in zip(lo, hi, hi_test)]
    path = pac_threshold_path(one_by_one, alpha, 0.1, envelope)
    np.testing.assert_array_equal(threshold_path(v, lo, hi, hi_test, alpha, "alg2", envelope, 0.1),
                                  np.repeat(path[:, None], m, axis=1))
    # Not nested: each strength is its own single-row path, with its own M.
    for procedure in ("alg1", "alg2"):
        alone = np.vstack([threshold_path(v, lo[i:i + 1], hi[i:i + 1], hi_test[i:i + 1], alpha,
                                          procedure, envelope, 0.1) for i in range(strengths)])
        np.testing.assert_array_equal(
            threshold_path(v, lo, hi, hi_test, alpha, procedure, envelope, 0.1, nested=False),
            alone)
    if (u_scale, n) == (50.0, 1):
        assert np.isinf(per_strength).all()
