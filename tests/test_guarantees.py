"""Monte Carlo checks of coverage guarantees that the docstrings state and the
acceptance gate does not test: the gap certificates under a misspecified
envelope, PAC coverage of the Hoeffding envelope, validity with the
over-coverage (sharpness) reported at several strengths, and alg2's validity
and sharpness against the envelope's exact worst case.

Sizes, seeds and tolerances are fixed in advance; the observed numbers are
printed (``pytest -s``) so a failure shows by how much it missed.
"""

import math

import numpy as np
import pytest

from confshift import (DiscreteJoint, SimConfig, ratio_bounds, rng, run_coverage_experiment,
                       worst_cdf_marginal)
from confshift import simulate


@pytest.mark.parametrize("gamma_bounds", [1.0, 1.3])
def test_gap_certificates_bound_coverage_under_a_misspecified_envelope(gamma_bounds):
    """Units selected at strength 2 and oracle bounds at a smaller strength,
    so the true ratio leaves the envelope. alg1's mean coverage stays above
    1 - alpha - marginal_gap up to 3 standard errors of the mean over
    replications, and alg2's 0.05 replication quantile above 1 - alpha -
    pac_gap."""
    alpha, n_reps = 0.2, 100
    common = dict(n_train=500, n_calib=500, n_test=200, p=4, gamma_true=2.0,
                  gamma_bounds=gamma_bounds, alphas=(alpha,), bounds="oracle",
                  n_eval_gap=2000, n_reps=n_reps, seed=2111)
    alg1 = run_coverage_experiment(SimConfig(procedure="alg1", **common))["per_alpha"]["0.2"]
    cov = np.array(alg1["coverage_per_rep"])
    se = cov.std(ddof=1) / math.sqrt(n_reps)
    floor1 = 1.0 - alpha - alg1["marginal_gap_mean"]
    print(f"gamma_bounds={gamma_bounds}: alg1 mean {cov.mean():.3f} "
          f">= {floor1:.3f} - 3 SE ({3 * se:.3f})")
    assert cov.mean() >= floor1 - 3.0 * se

    alg2 = run_coverage_experiment(SimConfig(procedure="alg2", envelope="wsr", **common))
    entry = alg2["per_alpha"]["0.2"]
    floor2 = 1.0 - alpha - entry["pac_gap_mean"]
    print(f"gamma_bounds={gamma_bounds}: alg2 q05 {entry['coverage_q05']:.3f} >= {floor2:.3f}")
    assert entry["coverage_q05"] >= floor2


def test_hoeffding_pac_coverage():
    """c04's check for the Hoeffding envelope at smaller sizes: the 0.05
    replication quantile of test coverage is at least 1 - alpha, less a
    tolerance of 3 binomial standard errors of one replication's coverage
    over its n_test units."""
    alphas, n_test = (0.2, 0.5), 2000
    cfg = SimConfig(n_train=1000, n_calib=2000, n_test=n_test, p=4, gamma_true=1.5,
                    alphas=alphas, delta=0.05, procedure="alg2", envelope="hoeffding",
                    bounds="oracle", n_reps=100, seed=4040)
    report = run_coverage_experiment(cfg)
    for a in alphas:
        q05 = report["per_alpha"][repr(float(a))]["coverage_q05"]
        tol = 3.0 * math.sqrt(a * (1.0 - a) / n_test)
        print(f"hoeffding a={a}: q05 {q05:.3f} >= {1.0 - a - tol:.3f}")
        assert q05 >= 1.0 - a - tol


@pytest.mark.parametrize("gamma", [1.0, 2.0, 3.0])
def test_validity_and_over_coverage_with_oracle_bounds(gamma):
    """With oracle bounds at the true strength, alg1 and alg2:wsr cover:
    mean coverage over replications is at least 1 - alpha less 3 standard
    errors of that mean. How far above 1 - alpha they land (the sharpness
    the paper reports) is printed, not asserted."""
    alpha, n_reps = 0.2, 50
    common = dict(n_train=500, n_calib=500, n_test=500, p=4, gamma_true=gamma,
                  alphas=(alpha,), bounds="oracle", n_reps=n_reps, seed=5050)
    for name, extra in (("alg1", dict(procedure="alg1")),
                        ("alg2:wsr", dict(procedure="alg2", envelope="wsr"))):
        report = run_coverage_experiment(SimConfig(**common, **extra))
        cov = np.array(report["per_alpha"]["0.2"]["coverage_per_rep"])
        se = cov.std(ddof=1) / math.sqrt(n_reps)
        print(f"gamma={gamma} {name}: mean coverage {cov.mean():.3f}, "
              f"over-coverage {cov.mean() - (1.0 - alpha):+.3f} (SE {se:.3f})")
        assert cov.mean() >= 1.0 - alpha - 3.0 * se


def test_alg2_covers_the_whole_envelope_class_and_is_sharp():
    """alg2:wsr against every ratio inside the oracle envelope, not only the
    generator's (Jin, Ren & Candes, Section 5.1). Per replication, G(v) is
    the smallest target CDF at v over the class: ``worst_cdf_marginal`` over
    fresh calibration-law arm units with their oracle l and u, at the
    realized threshold v_hat. Validity: the share of replications with
    G(v_hat) < 1 - alpha is at most delta plus 3 binomial standard errors.
    Sharpness: the mean slack G(v_hat) - (1 - alpha) is below the Hoeffding
    width M sqrt(log(2/delta) / (2n)), with M the envelope scale alg2 used
    (its largest bound over the calibration units and the test unit) and n
    the calibration units; the smallest width over replications counts.
    Each replication takes ``_coverage_rep``'s steps and RNG order, then
    draws the evaluation units."""
    alpha, delta, n_reps, n_eval = 0.2, 0.05, 40, 20_000
    cfg = SimConfig(n_train=1000, n_calib=2000, n_test=1, p=4, gamma_true=1.5,
                    alphas=(alpha,), delta=delta, procedure="alg2", envelope="wsr",
                    bounds="oracle", n_reps=n_reps, seed=404)
    target, gammas, arm = cfg.target(), (cfg.gamma_true,), cfg.arm
    worst, widths = [], []
    for seed in simulate._rep_seeds(cfg):
        r = rng(seed)
        train, train_arm = simulate._pool_until(cfg, r, arm, cfg.n_train)
        calib = simulate._pool_until(cfg, r, arm, cfg.n_calib)[1]
        test = simulate._draw_target_units(cfg, r, cfg.n_test)
        prop, p1 = simulate._propensity(cfg, train)
        (fn,), _, thr = simulate._calibrated_thresholds(
            target, gammas, prop, p1, (train_arm.x, train_arm.outcome(arm)),
            (calib.x, calib.outcome(arm)), test.x, cfg.score, cfg.alphas,
            ((cfg.procedure, cfg.envelope),), delta)
        ev = simulate._pool_until(cfg, r, arm, n_eval)[1]
        (lo,), (hi,) = ratio_bounds(target, gammas, prop, p1, ev.x)
        joint = DiscreteJoint(fn.score(ev.x, ev.outcome(arm)), np.full(n_eval, 1.0 / n_eval),
                              lo, hi)
        worst.append(worst_cdf_marginal(joint, float(thr[0, 0, 0, 0])))
        m = max(ratio_bounds(target, gammas, prop, p1, x)[1].max() for x in (calib.x, test.x))
        widths.append(m * math.sqrt(math.log(2.0 / delta) / (2.0 * cfg.n_calib)))
    slack = np.array(worst) - (1.0 - alpha)
    share, cap = float(np.mean(slack < 0.0)), delta + 3.0 * math.sqrt(delta * (1 - delta) / n_reps)
    print(f"alg2:wsr gamma=1.5: share G < 1 - alpha {share:.3f} <= {cap:.3f}; "
          f"mean slack {slack.mean():.4f} < width {min(widths):.4f}")
    assert share <= cap
    assert slack.mean() < min(widths)
