"""Monte Carlo checks of coverage guarantees that the docstrings state and the
acceptance gate does not test: the gap certificates under a misspecified
envelope, PAC coverage of the Hoeffding envelope, and validity with the
over-coverage (sharpness) reported at several strengths.

Sizes, seeds and tolerances are fixed in advance; the observed numbers are
printed (``pytest -s``) so a failure shows by how much it missed.
"""

import math

import numpy as np
import pytest

from confshift import SimConfig, run_coverage_experiment


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
