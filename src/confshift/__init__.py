"""Conformal prediction under bounded likelihood-ratio shift.

The package builds prediction sets whose validity survives an unknown shift
between the calibration and target distributions, as long as the implied
likelihood ratio lies between covariate-dependent bounds l(x) <= w <= u(x).
On top of the two set constructions (a marginal one and a training-
conditional PAC one) sit the causal applications: counterfactual intervals,
treatment-effect intervals, and a sensitivity analysis that reports the
largest confounding strength at which each unit's effect interval still
excludes a null set.

Modules:

* ``core``        shared primitives: datasets, splits, quantiles, CSV I/O
* ``scores``      nonconformity scores on top of a kNN quantile model
* ``nuisance``    propensity estimation and likelihood-ratio bound pairs
* ``marginal``    the marginal robust threshold and its gap certificate
* ``pac``         envelope estimates (plugin / Hoeffding / betting) and the
                  PAC threshold
* ``worstcase``   exact worst-case CDFs and attaining weights
* ``sensitivity`` per-unit sensitivity values, survival / FWER / FDP summaries
* ``simulate``    confounded synthetic data and replicated experiments
* ``cli``         the ``confshift`` command-line tool
"""

from .core import (
    ConfigError,
    DataError,
    Dataset,
    SplitSpec,
    ValidationError,
    normal_inv_cdf,
    quantile_inf,
    read_dataset,
    rng,
    split,
    write_dataset,
)
from .marginal import (
    CalibrationSet,
    marginal_gap,
    robust_threshold,
    robust_threshold_many,
    weighted_conformal_threshold,
)
from .nuisance import (
    POPULATIONS,
    BoundPair,
    PropensityModel,
    TargetSpec,
    bound_functions,
    fit_propensity,
)
from .pac import (
    METHODS,
    envelope_hoeffding,
    envelope_plugin,
    envelope_wsr,
    pac_gap,
    pac_threshold,
    pac_threshold_path,
)
from .scores import (
    KNNQuantileModel,
    QuantileModel,
    ScoreFn,
    default_k,
    fit_quantile_model,
)
from .sensitivity import (
    GammaGrid,
    GammaValue,
    Interval,
    NullSpec,
    fdp_curve,
    fwer_estimate,
    gamma_value,
    gamma_values_from_rejections,
    ite_set_one_missing,
    survival_curve,
)
from .simulate import (
    SimConfig,
    SuperPopDraw,
    TruePropensity,
    beta_vector,
    gen_semisynthetic,
    gen_superpop,
    oracle_bound_pair,
    propensity_threshold,
    run_coverage_experiment,
    run_sensitivity_experiment,
    true_likelihood_ratio,
    true_treated_fraction,
)
from .worstcase import (
    CausalDiscreteJoint,
    CausalWitness,
    DiscreteJoint,
    MarginalWitness,
    causal_witness,
    lp_oracle_marginal,
    worst_cdf_causal,
    worst_cdf_marginal,
    worst_witness_marginal,
)

__version__ = "0.1.0"

__all__ = [
    "beta_vector",
    "bound_functions",
    "BoundPair",
    "CalibrationSet",
    "causal_witness",
    "CausalDiscreteJoint",
    "CausalWitness",
    "ConfigError",
    "DataError",
    "Dataset",
    "default_k",
    "DiscreteJoint",
    "envelope_hoeffding",
    "envelope_plugin",
    "envelope_wsr",
    "fdp_curve",
    "fit_propensity",
    "fit_quantile_model",
    "fwer_estimate",
    "gamma_value",
    "gamma_values_from_rejections",
    "GammaGrid",
    "GammaValue",
    "gen_semisynthetic",
    "gen_superpop",
    "Interval",
    "ite_set_one_missing",
    "KNNQuantileModel",
    "lp_oracle_marginal",
    "marginal_gap",
    "MarginalWitness",
    "METHODS",
    "normal_inv_cdf",
    "NullSpec",
    "oracle_bound_pair",
    "pac_gap",
    "pac_threshold",
    "pac_threshold_path",
    "POPULATIONS",
    "propensity_threshold",
    "PropensityModel",
    "quantile_inf",
    "QuantileModel",
    "read_dataset",
    "rng",
    "robust_threshold",
    "robust_threshold_many",
    "run_coverage_experiment",
    "run_sensitivity_experiment",
    "ScoreFn",
    "SimConfig",
    "split",
    "SplitSpec",
    "SuperPopDraw",
    "survival_curve",
    "TargetSpec",
    "true_likelihood_ratio",
    "true_treated_fraction",
    "TruePropensity",
    "ValidationError",
    "weighted_conformal_threshold",
    "worst_cdf_causal",
    "worst_cdf_marginal",
    "worst_witness_marginal",
    "write_dataset",
]
