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

* ``core``        shared primitives: datasets, splits, seeding, CSV I/O
* ``scores``      nonconformity scores on top of a kNN quantile model
* ``nuisance``    propensity estimation and likelihood-ratio bound pairs
* ``marginal``    the marginal robust threshold and its gap certificate
* ``pac``         envelope estimates (plugin / Hoeffding / betting) and the
                  PAC threshold
* ``worstcase``   exact worst-case CDFs and attaining weights
* ``sensitivity`` per-unit sensitivity values, survival / FWER / FDP summaries
* ``simulate``    confounded synthetic data and replicated experiments
* ``cli``         the ``confshift`` command-line tool

The public names are each module's ``__all__``, re-exported here.
"""

from . import core, marginal, nuisance, pac, scores, sensitivity, simulate, worstcase
from .core import *  # noqa: F401,F403
from .marginal import *  # noqa: F401,F403
from .nuisance import *  # noqa: F401,F403
from .pac import *  # noqa: F401,F403
from .scores import *  # noqa: F401,F403
from .sensitivity import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .worstcase import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    name
    for module in (core, marginal, nuisance, pac, scores, sensitivity, simulate, worstcase)
    for name in module.__all__
)
