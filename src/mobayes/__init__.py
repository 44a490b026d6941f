"""Exact multi-object Bayesian filtering on finite state spaces.

Multi-object states and observations live on small labelled finite sets and
are represented by truncated coefficient tensors of their generating
functionals. Updates, intensities and predictions are computed exactly
(partition sums, coefficient shifts, scalar products); the brute-force,
numeric and table oracles they are verified against live in oracles.
"""

from .bayes import (
    MeasurementSet,
    ObservationKernel,
    Posterior,
    ZeroEvidence,
    poisson_posterior,
    poisson_posterior_intensity,
    posterior_intensity_clutter,
    posterior_partition_clutter,
)
from .combinatorics import Partition, SubsetSplit, bell, partitions, subsets
from .finite_pp import (
    FiniteSpace,
    MultiObjectDensity,
    PoissonSpec,
    TruncationOverflow,
    bernoulli,
    differentiate,
    evaluate,
    janossy,
    moment,
    poisson,
    scalar_product,
    superpose,
    symmetrize,
)
from .functional_calculus import (
    BlackBoxFunctional,
    PoissonFunctional,
    TensorFunctional,
    TensorMap,
    differential_of_variation,
    faa_di_bruno,
    leibniz,
    numeric_differential,
)
from .oracles import (
    TransitionModel,
    build_multiplicative,
    joint_likelihood,
    posterior_bivariate,
    posterior_direct,
    posterior_power_series,
)
from .prediction import SurviveMoveBirth, predict
from .scenario import ConfigError, RunRecord, Scenario, load_config, run, simulate

__version__ = "0.1.0"

__all__ = [
    "BlackBoxFunctional",
    "ConfigError",
    "FiniteSpace",
    "MeasurementSet",
    "MultiObjectDensity",
    "ObservationKernel",
    "Partition",
    "PoissonFunctional",
    "PoissonSpec",
    "Posterior",
    "RunRecord",
    "Scenario",
    "SubsetSplit",
    "SurviveMoveBirth",
    "TensorFunctional",
    "TensorMap",
    "TransitionModel",
    "TruncationOverflow",
    "ZeroEvidence",
    "bell",
    "bernoulli",
    "build_multiplicative",
    "differential_of_variation",
    "differentiate",
    "evaluate",
    "faa_di_bruno",
    "janossy",
    "joint_likelihood",
    "leibniz",
    "load_config",
    "moment",
    "numeric_differential",
    "partitions",
    "poisson",
    "poisson_posterior",
    "poisson_posterior_intensity",
    "posterior_bivariate",
    "posterior_direct",
    "posterior_intensity_clutter",
    "posterior_partition_clutter",
    "posterior_power_series",
    "predict",
    "run",
    "scalar_product",
    "simulate",
    "superpose",
    "symmetrize",
]
