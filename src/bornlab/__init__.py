"""Numerical laboratory for classical quantum stochastic processes.

Computes exact multi-time measurement statistics (Born distributions and
their two-sided complex extension) for finite-dimensional quantum systems,
tests the consistency conditions that decide whether the measured observable
behaves as a classical stochastic process, samples surrogate trajectories by
conditional collapse, and verifies by Monte Carlo that — when the
surrogate-field condition holds — averaging over sampled trajectories
reproduces the exact reduced dynamics of a coupled system.
"""

from .consistency import (
    ConditionRecord,
    ConsistencyReport,
    analyze,
    check_bi_consistency,
    check_cm,
    check_kc,
    check_sf,
    verify_generalized_relation,
)
from .errors import BornlabError
from .linalg import (
    DEFAULT_TOLERANCES,
    Superoperator,
    Tolerances,
    commutator_superop,
    hermitian_eig,
    kron,
    partial_trace,
    propagator,
    sandwich_superop,
    trace_distance,
    unvec,
    vec,
)
from .observer import (
    JointScenario,
    ObserverSystem,
    SurrogateAverage,
    compare,
    exact_reduced_state,
    joint_propagate,
    observer_observable_biprob,
    surrogate_average,
)
from .process import (
    BiProbTable,
    BornTable,
    QuantumSystem,
    TimeGrid,
    bi_probability,
    biprob_table,
    born_distribution,
    born_table,
    conditional_state,
    marginalize,
    marginalize_pair,
)
from .qrf import (
    GKLSGenerator,
    QRFModel,
    build_gkls,
    check_ncgd,
    classify_block_structure,
    qrf_bi_probability,
    rtn_model,
    verify_ncgd_cm_equivalence,
)
from .sampler import (
    Ensemble,
    Trajectory,
    autocorrelation,
    empirical_joint,
    sample_ensemble,
    sample_trajectory,
)
from .spectral import SpectralDecomposition, heisenberg_projectors, spectral_decompose
from .version import __version__

__all__ = [
    "BornlabError",
    "BiProbTable",
    "BornTable",
    "ConditionRecord",
    "ConsistencyReport",
    "DEFAULT_TOLERANCES",
    "Ensemble",
    "GKLSGenerator",
    "JointScenario",
    "ObserverSystem",
    "QRFModel",
    "QuantumSystem",
    "SpectralDecomposition",
    "Superoperator",
    "SurrogateAverage",
    "TimeGrid",
    "Tolerances",
    "Trajectory",
    "analyze",
    "autocorrelation",
    "bi_probability",
    "biprob_table",
    "born_distribution",
    "born_table",
    "build_gkls",
    "check_bi_consistency",
    "check_cm",
    "check_kc",
    "check_ncgd",
    "check_sf",
    "classify_block_structure",
    "commutator_superop",
    "compare",
    "conditional_state",
    "empirical_joint",
    "exact_reduced_state",
    "heisenberg_projectors",
    "hermitian_eig",
    "joint_propagate",
    "kron",
    "marginalize",
    "marginalize_pair",
    "observer_observable_biprob",
    "partial_trace",
    "propagator",
    "qrf_bi_probability",
    "rtn_model",
    "sample_ensemble",
    "sample_trajectory",
    "sandwich_superop",
    "spectral_decompose",
    "surrogate_average",
    "trace_distance",
    "unvec",
    "vec",
    "verify_generalized_relation",
    "verify_ncgd_cm_equivalence",
    "__version__",
]
