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
    analyze,
    check_bi_consistency,
    check_cm,
    check_kc,
    check_sf,
    verify_generalized_relation,
)
from .errors import BornlabError
from .linalg import Tolerances
from .observer import JointScenario, ObserverSystem, compare, exact_reduced_state, surrogate_average
from .process import QuantumSystem, TimeGrid, biprob_table, born_table
from .qrf import (
    QRFModel,
    build_gkls,
    check_ncgd,
    classify_block_structure,
    rtn_model,
    verify_ncgd_cm_equivalence,
)
from .sampler import empirical_joint, sample_ensemble, sample_trajectory
from .spectral import spectral_decompose
from .version import __version__

__all__ = [
    # sources and grids
    "QuantumSystem",
    "QRFModel",
    "build_gkls",
    "rtn_model",
    "ObserverSystem",
    "JointScenario",
    "spectral_decompose",
    "TimeGrid",
    "Tolerances",
    # tables
    "born_table",
    "biprob_table",
    # consistency checks
    "analyze",
    "check_kc",
    "check_cm",
    "check_sf",
    "check_bi_consistency",
    "verify_generalized_relation",
    "check_ncgd",
    "classify_block_structure",
    "verify_ncgd_cm_equivalence",
    # trajectories and the surrogate average
    "sample_ensemble",
    "sample_trajectory",
    "empirical_joint",
    "exact_reduced_state",
    "surrogate_average",
    "compare",
    "BornlabError",
    "__version__",
]
