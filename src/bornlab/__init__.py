"""Numerical laboratory for classical quantum stochastic processes.

Computes exact multi-time measurement statistics (Born distributions and
their two-sided complex extension) for finite-dimensional quantum systems,
tests the consistency conditions that decide whether the measured observable
behaves as a classical stochastic process, samples surrogate trajectories by
conditional collapse, and verifies by Monte Carlo that — when the
surrogate-field condition holds — averaging over sampled trajectories
reproduces the exact reduced dynamics of a coupled system.
"""

import importlib

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

# the module each name of __all__ is read from; a name is imported on first use (PEP 562),
# so ``import bornlab.cli`` loads the modules of the commands and not those of other kinds
_HOME = {
    "QuantumSystem": "process", "TimeGrid": "process", "born_table": "process",
    "biprob_table": "process", "Tolerances": "linalg", "spectral_decompose": "spectral",
    "QRFModel": "qrf", "build_gkls": "qrf", "rtn_model": "qrf", "check_ncgd": "qrf",
    "classify_block_structure": "qrf", "verify_ncgd_cm_equivalence": "qrf",
    "ObserverSystem": "observer", "JointScenario": "observer",
    "exact_reduced_state": "observer", "surrogate_average": "observer", "compare": "observer",
    "analyze": "consistency", "check_kc": "consistency", "check_cm": "consistency",
    "check_sf": "consistency", "check_bi_consistency": "consistency",
    "verify_generalized_relation": "consistency",
    "sample_ensemble": "sampler", "sample_trajectory": "sampler", "empirical_joint": "sampler",
    "BornlabError": "errors",
}


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
