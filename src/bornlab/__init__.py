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

# the module each public name is read from; a name is imported on first use (PEP 562), so
# ``import bornlab.cli`` loads the modules of the commands and not those of other kinds
_HOME = {
    "QuantumSystem": "process", "TimeGrid": "process", "born_table": "process",
    "biprob_table": "process", "Tolerances": "linalg", "spectral_decompose": "spectral",
    "QRFModel": "qrf", "build_gkls": "qrf", "rtn_model": "qrf", "check_ncgd": "qrf",
    "classify_block_structure": "qrf", "verify_ncgd_cm_equivalence": "qrf",
    "ObserverSystem": "observer", "JointScenario": "observer",
    "exact_reduced_state": "observer", "surrogate_average": "observer",
    "surrogate_averages": "observer", "compare": "observer",
    "analyze": "consistency", "check_kc": "consistency", "check_cm": "consistency",
    "check_sf": "consistency", "check_bi_consistency": "consistency",
    "verify_generalized_relation": "consistency",
    "sample_ensemble": "sampler", "BornlabError": "errors",
}
__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value
