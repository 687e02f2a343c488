import importlib.util
from pathlib import Path

import numpy as np
import pytest

from bornlab import (
    JointScenario,
    ObserverSystem,
    QuantumSystem,
    TimeGrid,
)

ROOT = Path(__file__).resolve().parent.parent


def perfbench_generator():
    """``perfbench/generate.py`` loaded from its file: the benchmark's seeded config writer."""
    spec = importlib.util.spec_from_file_location("perfbench_generate", ROOT / "perfbench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

KET0 = np.array([[1, 0], [0, 0]], dtype=complex)
KET1 = np.array([[0, 0], [0, 1]], dtype=complex)
PLUS = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)


def random_hermitian(rng, d, scale=1.0):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * 0.5 * (A + A.conj().T)


def random_density(rng, d):
    """Full-rank random state via a Gaussian square root."""
    G = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = G @ G.conj().T + 0.1 * np.eye(d)
    return rho / np.trace(rho).real


def random_unitary(rng, d):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(A)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_system(rng, d, degenerate_F=False):
    if degenerate_F and d >= 3:
        vals = np.sort(rng.normal(size=d))
        vals[1] = vals[0]  # force one exact degeneracy
        V = random_unitary(rng, d)
        F = (V * vals) @ V.conj().T
    else:
        F = random_hermitian(rng, d)
    return QuantumSystem.from_operators(
        random_hermitian(rng, d), F, random_density(rng, d)
    )


def random_grid(rng, n, span=2.0):
    times = np.sort(rng.uniform(0.1, span, size=n))
    while np.min(np.diff(times), initial=1.0) < 1e-3:
        times = np.sort(rng.uniform(0.1, span, size=n))
    return TimeGrid(tuple(times))


def rabi_system(omega=1.0):
    """H = (Ω/2)σ_x, F = σ_z, ρ = |0⟩⟨0| — the KC-violating workhorse."""
    return QuantumSystem.from_operators(0.5 * omega * SX, SZ, KET0)


def quasistatic_system(rho=None):
    """[H, F] = 0 with a generic mixed state; the static-observable case."""
    if rho is None:
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]], dtype=complex)
    return QuantumSystem.from_operators(0.7 * SZ, SZ, rho)


def dephasing_scenario(coupling=0.25):
    """Static S (H=0, F=σ_z, ρ=1/2) probed by a pure-dephasing observer."""
    obs = ObserverSystem.from_operators(np.zeros((2, 2)), SZ, PLUS, coupling)
    sys = QuantumSystem.from_operators(np.zeros((2, 2)), SZ, I2 / 2)
    return JointScenario(obs=obs, sys=sys)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
