"""A quantum system coupled to the measured observable, and its surrogate.

The joint model is H_os = H_o ⊗ 1 + 1 ⊗ H + λ G_o ⊗ F. The exact reduced
state of the coupled system (interaction picture) is computed by a full
joint matrix exponential followed by a partial trace and a frame rotation —
never by a perturbative series. When the observable admits a surrogate
field, the same reduced state is reproduced by averaging the propagation
under the stochastic Hamiltonian H_o + λ f(τ) G_o over sampled trajectories;
each piecewise-constant segment contributes one exact matrix exponential.
The average propagates each distinct outcome prefix on [0, t] once, for
every trajectory that shares it.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionCap, DimensionMismatch
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    partial_trace,
    propagator,
    require_density,
    require_hermitian,
    trace_distance,
)
from .process import DEFAULT_JOINT_DIM_CAP, QuantumSystem
from .sampler import Ensemble, _slot, rank_histories


class ObserverSystem(NamedTuple):
    """Free Hamiltonian, coupling operator, initial state, coupling strength."""

    H_o: np.ndarray
    G_o: np.ndarray
    rho_o: np.ndarray
    coupling: float

    @classmethod
    def from_operators(cls, H_o, G_o, rho_o, coupling, tolerances: Tolerances = DEFAULT_TOLERANCES):
        Hm = require_hermitian(H_o, tolerances.hermiticity, "H_o")
        Gm = require_hermitian(G_o, tolerances.hermiticity, "G_o")
        rho = require_density(rho_o, tolerances.density, "rho_o")
        if not (Hm.shape == Gm.shape == rho.shape):
            raise DimensionMismatch("H_o, G_o, rho_o must share one dimension")
        return cls(H_o=Hm, G_o=Gm, rho_o=rho, coupling=float(coupling))

    @property
    def dim(self):
        return self.H_o.shape[0]


class JointScenario:
    """An observer coupled to a measured system, within the dimension cap."""

    def __init__(self, obs: ObserverSystem, sys: QuantumSystem, dim_cap=DEFAULT_JOINT_DIM_CAP):
        joint = obs.dim * sys.dim
        if joint > dim_cap:
            raise DimensionCap(f"joint dimension {joint} exceeds cap {dim_cap}")
        self.obs, self.sys = obs, sys

    @property
    def dims(self):
        return (self.obs.dim, self.sys.dim)


def joint_hamiltonian(js: JointScenario):
    """H_o ⊗ 1 + 1 ⊗ H + λ G_o ⊗ F."""
    d_o, d_s = js.dims
    F = js.sys.F.observable()
    return (
        np.kron(js.obs.H_o, np.eye(d_s))
        + np.kron(np.eye(d_o), js.sys.H)
        + js.obs.coupling * np.kron(js.obs.G_o, F)
    )


def joint_propagate(js: JointScenario, t):
    """exp(-i t H_os) (ρ_o ⊗ ρ) exp(+i t H_os)."""
    U = propagator(joint_hamiltonian(js), t)
    rho = np.kron(js.obs.rho_o, js.sys.rho0)
    return U @ rho @ U.conj().T


def exact_reduced_state(js: JointScenario, t):
    """Interaction-picture reduced state U_o†(t) tr_s[ρ_os(t)] U_o(t)."""
    reduced = partial_trace(joint_propagate(js, t), js.dims)
    U_o = propagator(js.obs.H_o, t)
    return U_o.conj().T @ reduced @ U_o


class SurrogateAverage(NamedTuple):
    """Monte-Carlo mean state with per-entry standard errors."""

    mean: np.ndarray
    stderr: np.ndarray
    size: int


def surrogate_average(obs: ObserverSystem, ens: Ensemble, t):
    """(1/N) Σ_j V_j ρ_o V_j† with standard errors, V_j = U_o(t)† W_j(t).

    W_j(t) is the Schrödinger propagator from 0 to t under H_o + λ f_j(τ) G_o:
    each piecewise-constant segment of trajectory j on [0, t] contributes one
    exact matrix exponential, left-multiplied in time order. It depends only
    on the outcomes up to the grid slot in force at t, so each distinct prefix
    is propagated once, each segment's exponentials are formed once per
    outcome value, and U_o(t) once. The states are gathered back to trajectory
    order; the mean and the complex per-entry sample variance are reduced
    with numpy pairwise summation over it (deterministic for fixed N).
    """
    k = _slot(ens.grid, t)
    prefixes, inverse = rank_histories(ens.indices[:, :k + 1], len(ens.eigenvalues))
    bounds = [0.0, *ens.grid.times[1:k + 1], t]
    W = np.broadcast_to(np.eye(obs.dim, dtype=complex), (len(prefixes), obs.dim, obs.dim))
    for col in range(k + 1):
        duration = bounds[col + 1] - bounds[col]
        if duration > 0:
            steps = np.array([propagator(obs.H_o + obs.coupling * value * obs.G_o, duration)
                              for value in ens.eigenvalues.tolist()])
            W = steps[prefixes[:, col]] @ W
    V = propagator(obs.H_o, t).conj().T @ W
    distinct = V @ obs.rho_o @ V.conj().transpose(0, 2, 1)
    states = distinct[inverse]
    mean = states.mean(axis=0)
    if ens.size > 1:
        var = np.mean(np.abs(states - mean) ** 2, axis=0) * ens.size / (ens.size - 1)
        stderr = np.sqrt(var / ens.size)
    else:
        stderr = np.zeros_like(mean, dtype=float)
    return SurrogateAverage(mean=mean, stderr=stderr, size=ens.size)


class StateComparison(NamedTuple):
    trace_distance: float
    max_z: float


def compare(exact, mc: SurrogateAverage):
    """Trace distance and the largest entrywise deviation over standard error.

    Entries whose deviation is at most 1e-12 get z = 0 (deterministic entries
    have vanishing standard error and would otherwise divide roundoff by
    roundoff); a larger deviation with zero standard error gives z = inf.
    """
    exact = np.asarray(exact, dtype=complex)
    if exact.shape != mc.mean.shape:
        raise DimensionMismatch(f"compare: shapes {exact.shape} vs {mc.mean.shape}")
    dev = np.abs(exact - mc.mean)
    z = np.zeros(dev.shape, dtype=float)
    significant = dev > 1e-12
    with np.errstate(divide="ignore"):
        z[significant] = dev[significant] / mc.stderr[significant]
    return StateComparison(trace_distance(exact, mc.mean), float(np.max(z)))

