"""A quantum system coupled to the measured observable, and its surrogate.

The joint model is H_os = H_o ⊗ 1 + 1 ⊗ H + λ G_o ⊗ F, formed once by
``JointScenario`` as its ``H``. The exact reduced state of the coupled
system (interaction picture) is computed by a full joint matrix exponential
of ``H`` followed by a partial trace and a frame rotation — never by a
perturbative series. When the observable admits a surrogate field, the
same reduced state is reproduced by averaging the propagation under the
stochastic Hamiltonian H_o + λ f(τ) G_o over sampled trajectories;
each piecewise-constant segment contributes one exact matrix exponential.
The averages at all probe times of a run come from one walk down the
ensemble's prefix tree, which the sampler's descent numbered, level by level:
each distinct prefix of each level is propagated by one product from its
parent, for every trajectory that shares it; each probe time in a level's
slot extends the parents' propagators by its partial segment, forms U_o(t)
once and each state's deviation from the mean once per distinct prefix. The outcome
Hamiltonians H_o + λ a G_o are diagonalized once per walk. Every gather of a
stack is one ``take`` along axis 0, and only the gathers to trajectory order
are of size N: for P distinct prefixes at the last level
the working set peaks at about N·(d_o²·16 + 8) + 4·P·d_o²·16 bytes (README
gives the bound).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionCap, DimensionMismatch
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_complex_matrix,
    evolve,
    hermitian_eigh,
    partial_trace,
    propagator,
    require_density,
    require_hermitian,
    trace_distance,
)
from .process import DEFAULT_JOINT_DIM_CAP, QuantumSystem
from .sampler import Ensemble, _slot


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
    """An observer coupled to a measured system, within the dimension cap.

    ``H`` is the joint Hamiltonian H_o ⊗ 1 + 1 ⊗ H + λ G_o ⊗ F, formed once.
    """

    def __init__(self, obs: ObserverSystem, sys: QuantumSystem, dim_cap=DEFAULT_JOINT_DIM_CAP):
        joint = obs.dim * sys.dim
        if joint > dim_cap:
            raise DimensionCap(f"joint dimension {joint} exceeds cap {dim_cap}")
        self.obs, self.sys = obs, sys
        self.H = (np.kron(obs.H_o, np.eye(sys.dim)) + np.kron(np.eye(obs.dim), sys.H)
                  + obs.coupling * np.kron(obs.G_o, sys.F.observable()))


def exact_reduced_state(js: JointScenario, t):
    """Interaction-picture reduced state U_o†(t) tr_s[ρ_os(t)] U_o(t), ρ_os evolved by ``js.H``."""
    U = propagator(js.H, t)
    joint = U @ np.kron(js.obs.rho_o, js.sys.rho0) @ U.conj().T
    reduced = partial_trace(joint, (js.obs.dim, js.sys.dim))
    U_o = propagator(js.obs.H_o, t)
    return U_o.conj().T @ reduced @ U_o


class SurrogateAverage(NamedTuple):
    """Monte-Carlo mean state with per-entry standard errors."""

    mean: np.ndarray
    stderr: np.ndarray
    size: int


def surrogate_average(obs: ObserverSystem, ens: Ensemble, t):
    """The surrogate average at one time: ``surrogate_averages(obs, ens, [t])[0]``."""
    return surrogate_averages(obs, ens, [t])[0]


def surrogate_averages(obs: ObserverSystem, ens: Ensemble, times):
    """(1/N) Σ_j V_j ρ_o V_j† with standard errors at each time t, V_j = U_o(t)† W_j(t).

    W_j(t) is the Schrödinger propagator from 0 to t under H_o + λ f_j(τ) G_o:
    each piecewise-constant segment of trajectory j on [0, t] contributes one
    exact matrix exponential, left-multiplied in time order. It depends only
    on the outcomes up to the grid slot in force at t, so the ensemble's prefix
    tree is walked once, level by level: each distinct prefix extends its
    parent's propagator by one product, and each time in a level's slot takes
    its partial segment from the parents and its ranks from ``ens.ranks``. The
    outcome Hamiltonians are diagonalized once, each segment's exponentials
    are formed once per outcome value, and U_o(t) once per time. The mean and
    the complex per-entry sample variance are reduced over the trajectory
    index order, in sequence along axis 0 (deterministic for fixed N); each
    deviation is formed once per distinct prefix and gathered to that order
    by ``take``. Returns one ``SurrogateAverage`` per time, in the order of
    ``times``.
    """
    slots = [_slot(ens.grid, t) for t in times]
    out = [None] * len(slots)
    if not slots:
        return out
    m = len(ens.eigenvalues)
    eigs = [hermitian_eigh(obs.H_o + obs.coupling * value * obs.G_o)
            for value in ens.eigenvalues.tolist()]
    W = np.broadcast_to(np.eye(obs.dim, dtype=complex), (1, obs.dim, obs.dim))
    start, last = 0.0, max(slots)
    for col in range(last + 1):
        parent, outcome = np.divmod(ens.prefixes[col], m)
        W = W.take(parent, axis=0)
        for i in (i for i, k in enumerate(slots) if k == col):
            out[i] = _average(obs, ens, times[i], _extend(W, eigs, outcome, times[i] - start),
                              ens.ranks(col))
        if col < last:
            W = _extend(W, eigs, outcome, ens.grid.times[col + 1] - start)
            start = ens.grid.times[col + 1]
    return out


def _extend(W, eigs, outcome, duration):
    """The propagators W carried ``duration`` further, each under its outcome's Hamiltonian."""
    if duration > 0:
        return np.array([evolve(eig, duration) for eig in eigs]).take(outcome, axis=0) @ W
    return W


def _average(obs: ObserverSystem, ens: Ensemble, t, W, rank):
    """The average at t from the distinct prefixes' propagators W and each trajectory's rank."""
    V = propagator(obs.H_o, t).conj().T @ W
    distinct = V @ obs.rho_o @ V.conj().transpose(0, 2, 1)
    mean = distinct.take(rank, axis=0).mean(axis=0)
    if ens.size > 1:
        var = ((np.abs(distinct - mean) ** 2).take(rank, axis=0).mean(axis=0)
               * ens.size / (ens.size - 1))
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
    exact = as_complex_matrix(exact, "exact")
    if exact.shape != mc.mean.shape:
        raise DimensionMismatch(f"compare: shapes {exact.shape} vs {mc.mean.shape}")
    dev = np.abs(exact - mc.mean)
    z = np.zeros(dev.shape, dtype=float)
    significant = dev > 1e-12
    with np.errstate(divide="ignore"):
        z[significant] = dev[significant] / mc.stderr[significant]
    return StateComparison(trace_distance(exact, mc.mean), float(np.max(z)))

