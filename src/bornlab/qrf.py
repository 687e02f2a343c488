"""Semigroup-parameterized measurement statistics (quantum regression form).

Instead of a closed-system Hamiltonian, the observable's dynamics is given
by a GKLS semigroup: bi-probabilities become alternating compositions of
projector-sandwich superoperators and semigroup maps,

    Q_n(f, f_-) = tr[ ∏_{i=n..1} 𝒫(f_i, f_-i) Λ(t_i − t_{i-1}) ρ_a ],

with 𝒫(f_+, f_-) : X ↦ P(f_+) X P(f_-), Λ(τ) = exp(τ ℒ_total), t_0 = 0.
This module builds GKLS generators from rate tables, supplies Λ(τ) as the
step of the shared table kernel and the sampler (``dynamics``), and
classifies generators (block-triangular structure, NCGD) against the
consistency conditions. All of these read Λ(τ) from the generator's one cache.
The block violations are max over f and f₊ ≠ f₋ of |𝒫(f,f)ℒ𝒫(f₊,f₋)| (lower)
and of the mirrored |𝒫(f₊,f₋)ℒ𝒫(f,f)| (upper), one batched product per f.

Λ(τ) comes from ``expm``, Higham's scaling-and-squaring Padé algorithm
(SIAM J. Matrix Anal. Appl. 26, 2005) in numpy, so no run imports scipy's
linear algebra (about a third of a second of import). On drawn GKLS
generators (d = 2–8, every Padé degree and up to 3 squarings) it agrees with
scipy's ``expm`` to ≤ 6.5e-15 relative in the 1-norm, and on the shipped
``rtn`` and ``rotation`` generators for τ ∈ [0, 5] to ≤ 1.1e-15 absolute.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    NegativeRate,
    NonBlockDiagonalState,
    NonPositiveRate,
    NumericalInvariantViolation,
    UnmatchedFrequency,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Superoperator,
    commutator_superop,
    map_cache,
    require_density,
    require_hermitian,
    vec,
)
from .process import (DEFAULT_TABLE_CAP, TRACE_TOL, Dynamics, TimeGrid, biprob_table, born_table,
                      dynamics)
from .spectral import SpectralDecomposition, default_cluster_tol, spectral_decompose
from .consistency import ConditionRecord, ConsistencyReport, _record, _worst
# perfbench/tracing.py wraps qrf.check_cm and qrf.check_sf
from .consistency import check_cm, check_sf  # noqa: F401

_SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


# Padé degrees m of Higham (2005), Table 2.3: the largest ‖A‖₁ at which the
# [m/m] approximant of exp(A) has backward error below 2⁻⁵³, and its coefficients
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068e0, 13: 5.371920351148152e0}
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0, 2162160.0,
        110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
         129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0, 1323241920.0,
         40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def pade_order(norm):
    """(Padé degree m, squarings s) that ``expm`` uses for a matrix of 1-norm ``norm``."""
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            return m, 0
    return 13, max(0, math.ceil(math.log2(norm / _PADE_THETA[13])))


def expm(matrix, tau):
    """Λ = exp(τ·matrix) by scaling and squaring with a Padé approximant, in numpy.

    Higham, "The scaling and squaring method for the matrix exponential
    revisited", SIAM J. Matrix Anal. Appl. 26, 1179 (2005): the degree m and
    the s squarings come from ‖τ·matrix‖₁ (``pade_order``), then
    (V − U)⁻¹(V + U), with U odd and V even in A = τ·matrix / 2ˢ, is squared s
    times. The tests hold it to scipy's ``expm`` within 1e-13 relative in the
    1-norm (measured ≤ 6.5e-15) on drawn GKLS generators, at every degree and
    with squarings. A τ·matrix or a Λ that is not finite raises
    ``NumericalInvariantViolation`` naming τ, and no floating-point warning escapes.
    """
    with np.errstate(all="ignore"):
        A = tau * matrix
        norm = float(np.linalg.norm(A, 1))
        if not math.isfinite(norm):
            raise NumericalInvariantViolation(f"τℒ is not finite at τ = {tau!r}")
        m, s = pade_order(norm)
        b = _PADE_B[m]
        A = A / 2.0**s
        eye = np.eye(A.shape[0], dtype=A.dtype)
        A2 = A @ A
        if m == 13:
            A4 = A2 @ A2
            A6 = A4 @ A2
            U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
                     + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
            V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
                 + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
        else:
            powers = [eye, A2]
            while len(powers) <= m // 2:
                powers.append(powers[-1] @ A2)
            U = A @ sum(c * P for c, P in zip(b[1::2], powers))
            V = sum(c * P for c, P in zip(b[0::2], powers))
        out = np.linalg.solve(V - U, V + U)
        for _ in range(s):
            out = out @ out
        if not np.isfinite(out).all():
            raise NumericalInvariantViolation(f"Λ(τ) is not finite at τ = {tau!r}")
    return out


def _trace_preserving_map(matrix, dim, tau):
    """Λ(τ) = ``expm(matrix, tau)``, refused if roundoff has broken its trace preservation.

    A trace-preserving Λ has vec(1)ᵀΛ = vec(1)ᵀ, with ``vec`` stacking columns.
    When ‖vec(1)ᵀΛ(τ) − vec(1)ᵀ‖∞ exceeds ``TRACE_TOL``, as it can for a stiff
    generator after many squarings, ``NumericalInvariantViolation`` names τ.
    """
    out = expm(matrix, tau)
    ones = np.arange(dim) * (dim + 1)  # where vec(1) holds its ones
    row = out[ones].sum(axis=0)
    row[ones] -= 1.0
    defect = float(np.max(np.abs(row)))
    if defect > TRACE_TOL:
        raise NumericalInvariantViolation(
            f"Λ(τ) does not preserve the trace at τ = {tau!r}: "
            f"‖vec(1)ᵀΛ − vec(1)ᵀ‖∞ = {defect:.3e} beyond {TRACE_TOL}"
        )
    return out


class GKLSGenerator:
    """ℒ_total = −i[H_a, ·] + μ² ℒ with ℒ in GKLS form."""

    def __init__(self, dim, total: Superoperator):
        self.dim, self.total = dim, total
        # Λ(τ) = exp(τ ℒ_total), formed and checked once per τ for every table, descent and check
        self.semigroup = map_cache(lambda tau: _trace_preserving_map(total.matrix, dim, tau))


def _validate_generator(matrix, dim):
    """Trace and Hermiticity preservation on the matrix-unit basis, to 1e-12 relative.

    out[k, l] = ℒE_kl is column k + l·d of the matrix, unstacked. As in the product
    ℒ vec(E_kl), a row of ℒ holding a NaN or an inf reads as NaN in every column.
    The error names the first (k, l) in row-major order that fails either check.
    """
    tol = 1e-12 * max(1.0, float(np.max(np.abs(matrix))))
    cols = np.where(np.isfinite(matrix).all(axis=1, keepdims=True), matrix, np.nan)
    out = cols.T.reshape(dim, dim, dim, dim).transpose(1, 0, 3, 2)
    # summed along a contiguous last axis, the traces keep np.trace's bits
    trace = np.abs(np.ascontiguousarray(out.diagonal(axis1=2, axis2=3)).sum(axis=-1))
    # ℒE_kl† = ℒE_lk for a Hermiticity-preserving ℒ
    herm = np.max(np.abs(out.swapaxes(0, 1) - out.conj().swapaxes(2, 3)), axis=(2, 3))
    failed = np.flatnonzero((trace > tol) | (herm > tol))
    if failed.size:
        k, l = divmod(int(failed[0]), dim)
        if trace[k, l] > tol:
            raise NumericalInvariantViolation(
                f"generator does not preserve trace: |tr ℒE_{k}{l}| = {trace[k, l]:.3e}"
            )
        raise NumericalInvariantViolation("generator does not preserve Hermiticity on the basis")


def build_gkls(H_a, G_a, rates, mu=1.0, cluster_tol=None,
               hermiticity_tol=DEFAULT_TOLERANCES.hermiticity):
    """Assemble a GKLS generator from a coupling operator and a rate table.

    ``rates`` maps Bohr frequencies ω of H_a to complex rates γ_ω with
    Re γ_ω ≥ 0. Each frequency component of the coupling operator is

        G_ω = Σ_{α,α'} δ(ω − ε_α + ε_{α'}) |α⟩⟨α| G_a |α'⟩⟨α'|

    and the dissipative part is
    ℒ = −i[Σ_ω Im(γ_ω) G_ω†G_ω, ·] + Σ_ω 2 Re(γ_ω)(G_ω · G_ω† − ½{G_ω†G_ω, ·}).
    """
    Hm = require_hermitian(H_a, hermiticity_tol, "H_a")
    Gm = require_hermitian(G_a, hermiticity_tol, "G_a")
    if Hm.shape != Gm.shape:
        raise DimensionMismatch("H_a and G_a must share a dimension")
    d = Hm.shape[0]
    w, V = np.linalg.eigh(Hm)
    tol = default_cluster_tol(w) if cluster_tol is None else float(cluster_tol)
    bohr = w[:, None] - w[None, :]
    G_tilde = V.conj().T @ Gm @ V

    dissipator = np.zeros((d * d, d * d), dtype=complex)
    lamb_shift = np.zeros((d, d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    for omega, gamma in (rates.items() if hasattr(rates, "items") else rates):
        omega = float(omega)
        gamma = complex(gamma)
        if gamma.real < 0:
            raise NegativeRate(f"rate at ω={omega} has Re(γ)={gamma.real} < 0")
        mask = np.abs(bohr - omega) <= tol
        if not mask.any():
            raise UnmatchedFrequency(
                f"ω={omega} is not a Bohr frequency of H_a within {tol:.1e}"
            )
        G = V @ (G_tilde * mask) @ V.conj().T
        GdG = G.conj().T @ G
        lamb_shift += gamma.imag * GdG
        jump = np.kron(G.conj(), G)  # X ↦ G X G†
        anti = 0.5 * (np.kron(eye, GdG) + np.kron(GdG.T, eye))
        dissipator += 2.0 * gamma.real * (jump - anti)
    dissipator += -1j * commutator_superop(lamb_shift).matrix

    total = commutator_superop(Hm).matrix * (-1j) + (mu**2) * dissipator
    _validate_generator(total, d)
    return GKLSGenerator(dim=d, total=Superoperator(d, total))


def generator_from_matrix(matrix):
    """Wrap a raw d²×d² generator matrix; validates preservation invariants."""
    M = np.asarray(matrix, dtype=complex)
    d2 = M.shape[0]
    d = int(round(np.sqrt(d2)))
    if M.shape != (d2, d2) or d * d != d2:
        raise DimensionMismatch(f"generator matrix must be d²×d², got {M.shape}")
    _validate_generator(M, d)
    return GKLSGenerator(dim=d, total=Superoperator(d, M))


class QRFModel:
    """Semigroup generator + measured observable + initial state."""

    def __init__(self, generator: GKLSGenerator, F_a: SpectralDecomposition, rho_a):
        if F_a.dim != generator.dim:
            raise DimensionMismatch(f"observable dim {F_a.dim} vs generator dim {generator.dim}")
        self.generator, self.F_a, self.rho_a = generator, F_a, rho_a

    @property
    def dim(self):
        return self.generator.dim


def semigroup(model_or_generator, tau):
    """Λ(τ) = exp(τ ℒ_total) as a d²×d² matrix, read-only: the generator's cache shares it."""
    return getattr(model_or_generator, "generator", model_or_generator).semigroup(float(tau))


def pair_superops(F_a: SpectralDecomposition):
    """𝒫(f_+, f_-) for all outcome pairs, stacked (m², d², d²), index f_+·m + f_-."""
    P = F_a.projectors
    m = F_a.n_outcomes
    return np.array([np.kron(P[b].T, P[a]) for a in range(m) for b in range(m)])


def dephasing_projector(F_a: SpectralDecomposition):
    """Δ = Σ_f 𝒫(f, f); projects onto the observable's block-diagonal sector."""
    return sum(np.kron(P.T, P) for P in F_a.projectors)


@dynamics.register
def _(model: QRFModel):
    d = model.dim
    perm = np.arange(d * d).reshape(d, d).T.ravel()  # row-major ↔ column-stacking

    def step(X, gap):
        L = semigroup(model, gap)[np.ix_(perm, perm)].T
        return (X.reshape(-1, d * d) @ L).reshape(X.shape)

    return Dynamics(model.rho_a, model.F_a, step)


def qrf_bi_probability(model: QRFModel, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Bi-probability table of a semigroup model on a grid."""
    return biprob_table(model, grid, cap)


def qrf_born(model: QRFModel, grid: TimeGrid, cap=DEFAULT_TABLE_CAP):
    """Born table of a semigroup model on a grid."""
    return born_table(model, grid, cap)


def rtn_model(gamma, rho_a):
    """Qubit whose surrogate field is random telegraph noise.

    F = ½σ_z with outcomes ±½; ℒ_total = −(γ/2)[σ_x, [σ_x, ·]], which flips
    the observable between its two values at rate γ.
    """
    if gamma <= 0:
        raise NonPositiveRate(f"RTN rate must be positive, got {gamma}")
    rho = require_density(rho_a, name="rho_a")
    if rho.shape[0] != 2:
        raise DimensionMismatch("RTN model needs a qubit state")
    gen = build_gkls(
        H_a=np.zeros((2, 2), dtype=complex),
        G_a=_SIGMA_X,
        rates={0.0: gamma / 2.0},
        mu=1.0,
    )
    return QRFModel(generator=gen, F_a=spectral_decompose(0.5 * _SIGMA_Z), rho_a=rho)


def grid_pairs(grid: TimeGrid):
    """Every (t_j, t_i) with i < j of the grid: the pairs NCGD is checked on for it."""
    ts = grid.times
    return [(ts[j], ts[i]) for j in range(len(ts)) for i in range(j)]


def check_ncgd(model: QRFModel, time_pairs, epsilon=DEFAULT_TOLERANCES.consistency):
    """The "NCGD" record of ΔΛ(t)Δ = ΔΛ(t−t′)ΔΛ(t′)Δ over the supplied (t, t′) pairs."""
    D = dephasing_projector(model.F_a)
    checked = [[float(t), float(tp)] for t, tp in time_pairs]
    for t, tp in checked:
        if not t > tp > 0:
            raise ValueError(f"NCGD needs t > t' > 0, got ({t}, {tp})")
    defects = (((t, tp), D @ semigroup(model, t) @ D
                - D @ semigroup(model, t - tp) @ D @ semigroup(model, tp) @ D) for t, tp in checked)
    worst, witness = _worst(defects, lambda pair, _: {"t": pair[0], "t_prime": pair[1]})
    return _record("NCGD", worst, witness, epsilon, {"time_pairs": checked})


class BlockStructure(NamedTuple):
    lower: bool
    upper: bool
    labels: tuple[str, ...]
    lower_violation: float
    upper_violation: float
    label_residuals: dict


def classify_block_structure(model: QRFModel, epsilon=DEFAULT_TOLERANCES.consistency,
                             sample_times=(0.5, 1.0)):
    """Block-triangular structure of the generator w.r.t. the eigen-sectors.

    lower ⟺ 𝒫(f,f) ℒ_total 𝒫(f_+,f_-) = 0 for all f and f_+ ≠ f_-
    (coherence non-activating: ΔΛ(t)Δ = ΔΛ(t));
    upper ⟺ the mirrored condition (coherence non-generating:
    ΔΛ(t)Δ = Λ(t)Δ). Labels are verified directly on ``sample_times``.
    """
    m = model.F_a.n_outcomes
    K = pair_superops(model.F_a).reshape(m, m, model.dim**2, model.dim**2)
    K_off = K[~np.eye(m, dtype=bool)]  # 𝒫(f_+, f_-), f_+ ≠ f_-
    L = model.generator.total.matrix
    K_off_L = K_off @ L
    lower_v = upper_v = 0.0
    for f in range(m):  # one f at a time bounds the batch at (m² − m) d⁴ entries
        lower_v = max(lower_v, float(np.max(np.abs(K[f, f] @ L @ K_off), initial=0.0)))
        upper_v = max(upper_v, float(np.max(np.abs(K_off_L @ K[f, f]), initial=0.0)))
    lower = lower_v <= epsilon
    upper = upper_v <= epsilon

    D = dephasing_projector(model.F_a)
    residuals = {}
    for label, holds, left in (("coherence non-activating", lower, True),
                               ("coherence non-generating", upper, False)):
        if holds:
            residuals[label] = max(
                float(np.max(np.abs(D @ Lam @ D - (D @ Lam if left else Lam @ D))))
                for Lam in (semigroup(model, t) for t in sample_times)
            )
    labels = tuple(label for label, r in residuals.items() if r <= epsilon)
    return BlockStructure(lower, upper, labels, lower_v, upper_v, residuals)


class EquivalenceReport(NamedTuple):
    ncgd: ConditionRecord
    cm: ConditionRecord
    agree: bool


def verify_ncgd_cm_equivalence(model: QRFModel, ncgd: ConditionRecord, cm: ConsistencyReport,
                               epsilon=DEFAULT_TOLERANCES.consistency):
    """``ncgd``, NCGD on a grid's ``grid_pairs``, vs ``cm``, CM on its bi-probabilities.

    Requires a block-diagonal initial state (the equivalence hypothesis);
    verdicts of the two checks must agree there.
    """
    D = dephasing_projector(model.F_a)
    v = vec(model.rho_a)
    defect = float(np.max(np.abs(D @ v - v)))
    if defect > epsilon:
        raise NonBlockDiagonalState(
            f"rho_a deviates from block-diagonal by {defect:.3e} > {epsilon:.1e}"
        )
    return EquivalenceReport(ncgd=ncgd, cm=cm.record("CM"),
                             agree=ncgd.passed == cm.record("CM").passed)

