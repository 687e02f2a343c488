import numpy as np
import pytest

from bornlab import (
    JointScenario,
    ObserverSystem,
    QuantumSystem,
    TimeGrid,
    compare,
    exact_reduced_state,
    sample_ensemble,
    surrogate_average,
)
from bornlab.errors import DimensionCap, DimensionMismatch, NonFinite
from bornlab.linalg import propagator, trace_distance
from bornlab.observer import SurrogateAverage
from bornlab.sampler import Ensemble
from conftest import (
    I2,
    KET0,
    KET1,
    PLUS,
    SZ,
    dephasing_scenario,
    random_density,
    random_hermitian,
    random_system,
    random_unitary,
)
import oracles


def random_scenario(rng, d_o=2, d_s=2, coupling=0.4):
    obs = ObserverSystem.from_operators(
        random_hermitian(rng, d_o), random_hermitian(rng, d_o),
        random_density(rng, d_o), coupling,
    )
    return JointScenario(obs=obs, sys=random_system(rng, d_s))


def joint_propagate(js, t):
    """exp(-i t H) (ρ_o ⊗ ρ) exp(+i t H) of the scenario's joint Hamiltonian H."""
    U = propagator(js.H, t)
    return U @ np.kron(js.obs.rho_o, js.sys.rho0) @ U.conj().T


class TestJointPropagate:
    def test_joint_hamiltonian_is_the_kronecker_sum(self, rng):
        js = random_scenario(rng, d_o=2, d_s=3, coupling=0.7)
        F = js.sys.F.observable()
        expected = (np.kron(js.obs.H_o, np.eye(3)) + np.kron(np.eye(2), js.sys.H)
                    + 0.7 * np.kron(js.obs.G_o, F))
        assert js.H.shape == (6, 6)
        assert np.max(np.abs(js.H - expected)) <= 1e-14

    def test_zero_coupling_factorizes(self, rng):
        js = random_scenario(rng, coupling=0.0)
        t = 0.9
        out = joint_propagate(js, t)

        def evolve(H, rho):
            w, V = np.linalg.eigh(H)
            U = (V * np.exp(-1j * t * w)) @ V.conj().T
            return U @ rho @ U.conj().T

        expected = np.kron(evolve(js.obs.H_o, js.obs.rho_o), evolve(js.sys.H, js.sys.rho0))
        assert np.max(np.abs(out - expected)) <= 1e-10

    def test_zero_time(self, rng):
        js = random_scenario(rng)
        assert np.allclose(joint_propagate(js, 0.0), np.kron(js.obs.rho_o, js.sys.rho0))

    def test_trace_and_positivity(self, rng):
        js = random_scenario(rng, d_o=2, d_s=3)
        out = joint_propagate(js, 1.3)
        assert abs(np.trace(out).real - 1.0) <= 1e-10
        assert np.min(np.linalg.eigvalsh(out)) >= -1e-10

    def test_dimension_cap(self, rng):
        obs = ObserverSystem.from_operators(
            random_hermitian(rng, 4), random_hermitian(rng, 4), random_density(rng, 4), 0.3
        )
        with pytest.raises(DimensionCap):
            JointScenario(obs=obs, sys=random_system(rng, 3), dim_cap=8)


class TestExactReducedState:
    def test_zero_coupling_is_constant(self, rng):
        js = random_scenario(rng, coupling=0.0)
        for t in (0.0, 0.7, 2.1):
            assert np.max(np.abs(exact_reduced_state(js, t) - js.obs.rho_o)) <= 1e-10

    def test_zero_time(self, rng):
        js = random_scenario(rng)
        assert np.allclose(exact_reduced_state(js, 0.0), js.obs.rho_o)

    def test_dephasing_coherence_oracle(self):
        # independent 4x4 oracle assembled from scratch
        lam = 0.25
        js = dephasing_scenario(lam)
        for t in (0.3, 0.8, 1.6):
            state = exact_reduced_state(js, t)
            H4 = lam * np.kron(SZ, SZ)
            w, V = np.linalg.eigh(H4)
            U = (V * np.exp(-1j * t * w)) @ V.conj().T
            full = U @ np.kron(PLUS, I2 / 2) @ U.conj().T
            oracle = full.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
            assert np.max(np.abs(state - oracle)) <= 1e-12
            assert abs(state[0, 1] - 0.5 * np.cos(2 * lam * t)) <= 1e-10

    def test_a_joint_hamiltonian_off_hermitian_by_roundoff_propagates(self):
        # F = Q diag(−1e5, 1e5, 1e5) Q† is exactly Hermitian; the joint Hamiltonian formed from
        # its projectors is off by up to ~1e-12. With H = 0 the coherence is
        # ½ Σ_f p(f) exp(−2iλft), p(f) = tr P(f) ρ, the exact oracle for every draw.
        lam, t, rng = 0.25, 1.0, np.random.default_rng(3)
        obs = ObserverSystem.from_operators(np.zeros((2, 2)), SZ, PLUS, lam)
        for _ in range(100):
            Q = random_unitary(rng, 3)
            F = (Q * [-1e5, 1e5, 1e5]) @ Q.conj().T
            system = QuantumSystem.from_operators(np.zeros((3, 3)), 0.5 * (F + F.conj().T),
                                                  np.eye(3) / 3)
            state = exact_reduced_state(JointScenario(obs=obs, sys=system), t)
            p = np.array([1 / 3, 2 / 3])
            oracle = 0.5 * np.sum(p * np.exp(-2j * lam * t * system.F.eigenvalues))
            assert abs(state[0, 1] - oracle) <= 1e-9
            assert abs(np.trace(state) - 1.0) <= 1e-12


def one_trajectory_state(obs, grid, indices, eigenvalues, t):
    """surrogate_average over the one-row ensemble with these outcome indices."""
    ens = Ensemble(grid, np.array([indices]), np.array(eigenvalues, dtype=float))
    avg = surrogate_average(obs, ens, t)
    assert avg.size == 1
    assert np.all(avg.stderr == 0.0)
    return avg.mean


class TestSurrogatePropagate:
    """The surrogate average of one trajectory is that trajectory's state."""

    def test_zero_field_returns_initial_state(self, rng):
        obs = ObserverSystem.from_operators(
            random_hermitian(rng, 2), random_hermitian(rng, 2), random_density(rng, 2), 0.7
        )
        out = one_trajectory_state(obs, TimeGrid((0.5, 1.0)), (0, 0), (0.0,), 1.0)
        assert np.max(np.abs(out - obs.rho_o)) <= 1e-10

    def test_constant_field_dephasing_phase(self):
        lam, f, t = 0.3, 1.0, 1.4
        obs = ObserverSystem.from_operators(np.zeros((2, 2)), SZ, PLUS, lam)
        out = one_trajectory_state(obs, TimeGrid((t,)), (0,), (f,), t)
        assert abs(out[0, 1] - 0.5 * np.exp(-2j * lam * f * t)) <= 1e-12

    def test_two_segment_composition_oracle(self, rng):
        obs = ObserverSystem.from_operators(
            random_hermitian(rng, 2), random_hermitian(rng, 2), random_density(rng, 2), 0.5
        )
        t = 1.4
        # value -1 is held on [0, t_2), value +1 on [t_2, t]
        def seg(val, dur):
            H = obs.H_o + obs.coupling * val * obs.G_o
            w, V = np.linalg.eigh(H)
            return (V * np.exp(-1j * dur * w)) @ V.conj().T

        W = seg(1.0, t - 1.1) @ seg(-1.0, 1.1)
        wo, Vo = np.linalg.eigh(obs.H_o)
        Uo = (Vo * np.exp(-1j * t * wo)) @ Vo.conj().T
        oracle = Uo.conj().T @ W @ obs.rho_o @ W.conj().T @ Uo
        out = one_trajectory_state(obs, TimeGrid((0.6, 1.1, 1.8)), (0, 1, 0), (-1.0, 1.0), t)
        assert np.max(np.abs(out - oracle)) <= 1e-12

    def test_frame_consistency_two_paths(self, rng):
        # library path (Schrödinger-then-rotate) vs an independently built
        # segmentwise interaction-picture product
        obs = ObserverSystem.from_operators(
            random_hermitian(rng, 3), random_hermitian(rng, 3), random_density(rng, 3), 0.6
        )
        grid = TimeGrid((0.4, 0.9, 1.5))
        t = 1.2

        def expm_h(H, s):
            w, V = np.linalg.eigh(H)
            return (V * np.exp(-1j * s * w)) @ V.conj().T

        # segments of the trajectory on [0, t]: value[0] on [0, t_2), then on
        segments = [(-1.0, 0.0, 0.9), (0.5, 0.9, t)]
        V_int = np.eye(3, dtype=complex)
        for value, start, end in segments:
            W_seg = expm_h(obs.H_o + obs.coupling * value * obs.G_o, end - start)
            V_int = expm_h(obs.H_o, end).conj().T @ W_seg @ expm_h(obs.H_o, start) @ V_int
        direct = V_int @ obs.rho_o @ V_int.conj().T
        out = one_trajectory_state(obs, grid, (0, 1, 0), (-1.0, 0.5), t)
        assert np.max(np.abs(out - direct)) <= 1e-10


class TestSurrogateAverage:
    def test_single_trajectory_average(self):
        js = dephasing_scenario(0.25)
        ens = sample_ensemble(js.sys, TimeGrid((0.5, 1.0)), 1, seed=2)
        avg = surrogate_average(js.obs, ens, 0.8)
        single = oracles.surrogate_propagate(js.obs, ens.trajectories[0], 0.8)
        assert np.max(np.abs(avg.mean - single)) <= 1e-14
        assert np.all(avg.stderr == 0.0)

    def test_quasistatic_dephasing_converges(self):
        js = dephasing_scenario(0.25)
        grid = TimeGrid((0.5, 1.0, 1.5, 2.0))
        ens = sample_ensemble(js.sys, grid, 4000, seed=9)
        for t in (0.5, 1.5):
            avg = surrogate_average(js.obs, ens, t)
            exact = exact_reduced_state(js, t)
            cmp_ = compare(exact, avg)
            assert cmp_.trace_distance <= 0.05
            assert cmp_.max_z <= 4.0

    def test_mean_is_unit_trace_hermitian(self):
        js = dephasing_scenario(0.4)
        ens = sample_ensemble(js.sys, TimeGrid((0.5, 1.0)), 50, seed=12)
        avg = surrogate_average(js.obs, ens, 1.0)
        assert abs(np.trace(avg.mean).real - 1.0) <= 1e-12
        assert np.max(np.abs(avg.mean - avg.mean.conj().T)) <= 1e-12


def settled(state):
    """A surrogate average with ``state`` as its mean and no sampling error."""
    return SurrogateAverage(np.asarray(state, dtype=complex), np.zeros(np.shape(state)), 1)


class TestCompare:
    def test_identical_states(self, rng):
        rho = random_density(rng, 2)
        out = compare(rho, settled(rho))
        assert out.trace_distance == 0.0
        assert out.max_z == 0.0

    def test_orthogonal_pure_states(self):
        assert abs(compare(KET0, settled(KET1)).trace_distance - 1.0) <= 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            compare(random_density(rng, 2), settled(random_density(rng, 3)))

    def test_a_non_finite_exact_state_is_refused(self, rng):
        exact = random_density(rng, 2)
        exact[0, 1] = np.nan
        with pytest.raises(NonFinite, match="exact: contains NaN"):
            compare(exact, settled(random_density(rng, 2)))


def test_surrogate_equals_exact_under_sf():
    """The central claim at desk scale: SF scenario, MC average → exact state."""
    js = dephasing_scenario(0.25)
    grid = TimeGrid((0.5, 1.0, 1.5, 2.0, 2.5))
    ens = sample_ensemble(js.sys, grid, 2000, seed=77)
    for t in grid.times:
        exact = exact_reduced_state(js, t)
        avg = surrogate_average(js.obs, ens, t)
        assert trace_distance(exact, avg.mean) <= 0.05


class TestRtnDephasing:
    """Telegraph-noise-driven dephasing: MC average vs exact grid limit vs
    the continuous-time closed form, with grid refinement."""

    GAMMA, LAM, T_FINAL = 0.7, 0.6, 1.5

    def _grid_limit(self, n_steps):
        """Transfer-matrix contraction over all grid trajectories: the exact
        value the Monte-Carlo average estimates (test-local oracle)."""
        from bornlab.linalg import vec
        from oracles import unvec

        dt = self.T_FINAL / n_steps
        vals = [-0.5, 0.5]
        flip = 0.5 * (1.0 - np.exp(-2.0 * self.GAMMA * dt))
        T = np.array([[1 - flip, flip], [flip, 1 - flip]])

        def hold(val, dur):
            W = np.diag(np.exp(-1j * dur * self.LAM * val * np.array([1.0, -1.0])))
            return np.kron(W.conj(), W)

        # first readout drives [0, 2dt); the k-th drives [t_k, t_{k+1})
        v = [0.5 * (hold(vals[f], 2 * dt) @ vec(PLUS)) for f in range(2)]
        for _ in range(2, n_steps):
            v = [hold(vals[f], dt) @ (T[0, f] * v[0] + T[1, f] * v[1]) for f in range(2)]
        return unvec(v[0] + v[1], 2)

    def _analytic_coherence(self):
        kappa = np.sqrt(self.GAMMA**2 - self.LAM**2)
        t = self.T_FINAL
        return 0.5 * np.exp(-self.GAMMA * t) * (
            np.cosh(kappa * t) + self.GAMMA / kappa * np.sinh(kappa * t)
        )

    def test_mc_average_matches_grid_limit(self):
        from bornlab import rtn_model

        n_steps, N = 30, 10_000
        model = rtn_model(self.GAMMA, I2 / 2)
        dt = self.T_FINAL / n_steps
        grid = TimeGrid(tuple(dt * (k + 1) for k in range(n_steps)))
        obs = ObserverSystem.from_operators(np.zeros((2, 2)), SZ, PLUS, self.LAM)
        ens = sample_ensemble(model, grid, N, seed=20260801)
        avg = surrogate_average(obs, ens, self.T_FINAL)
        assert trace_distance(avg.mean, self._grid_limit(n_steps)) <= 0.02

    def test_grid_refinement_converges_to_continuous_rtn(self):
        errors = [
            abs(self._grid_limit(n)[0, 1].real - self._analytic_coherence())
            for n in (5, 10, 30)
        ]
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] <= 2e-3
