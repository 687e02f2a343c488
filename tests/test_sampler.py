import io

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bornlab import (
    ObserverSystem,
    QuantumSystem,
    TimeGrid,
    born_table,
    rtn_model,
    sample_ensemble,
    surrogate_average,
)
from bornlab.errors import TimeOutOfRange
from bornlab.sampler import Ensemble, Trajectory, _relabel, _slot, export_csv, rank_histories
from conftest import I2, KET0, SZ, quasistatic_system, rabi_system
import oracles


def mixed_qubit_static():
    return QuantumSystem.from_operators(0.7 * SZ, SZ, I2 / 2)


class TestSampleTrajectory:
    def test_seed_determinism(self):
        sys = rabi_system()
        grid = TimeGrid((0.5, 1.0, 1.5))
        draw = oracles.sample_trajectory
        assert draw(sys, grid, 123) == draw(sys, grid, 123)
        # one 3-time trajectory per seed can coincide by chance; 64 of them cannot
        first, second = (sample_ensemble(sys, grid, 64, seed).indices for seed in (123, 124))
        assert not np.array_equal(first, second)

    def test_quasistatic_trajectories_constant(self):
        sys = mixed_qubit_static()
        grid = TimeGrid((0.4, 0.9, 1.7))
        for j in range(200):
            traj = oracles.sample_trajectory(sys, grid, 99, index=j)
            assert len(set(traj.values)) == 1

    def test_pure_state_draws_certain_outcome(self):
        sys = QuantumSystem.from_operators(np.zeros((2, 2)), SZ, KET0)
        traj = oracles.sample_trajectory(sys, TimeGrid((0.5, 1.0)), 7)
        assert traj.values == (1.0, 1.0)

    def test_ensemble_matches_indexed_single_draws(self):
        sys = rabi_system()
        grid = TimeGrid((0.5, 1.0))
        ens = sample_ensemble(sys, grid, 50, seed=31)
        for j in (0, 17, 49):
            assert ens.trajectories[j] == oracles.sample_trajectory(sys, grid, 31, index=j)


class TestEmpiricalStatistics:
    N = 20000

    def test_static_frequencies_match_weights(self):
        sys = mixed_qubit_static()
        ens = sample_ensemble(sys, TimeGrid((0.5,)), self.N, seed=13)
        emp = oracles.empirical_joint(ens)
        sigma = 3.0 / (2.0 * np.sqrt(self.N))
        assert abs(emp.dist[1] - 0.5) <= sigma

    def test_rabi_single_time_frequency(self):
        t = 0.9
        sys = rabi_system()
        ens = sample_ensemble(sys, TimeGrid((t,)), self.N, seed=17)
        p = np.cos(t / 2) ** 2
        emp = oracles.empirical_joint(ens)
        assert abs(emp.dist[1] - p) <= 3.0 * np.sqrt(p * (1 - p) / self.N)

    def test_single_trajectory_gives_unit_mass(self):
        sys = rabi_system()
        grid = TimeGrid((0.5, 1.0))
        ens = sample_ensemble(sys, grid, 1, seed=3)
        emp = oracles.empirical_joint(ens)
        assert abs(emp.dist[ens.trajectories[0].indices] - 1.0) <= 1e-12

    def test_rabi_joint_chi_square_full_scale(self):
        # distributional correctness at the stated scale: the chain samples
        # P_n even though this system violates KC
        N = 100_000
        sys = rabi_system()
        grid = TimeGrid((np.pi / 4, np.pi / 2))
        ens = sample_ensemble(sys, grid, N, seed=23)
        emp = oracles.empirical_joint(ens)
        exact = born_table(sys, grid)
        chi2 = 0.0
        dof = 0
        for tup, p in np.ndenumerate(exact.dist):
            if p > 1e-12:
                chi2 += N * (emp.dist[tup] - p) ** 2 / p
                dof += 1
        bound = scipy.stats.chi2.ppf(scipy.stats.norm.cdf(3.0), df=dof - 1)
        assert chi2 <= bound
        # per-entry binomial bound at 3 sigma
        for tup, p in np.ndenumerate(exact.dist):
            se = np.sqrt(max(p * (1 - p), 1e-12) / N)
            assert abs(emp.dist[tup] - p) <= 3.0 * se + 1e-12

    def test_three_level_chi_square(self, rng):
        from conftest import random_system

        N = 100_000
        sys = random_system(rng, 3)
        grid = TimeGrid((0.5, 1.1))
        ens = sample_ensemble(sys, grid, N, seed=37)
        emp = oracles.empirical_joint(ens)
        exact = born_table(sys, grid)
        chi2 = 0.0
        dof = 0
        for tup, p in np.ndenumerate(exact.dist):
            if p > 1e-9:
                chi2 += N * (emp.dist[tup] - p) ** 2 / p
                dof += 1
        bound = scipy.stats.chi2.ppf(scipy.stats.norm.cdf(3.0), df=dof - 1)
        assert chi2 <= bound


def autocorrelation(ens, k, j):
    """(1/N) Σ_n f_n(t_k) f_n(t_j) over the ensemble's trajectories."""
    f = ens.eigenvalues[ens.indices]
    return float((f[:, k] * f[:, j]).mean())


class TestAutocorrelation:
    def test_constant_plus_one_ensemble(self):
        sys = QuantumSystem.from_operators(np.zeros((2, 2)), SZ, KET0)
        ens = sample_ensemble(sys, TimeGrid((0.5, 1.5)), 100, seed=1)
        assert autocorrelation(ens, 1, 0) == 1.0

    def test_static_mixed_equal_times(self):
        sys = mixed_qubit_static()
        ens = sample_ensemble(sys, TimeGrid((0.5, 1.5)), 500, seed=2)
        # F² = 1 for sigma_z regardless of the drawn sign
        assert abs(autocorrelation(ens, 0, 0) - 1.0) <= 1e-12

    def test_rtn_two_time_decay(self):
        gamma = 0.7
        model = rtn_model(gamma, I2 / 2)
        grid = TimeGrid((0.4, 1.1))
        N = 20000
        ens = sample_ensemble(model, grid, N, seed=41)
        expected = 0.25 * np.exp(-2 * gamma * (1.1 - 0.4))
        # var(F(t)F(s)) = 1/16 - expected², se = sqrt(var/N)
        se = np.sqrt((1.0 / 16.0 - expected**2) / N)
        assert abs(autocorrelation(ens, 1, 0) - expected) <= 3.0 * se

    def test_out_of_range(self):
        sys = mixed_qubit_static()
        ens = sample_ensemble(sys, TimeGrid((0.5, 1.0)), 10, seed=3)
        obs = ObserverSystem.from_operators(np.zeros((2, 2)), SZ, I2 / 2, 0.3)
        with pytest.raises(TimeOutOfRange):
            surrogate_average(obs, ens, 1.5)
        with pytest.raises(TimeOutOfRange):
            surrogate_average(obs, ens, -0.1)
        # NaN compares False with both ends of [0, t_n]; it must not fall into a slot
        with pytest.raises(TimeOutOfRange):
            surrogate_average(obs, ens, float("nan"))


class TestTrajectoryInterpolation:
    def test_piecewise_constant_left_extension(self):
        traj = Trajectory(TimeGrid((1.0, 2.0, 3.0)), (0, 1, 0), (-1.0, 1.0, -1.0))

        def value_at(t):
            return traj.values[_slot(traj.grid, t)]

        assert value_at(0.0) == -1.0  # extended back
        assert value_at(1.5) == -1.0  # value at t_1 held on [t_1, t_2)
        assert value_at(2.0) == 1.0
        assert value_at(2.9) == 1.0
        assert value_at(3.0) == -1.0

    def test_segments_cover_interval(self):
        traj = Trajectory(TimeGrid((1.0, 2.0, 3.0)), (0, 1, 0), (-1.0, 1.0, -1.0))
        segs = oracles.segments(traj, 2.5)
        assert segs == [(-1.0, 2.0), (1.0, 0.5)]
        assert abs(sum(d for _, d in segs) - 2.5) <= 1e-12


class TestCsvExport:
    def test_format_and_determinism(self):
        sys = mixed_qubit_static()
        ens = sample_ensemble(sys, TimeGrid((0.5, 1.0)), 5, seed=8)
        buf_a, buf_b = io.StringIO(), io.StringIO()
        export_csv(ens, buf_a)
        export_csv(ens, buf_b)
        assert buf_a.getvalue() == buf_b.getvalue()
        lines = buf_a.getvalue().strip().split("\n")
        assert lines[0] == "t_1,t_2"
        assert len(lines) == 6
        for line in lines[1:]:
            assert all(float(v) in (-1.0, 1.0) for v in line.split(","))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 5), n=st.integers(1, 8),
           size=st.integers(1, 400), eigenvalues=st.lists(
               st.floats(allow_nan=False, allow_infinity=False), min_size=5, max_size=5))
    def test_bytes_equal_the_row_by_row_writer(self, seed, m, n, size, eigenvalues):
        # few distinct histories (a skewed draw) and up to m^n of them
        rng = np.random.default_rng(seed)
        p = rng.dirichlet(np.full(m, 0.3))
        ens = Ensemble(TimeGrid(tuple(0.5 * (k + 1) for k in range(n))),
                       rng.choice(m, size=(size, n), p=p), np.array(eigenvalues[:m]))
        buf, expected = io.StringIO(), io.StringIO()
        export_csv(ens, buf)
        oracles.export_csv(ens, expected)
        assert buf.getvalue() == expected.getvalue()


class TestRelabel:
    @settings(max_examples=100, deadline=None)
    @given(key=st.lists(st.integers(0, 63), min_size=1, max_size=200), spare=st.integers(0, 64))
    @example(key=[5] * 7, spare=0)  # a single repeated key
    @example(key=[0, 9, 9, 3, 0], spare=20)  # gaps below, between and above the keys
    @example(key=[63, 0, 63], spare=0)  # a key of size − 1
    def test_equals_unique_with_inverse(self, key, spare):
        key = np.array(key, dtype=np.intp)
        values, rank = _relabel(key, int(key.max()) + 1 + spare)
        expected_values, expected_rank = np.unique(key, return_inverse=True)
        np.testing.assert_array_equal(values, expected_values)
        np.testing.assert_array_equal(rank, expected_rank)


class TestRankHistories:
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 8), n=st.integers(1, 6),
           size=st.integers(1, 300), data=st.data())
    @example(seed=0, m=1, n=1, size=1, data=None)
    @example(seed=1, m=4, n=1, size=1, data=None)
    @example(seed=2, m=4, n=6, size=300, data=None)
    @example(seed=3, m=8, n=6, size=300, data=None)
    @example(seed=4, m=2, n=6, size=20000, data=None)  # the benchmark's N on s4's shape
    def test_equals_row_wise_unique(self, seed, m, n, size, data):
        # skewed draws give few distinct rows; a column prefix is the surrogate average's input
        rng = np.random.default_rng(seed)
        indices = rng.choice(m, size=(size, n), p=rng.dirichlet(np.full(m, 0.3)))
        k = n if data is None else data.draw(st.integers(1, n))
        rows, rank = rank_histories(indices[:, :k], m)
        expected_rows, expected_rank = np.unique(indices[:, :k], axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, expected_rows)
        np.testing.assert_array_equal(rank, expected_rank.reshape(-1))
        oracle_rows, oracle_rank = oracles.rank_histories(indices[:, :k], m)
        np.testing.assert_array_equal(rows, oracle_rows)
        np.testing.assert_array_equal(rank, oracle_rank)


def test_rtn_switching_fraction():
    gamma, tau, N = 0.7, 0.5, 20000
    model = rtn_model(gamma, I2 / 2)
    ens = sample_ensemble(model, TimeGrid((0.5, 1.0)), N, seed=55)
    p_flip = 0.5 * (1.0 - np.exp(-2.0 * gamma * tau))
    se = np.sqrt(p_flip * (1 - p_flip) / N)
    assert abs(np.mean(ens.indices[:, 1] != ens.indices[:, 0]) - p_flip) <= 3.0 * se


def test_quasistatic_sampler_never_switches():
    ens = sample_ensemble(quasistatic_system(), TimeGrid((0.4, 0.9, 1.3)), 500, seed=6)
    assert not np.diff(ens.indices, axis=1).any()
