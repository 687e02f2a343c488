import itertools

import numpy as np
import pytest

from bornlab import QuantumSystem, TimeGrid, biprob_table, born_table
from bornlab.errors import TableTooLarge
from conftest import (
    KET0,
    SZ,
    quasistatic_system,
    rabi_system,
    random_grid,
    random_system,
)
import oracles


def heis(P, H, t):
    """Test-local Heisenberg projector oracle built from scratch."""
    w, V = np.linalg.eigh(H)
    U = (V * np.exp(-1j * t * w)) @ V.conj().T
    return U.conj().T @ P @ U


class TestBornDistribution:
    def test_frozen_pure_state(self):
        sys = QuantumSystem.from_operators(np.zeros((2, 2)), SZ, KET0)
        table = born_table(sys, TimeGrid((0.5, 1.0, 2.0)))
        # sigma_z outcomes ascend: index 1 is +1
        assert abs(table.dist[1, 1, 1] - 1.0) <= 1e-12
        assert abs(table.dist.sum() - 1.0) <= 1e-12

    def test_quasistatic_product_form(self):
        sys = quasistatic_system()
        grid = TimeGrid((0.3, 0.9, 1.4))
        table = born_table(sys, grid)
        weights = [np.trace(P @ sys.rho0).real for P in sys.F.projectors]
        for tup, p in np.ndenumerate(table.dist):
            expected = weights[tup[0]] if len(set(tup)) == 1 else 0.0
            assert abs(p - expected) <= 1e-12

    def test_rabi_single_time_cosine(self):
        sys = rabi_system()
        for t in (0.4, np.pi / 4, 1.9):
            table = born_table(sys, TimeGrid((t,)))
            assert abs(table.dist[1] - np.cos(t / 2) ** 2) <= 1e-12

    def test_matches_direct_oracle(self, rng):
        sys = random_system(rng, 3)
        grid = TimeGrid((0.4, 1.1))
        table = born_table(sys, grid)
        projs = sys.F.projectors
        for f2, f1 in itertools.product(range(3), repeat=2):
            A1 = heis(projs[f1], sys.H, grid.times[0])
            A2 = heis(projs[f2], sys.H, grid.times[1])
            oracle = np.trace(A2 @ A1 @ sys.rho0 @ A1 @ A2).real
            assert abs(table.dist[f1, f2] - oracle) <= 1e-12

    def test_table_cap(self):
        sys = rabi_system()
        with pytest.raises(TableTooLarge):
            born_table(sys, TimeGrid((1.0, 2.0, 3.0)), cap=7)


class TestBiProbability:
    def test_single_time_is_diagonal(self, rng):
        sys = random_system(rng, 4)
        table = biprob_table(sys, TimeGrid((0.8,)))
        for f, g in itertools.product(range(4), repeat=2):
            if f != g:
                assert abs(table.dist[f, g]) <= 1e-12

    def test_quasistatic_delta_structure(self):
        sys = quasistatic_system()
        grid = TimeGrid((0.3, 0.9))
        table = biprob_table(sys, grid)
        weights = [np.trace(P @ sys.rho0).real for P in sys.F.projectors]
        for tup, q in np.ndenumerate(table.dist):
            f, g = tup[0::2], tup[1::2]
            same = f == g and len(set(f)) == 1
            expected = weights[f[0]] if same else 0.0
            assert abs(q - expected) <= 1e-12

    def test_rabi_offdiagonal_entry_is_large(self):
        # pinned oracle value: max off-diagonal |Q_2| = 0.125 at Omega*t = pi/4
        t = np.pi / 4
        table = biprob_table(rabi_system(), TimeGrid((t, 2 * t)))
        entry = table.dist[1, 0, 1, 1]  # f_1 = +1, f_-1 = -1, f_2 = f_-2 = +1
        assert abs(entry) > 0.01
        assert abs(abs(entry) - 0.125) <= 1e-10

    def test_diagonal_matches_born(self, rng):
        sys = random_system(rng, 3)
        grid = TimeGrid((0.2, 0.7, 1.5))
        diag = biprob_table(sys, grid).diagonal()
        born = born_table(sys, grid)
        assert np.max(np.abs(diag.dist - born.dist)) <= 1e-12

    def test_hermitian_symmetry(self, rng):
        sys = random_system(rng, 3)
        table = biprob_table(sys, TimeGrid((0.5, 1.2)))
        swapped = np.transpose(table.dist, (1, 0, 3, 2))
        assert np.max(np.abs(table.dist - swapped.conj())) <= 1e-12

    def test_last_index_diagonality(self, rng):
        sys = random_system(rng, 4)
        table = biprob_table(sys, TimeGrid((0.4, 0.9)))
        m = table.n_outcomes
        flat = table.dist.reshape(-1, m, m)
        off = flat.copy()
        off[:, np.arange(m), np.arange(m)] = 0.0
        assert np.max(np.abs(off)) <= 1e-12

    def test_diagonal_entries_real_nonnegative(self, rng):
        sys = random_system(rng, 3)
        diag = biprob_table(sys, TimeGrid((0.4, 0.9))).diagonal()
        assert np.min(diag.dist) >= -1e-12


class TestConditionalState:
    """Conditional probabilities read off the Born table."""

    def test_empty_history_free_evolution(self, rng):
        sys = random_system(rng, 3)
        t = 0.8
        table = born_table(sys, TimeGrid((t,)))
        w, V = np.linalg.eigh(sys.H)
        U = (V * np.exp(-1j * t * w)) @ V.conj().T
        rho_t = U @ sys.rho0 @ U.conj().T
        for f, P in enumerate(sys.F.projectors):
            assert abs(table.dist[f] - np.trace(P @ rho_t).real) <= 1e-12

    def test_quasistatic_history_confines_support(self):
        sys = quasistatic_system()
        table = born_table(sys, TimeGrid((0.5, 2.0)))
        assert abs(table.dist[1, 0]) <= 1e-12
        assert abs(table.dist[1, 1] - table.dist.sum(axis=1)[1]) <= 1e-12

    def test_rabi_conditional_cosine(self):
        sys = rabi_system()
        t1, t2 = 0.6, 1.5
        table = born_table(sys, TimeGrid((t1, t2)))
        p_up = table.dist[1, 1] / table.dist.sum(axis=1)[1]
        assert abs(p_up - np.cos((t2 - t1) / 2) ** 2) <= 1e-12

    def test_chain_rule_reproduces_joint(self, rng):
        sys = random_system(rng, 3)
        grid = TimeGrid((0.4, 0.9, 1.6))
        table = born_table(sys, grid)
        for tup, p in np.ndenumerate(table.dist):
            if p <= 1e-6:
                continue
            chain = 1.0
            for k in range(grid.n):
                rho_k = oracles.conditional_state(sys, tup[:k], grid.times[:k], grid.times[k])
                chain *= np.trace(sys.F.projectors[tup[k]] @ rho_k).real
            assert abs(chain - p) <= 1e-10


class TestMarginalize:
    def test_last_index_causality(self, rng):
        sys = random_system(rng, 3)
        grid = TimeGrid((0.3, 0.8, 1.2))
        full = born_table(sys, grid)
        reduced = born_table(sys, grid.prefix(2))
        assert np.max(np.abs(full.dist.sum(axis=2) - reduced.dist)) <= 1e-12

    def test_deterministic_table(self):
        sys = QuantumSystem.from_operators(np.zeros((2, 2)), SZ, KET0)
        table = born_table(sys, TimeGrid((0.5, 1.0)))
        assert abs(table.dist.sum(axis=0)[1] - 1.0) <= 1e-12

    def test_interior_marginal_detects_kc_violation(self):
        t = np.pi / 4
        grid = TimeGrid((t, 2 * t))
        sys = rabi_system()
        full = born_table(sys, grid)
        fresh = oracles.merged_gap_table(born_table, sys, grid, 1)
        gap = np.max(np.abs(full.dist.sum(axis=0) - fresh.dist))
        assert abs(gap - 0.25) <= 1e-10  # pinned oracle value

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            oracles.without(TimeGrid((0.5, 1.0)), 3)
        with pytest.raises(IndexError):
            oracles.without(TimeGrid((0.5, 1.0)), 0)
        with pytest.raises(IndexError):
            oracles.without(TimeGrid((0.5,)), 1)

    def test_pair_marginalization(self, rng):
        sys = random_system(rng, 2)
        grid = TimeGrid((0.5, 1.0))
        table = biprob_table(sys, grid)
        fresh = oracles.merged_gap_table(biprob_table, sys, grid, 1)
        assert np.max(np.abs(table.dist.sum(axis=(0, 1)) - fresh.dist)) <= 1e-12


class TestAlgebraicInvariants:
    """Spot versions of the acceptance identity suite on a few draws."""

    def test_identities_random_systems(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(2, 4))
            sys = random_system(rng, d, degenerate_F=bool(rng.integers(0, 2)))
            grid = random_grid(rng, n)
            born = born_table(sys, grid)
            bip = biprob_table(sys, grid)
            # normalization and diagonal extraction
            assert abs(born.dist.sum() - 1.0) <= 1e-10
            assert np.max(np.abs(bip.diagonal().dist - born.dist)) <= 1e-12
            # causality
            reduced = born_table(sys, grid.prefix(n - 1))
            assert np.max(np.abs(born.dist.sum(axis=n - 1) - reduced.dist)) <= 1e-10
            # bi-consistency over every pair index
            for i in range(1, n + 1):
                fresh = oracles.merged_gap_table(biprob_table, sys, grid, i)
                pair = bip.dist.sum(axis=(2 * i - 2, 2 * i - 1))
                assert np.max(np.abs(pair - fresh.dist)) <= 1e-10
