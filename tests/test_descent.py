"""The batched descent over outcome histories against the per-trajectory oracles.

``sample_ensemble`` must draw, trajectory by trajectory, the outcomes of the
old collapse chain fed with the same Philox stream, on fixed and on drawn
unitary and GKLS sources, and ``surrogate_average``
must reduce to exactly the arrays of the old per-trajectory loop, on the
shipped joint configs and on drawn scenarios, zero signs included.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import (
    ObserverSystem,
    QuantumSystem,
    TimeGrid,
    rtn_model,
    sample_ensemble,
    sample_trajectory,
    spectral_decompose,
    surrogate_average,
)
from bornlab.config import load_config
from bornlab.errors import NumericalInvariantViolation
from bornlab.process import DEFAULT_TABLE_CAP
from bornlab.sampler import trajectory_rng
from conftest import (I2, SZ, rabi_system, random_density, random_grid, random_hermitian,
                      random_system)
from test_kernel import (DRAWN_CASES, GRID3, clustered_d4_m2, drawn_case, gkls_3level,
                         random_d6_m6, rtn, single_time)
import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
LONG_GRID = TimeGrid(tuple(0.1 * (k + 1) for k in range(21)))


def rabi(rng):
    return rabi_system(), GRID3


def rtn_long(rng):
    return rtn_model(0.7, I2 / 2), LONG_GRID


CASES = {  # name: (factory, ensemble size)
    "rabi": (rabi, 200),
    "clustered-d4-m2": (clustered_d4_m2, 200),
    "unitary-d6-m6-n3": (random_d6_m6, 200),
    "rtn": (rtn, 200),
    "gkls-d3": (gkls_3level, 200),
    "n1": (single_time, 200),
    "rtn-21-times": (rtn_long, 300),
}


def assert_descent_draws_the_chains_outcomes(source, grid, size):
    seed = 20260801
    ens = sample_ensemble(source, grid, size, seed)
    chain = oracles.MeasurementChain(source)
    expected = [chain.sample(grid, trajectory_rng(seed, j)) for j in range(size)]
    assert ens.indices.shape == (size, grid.n)
    for j, traj in enumerate(expected):
        assert ens.indices[j].tolist() == list(traj.indices), j
    assert ens.trajectories == tuple(expected)
    return ens


@pytest.mark.parametrize("case", list(CASES))
def test_descent_draws_the_chains_outcomes(case, rng):
    factory, size = CASES[case]
    source, grid = factory(rng)
    ens = assert_descent_draws_the_chains_outcomes(source, grid, size)
    if case == "rtn-21-times":  # sampling builds no table, so no table cap applies
        assert len(ens.eigenvalues) ** grid.n > DEFAULT_TABLE_CAP


@settings(max_examples=30, deadline=None)
@given(**DRAWN_CASES)
def test_descent_draws_the_chains_outcomes_on_drawn_sources(seed, d, n, degenerate, semigroup):
    assert_descent_draws_the_chains_outcomes(*drawn_case(seed, d, n, degenerate, semigroup), 100)


def test_uniforms_filled_in_place_are_successive_draws():
    row = np.empty(7)
    trajectory_rng(11, 3).random(out=row)
    rng = trajectory_rng(11, 3)
    assert row.tolist() == [rng.random() for _ in range(7)]


def test_zero_total_probability_is_rejected():
    sys = QuantumSystem(H=np.zeros((2, 2)), F=spectral_decompose(SZ), rho0=np.zeros((2, 2)))
    grid = TimeGrid((0.5, 1.0))
    with pytest.raises(NumericalInvariantViolation):
        sample_ensemble(sys, grid, 10, seed=1)
    with pytest.raises(NumericalInvariantViolation):
        sample_trajectory(sys, grid, 1)


def assert_same_bits(a, b):
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


@pytest.mark.parametrize("name", ["dephasing", "rabi_joint"])
def test_surrogate_average_equals_the_per_trajectory_loop(name):
    cfg = load_config(CONFIGS / f"{name}.yaml")
    js = cfg.build_joint()
    grid = cfg.grid(cfg.simulate.grid)
    ens = sample_ensemble(js.sys, grid, cfg.sampling.size, cfg.sampling.seed)
    for t in cfg.simulate.probe_times:
        avg, expected = surrogate_average(js.obs, ens, t), oracles.surrogate_average(js.obs, ens, t)
        assert avg.size == expected.size
        assert_same_bits(avg.mean, expected.mean)
        assert_same_bits(avg.stderr, expected.stderr)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d_o=st.integers(2, 4), d_s=st.integers(2, 4),
       n=st.integers(1, 5), size=st.integers(1, 400))
def test_surrogate_average_equals_the_loop_bit_for_bit(seed, d_o, d_s, n, size):
    rng = np.random.default_rng(seed)
    obs = ObserverSystem.from_operators(random_hermitian(rng, d_o), random_hermitian(rng, d_o),
                                        random_density(rng, d_o), rng.uniform(0.1, 1.0))
    grid = random_grid(rng, n)
    ens = sample_ensemble(random_system(rng, d_s), grid, size, seed)
    times = grid.times
    probes = [0.0, *times, *(0.5 * (np.r_[0.0, times[:-1]] + times))]
    for t in probes:
        avg, expected = surrogate_average(obs, ens, t), oracles.surrogate_average(obs, ens, t)
        assert avg.size == expected.size
        assert_same_bits(avg.mean, expected.mean)
        assert_same_bits(avg.stderr, expected.stderr)
