"""The batched descent over outcome histories against the per-trajectory oracles.

``sample_ensemble`` must draw, trajectory by trajectory, the outcomes of the
old collapse chain fed with the same uniforms, on fixed and on drawn unitary
and GKLS sources. Trajectory j's uniforms on an n-time grid are draws
j·n … j·n+n−1 of numpy's ``PCG64`` stream for the seed: the sampler's rows
must equal generator objects jumped ahead by j·n for any seed and index in
[0, 2**64), and one contiguous stream for a whole ensemble. Four pinned
values tell which of the two moved if they ever part. ``surrogate_average``
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
from bornlab.sampler import _uniforms
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
    expected = [chain.sample(grid, oracles.trajectory_rng(seed, j, grid.n))
                for j in range(size)]
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
    oracles.trajectory_rng(11, 3, 7).random(out=row)
    rng = oracles.trajectory_rng(11, 3, 7)
    assert row.tolist() == [rng.random() for _ in range(7)]


# (seed, trajectory index j, grid size n, k): trajectory j's k-th uniform on an n-time grid
PINNED_UNIFORMS = {
    (20260801, 0, 1, 0): "0x1.b3cf7b6a5c5f4p-2",
    (7, 2**32, 9, 5): "0x1.49503a34bb49cp-2",
    (2**130 + 99, 2**64 - 1, 13, 12): "0x1.0121845e0a324p-2",
    (0, 3, 21, 20): "0x1.925280dc75e2fp-1",
}
WIDE_INDICES = [2**32 - 1, 2**32, 2**40 + 5, 2**64 - 1]


def oracle_uniforms(seed, start, count, n):
    return np.array([oracles.trajectory_rng(seed, j, n).random(n)
                     for j in range(start, start + count)])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**192 - 1), n=st.integers(1, 21), count=st.integers(1, 8),
       start=st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 8)))
def test_uniforms_equal_numpys_generator_objects(seed, n, count, start):
    assert np.array_equal(_uniforms(seed, start, count, n), oracle_uniforms(seed, start, count, n))


def test_ensemble_uniforms_are_one_contiguous_stream():
    stream = np.random.Generator(np.random.PCG64(7)).random((2053, 6))
    assert np.array_equal(_uniforms(7, 0, 2053, 6), stream)
    assert np.array_equal(_uniforms(7, 1000, 53, 6), stream[1000:1053])


@pytest.mark.parametrize("key", list(PINNED_UNIFORMS))
def test_pinned_uniforms_name_the_side_that_moved(key):
    seed, j, n, k = key
    expected = float.fromhex(PINNED_UNIFORMS[key])
    assert oracles.trajectory_rng(seed, j, n).random(n)[k] == expected, (
        "numpy's PCG64 stream or its jump-ahead changed; the documented trajectory streams moved")
    assert _uniforms(seed, j, 1, n)[0, k] == expected, (
        "bornlab.sampler._uniforms no longer reproduces the documented trajectory streams")


@pytest.mark.parametrize("index", WIDE_INDICES)
def test_wide_spawn_indices_draw_the_chains_outcomes(index):
    source, grid = rtn_long(None)
    seed = 20260801
    rng = oracles.trajectory_rng(seed, index, grid.n)
    expected = oracles.MeasurementChain(source).sample(grid, rng)
    assert sample_trajectory(source, grid, seed, index=index) == expected
    assert np.array_equal(_uniforms(seed, index, 1, grid.n),
                          oracle_uniforms(seed, index, 1, grid.n))


@pytest.mark.parametrize("seed,index", [(1, -1), (-1, 0), (1, 2**64)])
def test_seed_or_spawn_index_outside_the_key_range_is_rejected(seed, index):
    source, grid = rabi(None)
    with pytest.raises(ValueError):
        sample_trajectory(source, grid, seed, index=index)
    if seed < 0:  # numpy's PCG64 refuses it too; a negative or wide jump would wrap around
        with pytest.raises(ValueError):
            oracles.trajectory_rng(seed, index, grid.n)


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
