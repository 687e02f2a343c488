"""The shared table kernel against the independent per-source oracles, on fixed and drawn sources."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bornlab import (
    QRFModel,
    QuantumSystem,
    TimeGrid,
    biprob_table,
    born_table,
    build_gkls,
    rtn_model,
    sample_ensemble,
    spectral_decompose,
)
from bornlab.errors import TableTooLarge
from bornlab.linalg import MAP_CACHE_SIZE, propagator
from bornlab.process import DEFAULT_TABLE_CAP, MAX_AXES, _table
from bornlab.qrf import generator_from_matrix, qrf_bi_probability, qrf_born, semigroup
from bornlab.spectral import SpectralDecomposition
from conftest import (ROOT, SX, rabi_system, random_density, random_grid, random_hermitian,
                      random_unitary)
import oracles

GRID3 = TimeGrid((0.3, 0.8, 1.7))


def _degenerate_F(rng, values):
    """Hermitian F with the given (repeated) eigenvalues in a random basis."""
    V = random_unitary(rng, len(values))
    return (V * np.asarray(values, dtype=float)) @ V.conj().T


def _unitary(rng, F, grid):
    d = F.shape[0]
    sys = QuantumSystem.from_operators(random_hermitian(rng, d), F, random_density(rng, d))
    return sys, grid


def one_level(rng):
    return QuantumSystem.from_operators([[0.7]], [[2.0]], [[1.0]]), GRID3


def one_level_semigroup(rng):
    model = QRFModel(
        generator=generator_from_matrix(np.zeros((1, 1))),
        F_a=spectral_decompose([[2.0]]),
        rho_a=np.eye(1),
    )
    return model, GRID3


def clustered_d4_m2(rng):
    return _unitary(rng, _degenerate_F(rng, [-1.0, -1.0 + 1e-13, 1.0, 1.0 + 1e-13]), GRID3)


def random_d6_m6(rng):
    return _unitary(rng, random_hermitian(rng, 6), GRID3)


def random_d8_m4(rng):
    return _unitary(rng, _degenerate_F(rng, [-1.5, -1.5, -0.2, -0.2, 0.4, 0.4, 2.0, 2.0]), GRID3)


def rtn(rng):
    return rtn_model(0.7, random_density(rng, 2)), TimeGrid((0.4, 1.1, 1.9))


def gkls_3level(rng):
    gen = build_gkls(
        np.diag([0.0, 1.0, 2.5]),
        random_hermitian(rng, 3),
        [(0.0, 0.3), (1.0, 0.5 + 0.1j), (-1.0, 0.2), (1.5, 0.4), (2.5, 0.1)],
    )
    model = QRFModel(
        generator=gen,
        F_a=spectral_decompose(random_hermitian(rng, 3)),
        rho_a=random_density(rng, 3),
    )
    return model, GRID3


def single_time(rng):
    return _unitary(rng, random_hermitian(rng, 3), TimeGrid((0.7,)))


CASES = {  # name: (factory, number of outcomes)
    "d1-m1": (one_level, 1),
    "d1-m1-semigroup": (one_level_semigroup, 1),
    "clustered-d4-m2": (clustered_d4_m2, 2),
    "unitary-d6-m6-n3": (random_d6_m6, 6),
    "unitary-d8-m4-n3": (random_d8_m4, 4),
    "rtn": (rtn, 2),
    "gkls-d3": (gkls_3level, 3),
    "n1": (single_time, 3),
}


def drawn_case(seed, d, n, degenerate, semigroup):
    """A unitary or GKLS source of dimension d and an n-time grid, drawn from ``seed``.

    A degenerate F draws its d eigenvalues from three values, so m runs from 1 to 3;
    the GKLS rates sit on the Bohr frequencies 0 and ±(ε_1 − ε_0) of a random H_a.
    """
    rng = np.random.default_rng(seed)
    F = (_degenerate_F(rng, rng.choice([-1.0, 0.5, 2.0], size=d)) if degenerate
         else random_hermitian(rng, d))
    H, rho = random_hermitian(rng, d), random_density(rng, d)
    if semigroup:
        w = np.linalg.eigvalsh(H)
        rates = [(omega, rng.uniform(0.0, 1.0) + 0.3j * rng.normal())
                 for omega in (0.0, float(w[1] - w[0]), float(w[0] - w[1]))]
        source = QRFModel(build_gkls(H, random_hermitian(rng, d), rates),
                          spectral_decompose(F), rho)
    else:
        source = QuantumSystem.from_operators(H, F, rho)
    return source, random_grid(rng, n)


DRAWN_CASES = dict(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 4), n=st.integers(1, 4),
                   degenerate=st.booleans(), semigroup=st.booleans())


def builders(source, kind):
    """(kernel entry, oracle) pair for this source and table kind."""
    if isinstance(source, QRFModel):
        pairs = {"born": (qrf_born, oracles.qrf_born),
                 "biprob": (qrf_bi_probability, oracles.qrf_bi_probability)}
    else:
        pairs = {"born": (born_table, oracles.born_distribution),
                 "biprob": (biprob_table, oracles.bi_probability)}
    return pairs[kind]


def assert_kernel_matches_oracle(source, grid, kind):
    m = (source.F_a if isinstance(source, QRFModel) else source.F).n_outcomes
    kernel, oracle = builders(source, kind)
    table, expected = kernel(source, grid), oracle(source, grid)
    assert table.dist.shape == expected.dist.shape
    assert np.max(np.abs(table.dist - expected.dist)) <= 1e-12
    np.testing.assert_array_equal(table.eigenvalues, expected.eigenvalues)
    dispatch = born_table if kind == "born" else biprob_table
    np.testing.assert_array_equal(dispatch(source, grid).dist, table.dist)
    if kind == "biprob":
        last_pair = table.dist.reshape(-1, m, m)
        assert np.all(last_pair[:, ~np.eye(m, dtype=bool)] == 0)


@pytest.mark.parametrize("kind", ["born", "biprob"])
@pytest.mark.parametrize("case", list(CASES))
def test_kernel_matches_oracle(case, kind, rng):
    factory, m = CASES[case]
    source, grid = factory(rng)
    sd = source.F_a if isinstance(source, QRFModel) else source.F
    assert sd.n_outcomes == m
    if case == "clustered-d4-m2":
        assert sd.clustered
    assert_kernel_matches_oracle(source, grid, kind)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["born", "biprob"]), **DRAWN_CASES)
def test_kernel_matches_oracle_on_drawn_sources(kind, seed, d, n, degenerate, semigroup):
    assert_kernel_matches_oracle(*drawn_case(seed, d, n, degenerate, semigroup), kind)


@pytest.mark.parametrize("kind,entries", [("born", 8), ("biprob", 64)])
@pytest.mark.parametrize("source", [rabi_system(), rtn_model(0.7, np.eye(2) / 2)],
                         ids=["unitary", "semigroup"])
def test_cap_raises_at_the_same_entry_counts(source, kind, entries):
    grid = TimeGrid((1.0, 2.0, 3.0))  # m = 2, n = 3
    for build in builders(source, kind):
        with pytest.raises(TableTooLarge):
            build(source, grid, cap=entries - 1)
        assert build(source, grid, cap=entries).dist.size == entries


def test_a_source_without_dynamics_is_an_attribute_error():
    for use in (born_table, biprob_table, lambda source, grid: sample_ensemble(source, grid, 1, 0)):
        with pytest.raises(AttributeError, match="dynamics"):
            use(object(), GRID3)


@pytest.mark.parametrize("source", [rabi_system(), rtn_model(0.7, np.eye(2) / 2)],
                         ids=["unitary", "semigroup"])
def test_a_sources_map_cache_is_bounded_and_read_only(source):
    cache = source.generator.semigroup if isinstance(source, QRFModel) else source.propagator
    step = source.dynamics.step
    X = np.eye(2, dtype=complex)[None] / 2
    gaps = [0.01 * (k + 1) for k in range(MAP_CACHE_SIZE + 10)]
    first = step(X, gaps[0])
    for gap in gaps:
        step(X, gap)
    info = cache.cache_info()
    assert info.currsize == MAP_CACHE_SIZE and info.misses == len(gaps)
    np.testing.assert_array_equal(step(X, gaps[0]), first)  # evicted, formed again
    with pytest.raises(ValueError):
        cache(gaps[-1])[0, 0] = 1.0


def test_semigroup_returns_the_generators_shared_read_only_map():
    model = rtn_model(0.7, np.eye(2) / 2)
    L = semigroup(model, 0.3)
    assert model.generator.semigroup(0.3) is L
    with pytest.raises(ValueError):
        L[0, 0] = 1.0
    sys = rabi_system()
    np.testing.assert_array_equal(sys.propagator(0.3), propagator(sys.H, 0.3))


def closed_case(seed, d, m, pure, n):
    """A closed system whose F has m distinct eigenvalues, each at least once among its d, and
    a pure or full-rank state, with an n-time grid, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    values = np.concatenate([np.arange(m), rng.integers(0, m, size=d - m)]).astype(float)
    if pure:
        psi = rng.normal(size=d) + 1j * rng.normal(size=d)
        rho = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
    else:
        rho = random_density(rng, d)
    sys = QuantumSystem.from_operators(random_hermitian(rng, d), _degenerate_F(rng, values), rho)
    return sys, random_grid(rng, n)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 6), pure=st.booleans(), data=st.data())
def test_the_closed_route_matches_the_operator_route(seed, d, pure, data):
    """Prefix-operator chain against the operator chain it replaced, for every deletion.

    m runs over 1…d, so F is rank-1 (m = d) or degenerate; n runs over 1–4 while the
    oracle's (m²)ⁿ operator batch stays small (m^{2n} ≤ 4096).
    """
    m = data.draw(st.integers(1, d), label="m")
    n = data.draw(st.integers(1, max(n for n in range(1, 5) if m ** (2 * n) <= 4096)), label="n")
    sys, grid = closed_case(seed, d, m, pure, n)
    assert sys.F.n_outcomes == m and sys.dynamics.eigenframe is not None
    for skip in [None, *range(n - 1)]:
        born, bip = (_table(sys, grid, DEFAULT_TABLE_CAP, diagonal, skip)
                     for diagonal in (True, False))
        for table, diagonal in ((born, True), (bip, False)):
            expected = oracles.operator_table(sys, grid, DEFAULT_TABLE_CAP, diagonal, skip)
            assert table.grid.times == expected.grid.times
            assert table.dist.shape == expected.dist.shape
            assert table.dist.dtype == expected.dist.dtype
            assert np.max(np.abs(table.dist - expected.dist)) <= 1e-12
        last_pair = bip.dist.reshape(-1, m, m)
        assert np.all(last_pair[:, ~np.eye(m, dtype=bool)] == 0)
        assert np.max(np.abs(bip.diagonal().dist - born.dist)) <= 1e-12


def test_open_sources_keep_the_operator_route():
    for factory in (rtn, gkls_3level):
        model, grid = factory(np.random.default_rng(3))
        assert model.dynamics.eigenframe is None
        for diagonal in (True, False):
            table = _table(model, grid, DEFAULT_TABLE_CAP, diagonal)
            expected = oracles.operator_table(model, grid, DEFAULT_TABLE_CAP, diagonal)
            np.testing.assert_array_equal(table.dist, expected.dist)


def test_a_decomposition_without_its_eigenvectors_is_refused():
    """Every closed system builds its tables in F's eigenbasis, so a decomposition needs one."""
    sd = spectral_decompose(np.diag([0.0, 1.0]))
    with pytest.raises(TypeError, match="basis"):
        SpectralDecomposition(*sd[:-1])


@pytest.mark.parametrize("semigroup", [False, True], ids=["unitary", "semigroup"])
def test_a_table_with_more_axes_than_numpy_holds_is_refused(semigroup):
    """F ∝ 1 has one outcome, so the entry cap admits any order; P_n needs n axes and Q_n 2n."""
    if semigroup:
        source = QRFModel(rtn_model(0.7, np.eye(2) / 2).generator, spectral_decompose(np.eye(2)),
                          np.eye(2) / 2)
    else:
        source = QuantumSystem.from_operators(0.5 * SX, np.eye(2), np.eye(2) / 2)
    for build, axes_per_time in ((biprob_table, 2), (born_table, 1)):
        times = tuple(0.1 * (k + 1) for k in range(MAX_AXES // axes_per_time + 1))
        assert build(source, TimeGrid(times[:-1])).dist.ndim == MAX_AXES
        with pytest.raises(TableTooLarge, match=f"would need {MAX_AXES + axes_per_time} axes"):
            build(source, TimeGrid(times))


# d = 32, m = 2, n = 9: the operator route's last bi-probability layer held 4⁸·4 operators of
# 32×32 (1 GiB); the prefix-operator chain holds 2⁸ of them beside the 4⁹-entry table
MEMORY_PIN = """
import resource, sys
limit = int(sys.argv[1])
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from bornlab.cli import main
sys.exit(main(["analyze", sys.argv[2], "--out", sys.argv[3]]))
"""


def test_analyze_of_a_d32_m2_n9_unitary_config_runs_in_1_5_GB(tmp_path):
    rng = np.random.default_rng(32)
    A = rng.normal(size=(32, 32))
    config = {"schema": 1, "kind": "unitary",
              "system": {"H": (0.5 * (A + A.T)).tolist(),
                         "F": np.diag([1.0] * 16 + [-1.0] * 16).tolist(),
                         "rho": np.diag([1.0] + [0.0] * 31).tolist()},
              "grids": {"main": [0.1 * (k + 1) for k in range(9)]}, "n_max": 9}
    path, out = tmp_path / "d32.json", tmp_path / "d32.analyze.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    # one BLAS thread, so the limit bounds the kernel's working set, not the host's core count
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    limit = 3 * 2**29  # 1.5 GiB of address space
    proc = subprocess.run([sys.executable, "-c", MEMORY_PIN, str(limit), str(path), str(out)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["analyses"][-1]["n"] == 9
