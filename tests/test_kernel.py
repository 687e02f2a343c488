"""The shared table kernel against the independent per-source oracles, on fixed and drawn sources."""

import json
import os
import re
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
from bornlab import process
from bornlab.errors import TableTooLarge
from bornlab.linalg import MAP_CACHE_SIZE, propagator
from bornlab.process import (DEFAULT_TABLE_CAP, MAX_AXES, TABLE_BATCH_BYTES, _table,
                             working_set_bytes)
from bornlab.qrf import generator_from_matrix, qrf_bi_probability, qrf_born, semigroup
from bornlab.spectral import SpectralDecomposition
from conftest import (ROOT, SX, rabi_system, random_density, random_grid, random_hermitian,
                      random_system, random_unitary)
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
sys.exit(main(sys.argv[2:]))
"""


def run_in_1_5_gb(*argv):
    """``bornlab *argv`` in a child process whose address space is capped at 1.5 GiB."""
    # one BLAS thread, so the limit bounds the kernel's working set, not the host's core count
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    limit = 3 * 2**29
    return subprocess.run([sys.executable, "-c", MEMORY_PIN, str(limit), *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=300)


def d32_config(tmp_path, n, spacing=0.1, n_max=None, size=500):
    """A d = 32 unitary config whose F has two 16-fold outcomes, on n times spaced by
    ``spacing``, analysed up to ``n_max`` (all of them by default), sampling ``size``."""
    rng = np.random.default_rng(32)
    A = rng.normal(size=(32, 32))
    config = {"schema": 1, "kind": "unitary",
              "system": {"H": (0.5 * (A + A.T)).tolist(),
                         "F": np.diag([1.0] * 16 + [-1.0] * 16).tolist(),
                         "rho": np.diag([1.0] + [0.0] * 31).tolist()},
              "grids": {"main": [spacing * (k + 1) for k in range(n)]}, "n_max": n_max or n,
              "sampling": {"N": size, "seed": 3}}
    path = tmp_path / f"d32_n{n}_{spacing}_{size}.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


def test_analyze_of_a_d32_m2_n9_unitary_config_runs_in_1_5_GB(tmp_path):
    path, out = d32_config(tmp_path, 9), tmp_path / "d32.analyze.json"
    proc = run_in_1_5_gb("analyze", path, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(out.read_text(encoding="utf-8"))["analyses"][-1]["n"] == 9


def test_sample_skips_a_kc_check_past_the_byte_budget_within_1_5_GB(tmp_path):
    # P_18 has 2¹⁸ entries, within the entry cap, but its chain would hold 2¹⁷ operators of
    # 32×32, 2 GiB a copy: the check is refused before the build, and sampling goes on
    path, out = d32_config(tmp_path, 18), tmp_path / "d32.csv"
    proc = run_in_1_5_gb("sample", path, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == (
        "[sample] note: KC not checked at n=18: Born table would hold about "
        f"{(5 * 2**17 * 32 * 32 + 2**18) * 16} bytes of operators and table while built, "
        f"exceeding the budget of {TABLE_BATCH_BYTES}\n")
    assert len(out.read_text(encoding="utf-8").splitlines()) == 501


def test_a_descent_past_the_byte_budget_exits_3_within_1_5_GB(tmp_path):
    # 150000 trajectories on 18 times spaced 1.37 reach 30277 distinct prefixes after t_15,
    # 473 MiB a copy of their 32×32 states: refused before that collapse (exit 1 with
    # _ArrayMemoryError before the budget counted the descent)
    path, out = d32_config(tmp_path, 18, spacing=1.37, n_max=2, size=150000), tmp_path / "d32.csv"
    proc = run_in_1_5_gb("sample", path, "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"bornlab: dimension/cap error: sampling would hold about {4 * 30277 * 32 * 32 * 16} "
        f"bytes of states after t={1.37 * 15}, exceeding the budget of {TABLE_BATCH_BYTES}")
    assert not out.exists()


def test_a_descent_within_the_byte_budget_samples_within_1_5_GB(tmp_path):
    # min(N, 2ᵏ) would refuse it; the descent visits at most 5872 prefixes, so it samples
    path, out = d32_config(tmp_path, 18, n_max=2, size=100000), tmp_path / "d32.csv"
    proc = run_in_1_5_gb("sample", path, "--out", out)
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text(encoding="utf-8").splitlines()) == 100001


# (command, shipped config, N, bytes a trajectory): 16·n + 32 for the ensemble on n grid times,
# and d_o²·16 + 24 more for simulate's walk with a d_o = 2 observer
ENSEMBLES_PAST_THE_BUDGET = [("sample", "rabi", 2 * 10**9, 16 * 2 + 32),
                             ("simulate", "dephasing", 3 * 10**7, 16 * 5 + 32 + 4 * 16 + 24)]


@pytest.mark.parametrize("command, name, size, per_trajectory", ENSEMBLES_PAST_THE_BUDGET)
def test_an_ensemble_past_the_byte_budget_exits_3_within_1_5_GB(tmp_path, command, name, size,
                                                                per_trajectory):
    # refused before the uniforms (exit 1 with _ArrayMemoryError before the budget counted them)
    text = (ROOT / "configs" / f"{name}.yaml").read_text(encoding="utf-8")
    path, out = tmp_path / f"{name}.yaml", tmp_path / f"{name}.{command}.out"
    path.write_text(re.sub(r"(?m)^  N: \d+$", f"  N: {size}", text), encoding="utf-8")
    proc = run_in_1_5_gb(command, path, "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines()[-1] == (
        f"bornlab: dimension/cap error: sampling {size} trajectories would hold about "
        f"{size * per_trajectory} bytes of per-trajectory arrays, exceeding the budget of "
        f"{TABLE_BATCH_BYTES}")
    assert not out.exists()


def test_a_table_past_the_byte_budget_exits_3_within_1_5_GB(tmp_path):
    # a d = 8 GKLS source with a raised entry cap: Q_11 has 2²² entries, and its operator
    # chain would hold (2²)¹⁰ operators of 8×8, 1 GiB a copy
    rng = np.random.default_rng(8)
    A = rng.normal(size=(8, 8))
    config = {"schema": 1, "kind": "qrf",
              "qrf": {"H_a": np.zeros((8, 8)).tolist(), "G_a": (0.5 * (A + A.T)).tolist(),
                      "rates": [{"omega": 0.0, "gamma": 0.35}], "mu": 1.0,
                      "F_a": np.diag([1.0] * 4 + [-1.0] * 4).tolist(),
                      "rho_a": (np.eye(8) / 8).tolist()},
              "grids": {"main": [0.1 * (k + 1) for k in range(11)]}, "n_max": 11,
              "caps": {"table_entries": 2**22}}
    path, out = tmp_path / "q8.json", tmp_path / "q8.qrf.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = run_in_1_5_gb("qrf", path, "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "bornlab: dimension/cap error: bi-probability table would hold about "
        f"{(3 * 4**10 * 8 * 8 + 2**22 + 2**21) * 16} bytes of operators and table while built, "
        f"exceeding the budget of {TABLE_BATCH_BYTES}\n")
    assert not out.exists()


def test_a_table_alone_past_the_byte_budget_exits_3_within_1_5_GB(tmp_path):
    # a qubit's Q_13 with a raised entry cap: its chain holds 2¹² operators of 2×2 (1.3 MB), but
    # the table's 2²⁶ entries and the 2²⁵ traces spread into them need 1.5 GiB (exit 1 with
    # _ArrayMemoryError while the budget counted only the operators)
    config = {"schema": 1, "kind": "joint",
              "system": {"H": [[0.0, 0.5], [0.5, 0.0]], "F": [[1.0, 0.0], [0.0, -1.0]],
                         "rho": [[1.0, 0.0], [0.0, 0.0]]},
              "observer": {"H_o": [[0.0, 0.0], [0.0, 0.0]], "G_o": [[1.0, 0.0], [0.0, -1.0]],
                           "rho_o": [[0.5, 0.5], [0.5, 0.5]], "coupling": 0.25},
              "grids": {"main": [0.1 * (k + 1) for k in range(13)]}, "n_max": 13,
              "sampling": {"N": 10, "seed": 1}, "caps": {"table_entries": 2**26}}
    path, out = tmp_path / "q13.json", tmp_path / "q13.simulate.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    proc = run_in_1_5_gb("simulate", path, "--out", out)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (
        "bornlab: dimension/cap error: bi-probability table would hold about "
        f"{(5 * 2**12 * 2 * 2 + 2**26 + 2**25) * 16} bytes of operators and table while built, "
        f"exceeding the budget of {TABLE_BATCH_BYTES}\n")
    assert not out.exists()


def test_a_table_past_the_byte_budget_is_refused_before_its_chain_runs(monkeypatch):
    def no_build(*args):
        raise AssertionError("the table's chain ran past the byte budget")

    monkeypatch.setattr(process, "_closed_chain", no_build)
    grid = TimeGrid(tuple(0.1 * (k + 1) for k in range(13)))
    with pytest.raises(TableTooLarge, match=f"about {working_set_bytes(2, 13, 2, False, True)} "):
        biprob_table(rabi_system(), grid, cap=2**26)


@pytest.mark.parametrize("semigroup", [False, True], ids=["unitary", "semigroup"])
def test_the_byte_budget_counts_the_last_batch_of_the_route(semigroup):
    """(copies × operators × d² + table) × 16 bytes: m^(n−1) operators on the closed route and
    for P_n on the operator route, (m²)^(n−1) for Q_n there, beside P_n's mⁿ traces or Q_n's
    m²ⁿ entries and m²ⁿ⁻¹ traces; refused at the first order past the budget."""
    rng = np.random.default_rng(3)
    source, copies = (gkls_3level(rng)[0], 3) if semigroup else (random_system(rng, 3), 5)
    m, d = source.dynamics.F.n_outcomes, source.dynamics.F.dim
    for diagonal, build, per_time in ((True, born_table, m),
                                      (False, biprob_table, m * m if semigroup else m)):
        def held(n):
            table = m ** n if diagonal else m ** (2 * n) + m ** (2 * n - 1)
            return (copies * per_time ** (n - 1) * d * d + table) * 16

        n = 1
        while held(n) <= TABLE_BATCH_BYTES:
            n += 1
        assert held(n) == working_set_bytes(m, n, d, diagonal, not semigroup)
        with pytest.raises(TableTooLarge, match=f"about {held(n)} bytes"):
            build(source, TimeGrid(tuple(0.1 * (k + 1) for k in range(n))), cap=10**100)
