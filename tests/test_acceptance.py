"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every tolerance is pinned here; nothing is deferred to later calibration.
"""

import itertools
import json
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from bornlab import (
    TimeGrid,
    biprob_table,
    born_table,
    check_bi_consistency,
    check_cm,
    check_kc,
    check_ncgd,
    check_sf,
    classify_block_structure,
    exact_reduced_state,
    rtn_model,
    sample_ensemble,
    spectral_decompose,
    surrogate_average,
    verify_generalized_relation,
    verify_ncgd_cm_equivalence,
)
from bornlab.cli import main
from bornlab.linalg import trace_distance
from conftest import (
    I2,
    SX,
    SZ,
    dephasing_scenario,
    quasistatic_system,
    rabi_system,
    random_grid,
    random_system,
)
from test_consistency import brute_force_kc_violation
import oracles

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@contextmanager
def criterion(number, label, budget_seconds=None):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"[acceptance] criterion {number} ({label}): FAIL")
        raise
    elapsed = time.time() - start
    if budget_seconds is not None:
        assert elapsed < budget_seconds, (
            f"criterion {number} took {elapsed:.1f}s, budget {budget_seconds}s"
        )
    print(f"[acceptance] criterion {number} ({label}): PASS ({elapsed:.1f}s)")


def test_criterion_1_algebraic_identity_suite():
    with criterion(1, "algebraic identity suite, 100 random scenarios", 60.0):
        rng = np.random.default_rng(424242)
        for k in range(100):
            d = int(rng.integers(2, 7))
            n = int(rng.integers(2, 4))
            sys = random_system(rng, d)
            grid = random_grid(rng, n)
            born = born_table(sys, grid)
            bip = biprob_table(sys, grid)

            # bi-consistency ≤ 1e-10
            rec = check_bi_consistency(sys, grid)
            assert rec.max_abs_violation <= 1e-10, (k, "bi-consistency")

            # causality ≤ 1e-10
            reduced = born_table(sys, grid.prefix(n - 1))
            causality = np.max(np.abs(born.dist.sum(axis=n - 1) - reduced.dist))
            assert causality <= 1e-10, (k, "causality")

            # diagonal-equals-Born ≤ 1e-12
            diag_gap = np.max(np.abs(bip.diagonal().dist - born.dist))
            assert diag_gap <= 1e-12, (k, "diagonal")

            # generalized relation ≤ 1e-10
            assert verify_generalized_relation(sys, grid) <= 1e-10, (k, "relation")

            # last-index diagonality ≤ 1e-12
            m = bip.n_outcomes
            flat = bip.dist.reshape(-1, m, m).copy()
            flat[:, np.arange(m), np.arange(m)] = 0.0
            assert np.max(np.abs(flat)) <= 1e-12, (k, "last-index")

            # Hermitian symmetry ≤ 1e-12
            axes = tuple(
                itertools.chain.from_iterable((2 * i + 1, 2 * i) for i in range(n))
            )
            swapped = np.transpose(bip.dist, axes)
            assert np.max(np.abs(bip.dist - swapped.conj())) <= 1e-12, (k, "symmetry")


def test_criterion_2_static_observable_golden_case():
    with criterion(2, "static-observable golden case"):
        # qubit with a generic mixed state, plus a three-level commuting pair
        systems = [quasistatic_system()]
        H3 = np.diag([0.3, 1.1, 2.4]).astype(complex)
        F3 = np.diag([-1.0, 0.5, 2.0]).astype(complex)
        rho3 = np.diag([0.5, 0.3, 0.2]).astype(complex)
        from bornlab import QuantumSystem

        systems.append(QuantumSystem.from_operators(H3, F3, rho3))

        for sys in systems:
            for n in (1, 2, 3):
                grid = TimeGrid(tuple(0.4 * (k + 1) for k in range(n)))
                table = biprob_table(sys, grid)
                assert check_sf(table).max_abs_violation <= 1e-12

        # sampling at N = 1e5: constant trajectories, 3-sigma frequencies
        N = 100_000
        sys = systems[0]
        grid = TimeGrid((0.4, 0.9, 1.5))
        ens = sample_ensemble(sys, grid, N, seed=20260801)
        weights = [float(np.trace(P @ sys.rho0).real) for P in sys.F.projectors]
        counts = np.zeros(len(weights))
        for traj in ens.trajectories:
            assert len(set(traj.indices)) == 1  # constant path
            counts[traj.indices[0]] += 1
        for f, w in enumerate(weights):
            sigma = np.sqrt(w * (1 - w) / N)
            assert abs(counts[f] / N - w) <= 3.0 * sigma


def test_criterion_3_kc_violation_witness():
    with criterion(3, "Rabi KC-violation witness vs brute-force oracle"):
        omega = 1.0
        t = np.pi / 4 / omega
        sys = rabi_system(omega)
        grid = TimeGrid((t, 2 * t))

        kc, _ = check_kc(sys, grid)
        violation = kc.max_abs_violation
        assert violation > 0.01
        assert abs(violation - brute_force_kc_violation(sys, grid)) <= 1e-10

        p1 = born_table(sys, TimeGrid((t,))).dist[1]
        assert abs(p1 - np.cos(omega * t / 2) ** 2) <= 1e-10


def test_criterion_4_rtn_suite():
    with criterion(4, "random-telegraph-noise suite", 120.0):
        gamma = 0.7
        model = rtn_model(gamma, I2 / 2)

        # SF at 1e-12 for n ≤ 3
        for n in (1, 2, 3):
            grid = TimeGrid(tuple(0.4 + 0.7 * k for k in range(n)))
            table = biprob_table(model, grid)
            assert check_sf(table).max_abs_violation <= 1e-12

        # two-time diagonal autocorrelation vs the closed form and an
        # independently assembled superoperator oracle, both at 1e-10
        t1, t2 = 0.4, 1.1
        diag = biprob_table(model, TimeGrid((t1, t2))).diagonal()
        vals = diag.eigenvalues
        corr = float(
            sum(vals[i] * vals[j] * diag.dist[i, j] for i in range(2) for j in range(2))
        )
        assert abs(corr - 0.25 * np.exp(-2 * gamma * (t2 - t1))) <= 1e-10

        from scipy.linalg import expm

        def comm(A):
            return np.kron(np.eye(2), A) - np.kron(A.T, np.eye(2))

        L = -0.5 * gamma * (comm(SX) @ comm(SX))
        P = [np.diag([0.0, 1.0]).astype(complex), np.diag([1.0, 0.0]).astype(complex)]
        oracle = 0.0
        for i in range(2):
            for j in range(2):
                v = expm(t1 * L) @ (I2 / 2).flatten(order="F")
                v = np.kron(P[i].T, P[i]) @ v
                v = expm((t2 - t1) * L) @ v
                v = np.kron(P[j].T, P[j]) @ v
                oracle += vals[i] * vals[j] * np.trace(v.reshape(2, 2, order="F")).real
        assert abs(corr - oracle) <= 1e-10

        # sampled-ensemble autocorrelation within 3 sigma at N = 1e5
        N = 100_000
        ens = sample_ensemble(model, TimeGrid((t1, t2)), N, seed=20260801)
        se = np.sqrt((1.0 / 16.0 - corr**2) / N)
        f = ens.eigenvalues[ens.indices]
        assert abs((f[:, 1] * f[:, 0]).mean() - corr) <= 3.0 * se

        # NCGD, CM, SF, both block flags, and the equivalence, all pass
        grid = TimeGrid((t1, t2))
        structure = classify_block_structure(model, sample_times=grid.times)
        assert structure.lower_triangular and structure.upper_triangular
        assert set(structure.labels) == {
            "coherence non-activating",
            "coherence non-generating",
        }
        ncgd = check_ncgd(model, [(t2, t1)])
        assert ncgd.passed
        table = biprob_table(model, grid)
        cm, _ = check_cm(table)
        assert cm.passed
        assert check_sf(table).passed
        agree = verify_ncgd_cm_equivalence(model, ncgd, cm)
        assert agree and ncgd.passed and cm.passed

        # sigma_x-rotation counter-model fails NCGD and CM concordantly
        from bornlab import QRFModel, build_gkls

        rotation = QRFModel(
            generator=build_gkls(SX, np.zeros((2, 2)), [], mu=0.0),
            F_a=spectral_decompose(0.5 * SZ),
            rho_a=np.diag([1.0, 0.0]).astype(complex),
        )
        counter_ncgd = check_ncgd(rotation, [(t2, t1)])
        counter_cm, _ = check_cm(biprob_table(rotation, grid))
        assert verify_ncgd_cm_equivalence(rotation, counter_ncgd, counter_cm)
        assert not counter_ncgd.passed and not counter_cm.passed


def test_criterion_5_surrogate_vs_exact(tmp_path):
    with criterion(5, "surrogate average vs exact reduced dynamics", 300.0):
        # quasi-static pure-dephasing scenario, pinned seed, N = 1e4
        lam = 0.25
        js = dephasing_scenario(lam)
        probe_times = (0.5, 1.0, 1.5, 2.0, 2.5)
        grid = TimeGrid(probe_times)
        N = 10_000
        ens = sample_ensemble(js.sys, grid, N, seed=20260801)
        for t in probe_times:
            exact = exact_reduced_state(js, t)
            avg = surrogate_average(js.obs, ens, t)
            assert trace_distance(exact, avg.mean) <= 0.02

            # exact coherence against an independently built 4x4 joint oracle
            H4 = lam * np.kron(SZ, SZ)
            w, V = np.linalg.eigh(H4)
            U = (V * np.exp(-1j * t * w)) @ V.conj().T
            rho4 = np.kron(js.obs.rho_o, I2 / 2)
            oracle = (U @ rho4 @ U.conj().T).reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
            assert np.max(np.abs(exact - oracle)) <= 1e-10
            assert abs(exact[0, 1] - 0.5 * np.cos(2 * lam * t)) <= 1e-10

        # Rabi (non-SF) system under --force: the residual mismatch exceeds
        # 0.05 at some probed time, demonstrating that SF was needed here
        out = str(tmp_path / "forced.json")
        code = main(["simulate", str(CONFIGS / "rabi_joint.yaml"), "--force", "--out", out])
        assert code == 0
        report = json.loads(Path(out).read_text())
        assert report["forced"] is True
        assert max(c["trace_distance"] for c in report["comparisons"]) > 0.05


def test_criterion_6_observer_observable_consistency():
    with criterion(6, "observer-observable bi-probability vs surrogate MC"):
        lam = 0.25
        js = dephasing_scenario(lam)
        grid = TimeGrid((0.6, 1.3))
        X_o = spectral_decompose(SX)
        exact = oracles.observer_observable_biprob(js, X_o, grid).diagonal()

        # surrogate Monte-Carlo estimate of the two-time driven Born table,
        # built with a test-local piecewise propagator chain
        N = 10_000
        ens = sample_ensemble(js.sys, grid, N, seed=20260801)
        projs = X_o.projectors

        def driven_propagator(value, t):
            H = js.obs.H_o + js.obs.coupling * value * js.obs.G_o
            w, V = np.linalg.eigh(H)
            return (V * np.exp(-1j * t * w)) @ V.conj().T

        samples = np.zeros((N, 2, 2))
        for j, traj in enumerate(ens.trajectories):
            W1 = driven_propagator(traj.values[0], grid.times[0])
            W2 = driven_propagator(traj.values[0], grid.times[1])  # static field
            for x1 in range(2):
                A1 = W1.conj().T @ projs[x1] @ W1
                for x2 in range(2):
                    A2 = W2.conj().T @ projs[x2] @ W2
                    samples[j, x1, x2] = np.trace(
                        A2 @ A1 @ js.obs.rho_o @ A1 @ A2
                    ).real
        mc = samples.mean(axis=0)
        se = samples.std(axis=0, ddof=1) / np.sqrt(N)
        for x1 in range(2):
            for x2 in range(2):
                gap = abs(mc[x1, x2] - exact.dist[x1, x2])
                assert gap <= 3.0 * max(se[x1, x2], 1e-12), (x1, x2, gap)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical trajectory CSVs and reports"):
        pairs = []
        for run in ("one", "two"):
            csv_path = str(tmp_path / f"traj_{run}.csv")
            rep_path = str(tmp_path / f"analysis_{run}.json")
            sim_path = str(tmp_path / f"sim_{run}.json")
            assert main(["sample", str(CONFIGS / "rtn.yaml"), "--out", csv_path]) == 0
            assert main(["analyze", str(CONFIGS / "rabi.yaml"), "--out", rep_path]) == 0
            assert main(["simulate", str(CONFIGS / "dephasing.yaml"), "--out", sim_path]) == 0
            pairs.append((csv_path, rep_path, sim_path))
        for a, b in zip(pairs[0], pairs[1]):
            assert Path(a).read_bytes() == Path(b).read_bytes()
