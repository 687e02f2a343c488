"""Seeded scenario configs for the benchmark workloads.

The config bytes are a function of the seed alone: the numbers come from
``random.Random`` seeded per config with a string (stable across Python
versions and independent of ``PYTHONHASHSEED``), the arithmetic is plain
Python floats, and the YAML is written by the small emitter below instead of
a library whose formatting could change. A different seed gives configs of
the same shape: the same dimensions, outcome counts, grid lengths, ensemble
sizes and therefore the same work units.

Floats are written as shortest round-trip decimals with a forced ``.`` in the
mantissa, because PyYAML (YAML 1.1) reads ``1e-05`` as a string.
"""

from __future__ import annotations

import cmath
import math
import random

# name -> shape of the generated scenario; the shape never depends on the seed
SHAPES = {
    "u6": {"kind": "unitary", "d": 6, "m": 6, "n": 3, "N": 20000},
    "u4": {"kind": "unitary", "d": 4, "m": 4, "n": 4, "N": 20000},
    "u8": {"kind": "unitary", "d": 8, "m": 4, "n": 3, "N": 20000},
    "q3": {"kind": "qrf", "d": 3, "m": 3, "n": 4, "N": 20000},
    "q4": {"kind": "qrf", "d": 4, "m": 4, "n": 3, "N": 20000},
    "s4": {"kind": "unitary", "d": 4, "m": 2, "n": 6, "N": 20000},
    "wide": {"kind": "joint", "d": 4, "m": 4, "n": 5, "N": 5000, "d_o": 2,
             "n_max": 3},
}


def _num(x):
    r = repr(float(x))
    if "e" in r:
        mant, exp = r.split("e")
        if "." not in mant:
            r = f"{mant}.0e{exp}"
    elif "." not in r:
        r += ".0"
    return r


def _entry(z):
    z = complex(z)
    if z.imag == 0.0:
        return _num(z.real)
    return f"[{_num(z.real)}, {_num(z.imag)}]"


def _matrix(M):
    return "[" + ", ".join("[" + ", ".join(_entry(v) for v in row) + "]" for row in M) + "]"


def _hermitian(rng, d, scale=1.0):
    H = [[0j] * d for _ in range(d)]
    for i in range(d):
        H[i][i] = complex(scale * rng.uniform(-1.0, 1.0))
        for j in range(i + 1, d):
            z = complex(scale * rng.uniform(-1.0, 1.0), scale * rng.uniform(-1.0, 1.0))
            H[i][j] = z
            H[j][i] = z.conjugate()
    return H


def _unit_vector(rng, d):
    v = [cmath.rect(rng.uniform(0.2, 1.0), rng.uniform(0.0, 2 * math.pi)) for _ in range(d)]
    norm = math.sqrt(sum(abs(x) ** 2 for x in v))
    return [x / norm for x in v]


def _mixed_state(rng, d, rank=2):
    """Σ_k w_k |ψ_k⟩⟨ψ_k|, exactly Hermitian, trace 1 to roundoff."""
    weights = [rng.uniform(0.2, 1.0) for _ in range(rank)]
    total = sum(weights)
    vecs = [_unit_vector(rng, d) for _ in range(rank)]
    rho = [[0j] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            z = sum(w / total * v[i] * v[j].conjugate() for w, v in zip(weights, vecs))
            rho[i][j] = complex(z.real, 0.0) if i == j else z
            rho[j][i] = rho[i][j].conjugate()
    return rho


def _probabilities(rng, d):
    w = [rng.uniform(0.2, 1.0) for _ in range(d)]
    total = sum(w)
    return [x / total for x in w]


def _diag(values):
    d = len(values)
    return [[complex(values[i]) if i == j else 0j for j in range(d)] for i in range(d)]


def _outcome_values(rng, m):
    """m values at least 0.4 apart, so clustering never merges outcomes."""
    return [k - (m - 1) / 2 + rng.uniform(-0.3, 0.3) for k in range(m)]


def _degenerate_observable(rng, d, m):
    """Diagonal F with m distinct outcomes of multiplicity d/m each."""
    values = _outcome_values(rng, m)
    return _diag([values[i * m // d] for i in range(d)])


def _grid(rng, n):
    t, times = 0.0, []
    for _ in range(n):
        t += rng.uniform(0.3, 0.9)
        times.append(t)
    return times


def _sampling(rng, N):
    return f"sampling:\n  N: {N}\n  seed: {rng.randrange(2**32)}\n"


def _unitary(rng, shape):
    d, m, n = shape["d"], shape["m"], shape["n"]
    return (
        "kind: unitary\n"
        "system:\n"
        f"  H: {_matrix(_hermitian(rng, d))}\n"
        f"  F: {_matrix(_degenerate_observable(rng, d, m))}\n"
        f"  rho: {_matrix(_mixed_state(rng, d))}\n"
        f"grids:\n  main: [{', '.join(_num(t) for t in _grid(rng, n))}]\n"
        f"n_max: {n}\n"
        + _sampling(rng, shape["N"])
    )


def _qrf(rng, shape):
    d, n = shape["d"], shape["n"]
    energies = sorted(rng.uniform(-1.0, 1.0) for _ in range(d))
    rates = [f"{{omega: 0.0, gamma: {_num(rng.uniform(0.1, 0.5))}}}"]
    for i, j in ((1, 0), (d - 1, 0)):
        gamma = complex(rng.uniform(0.05, 0.3), rng.uniform(-0.1, 0.1))
        rates.append(f"{{omega: {_num(energies[i] - energies[j])}, gamma: {_entry(gamma)}}}")
    return (
        "kind: qrf\n"
        "qrf:\n"
        f"  H_a: {_matrix(_diag(energies))}\n"
        f"  G_a: {_matrix(_hermitian(rng, d, 0.5))}\n"
        f"  rates: [{', '.join(rates)}]\n"
        "  mu: 1.0\n"
        f"  F_a: {_matrix(_diag(_outcome_values(rng, d)))}\n"
        f"  rho_a: {_matrix(_diag(_probabilities(rng, d)))}\n"
        f"grids:\n  main: [{', '.join(_num(t) for t in _grid(rng, n))}]\n"
        f"n_max: {n}\n"
        + _sampling(rng, shape["N"])
    )


def _joint(rng, shape):
    d, m, n, d_o = shape["d"], shape["m"], shape["n"], shape["d_o"]
    times = ", ".join(_num(t) for t in _grid(rng, n))
    psi = _unit_vector(rng, d_o)
    rho_o = [[psi[i] * psi[j].conjugate() for j in range(d_o)] for i in range(d_o)]
    for i in range(d_o):
        rho_o[i][i] = complex(rho_o[i][i].real, 0.0)
    return (
        "kind: joint\n"
        "system:\n"
        f"  H: {_matrix(_hermitian(rng, d))}\n"
        f"  F: {_matrix(_degenerate_observable(rng, d, m))}\n"
        f"  rho: {_matrix(_mixed_state(rng, d))}\n"
        "observer:\n"
        f"  H_o: {_matrix(_hermitian(rng, d_o, 0.5))}\n"
        f"  G_o: {_matrix(_hermitian(rng, d_o))}\n"
        f"  rho_o: {_matrix(rho_o)}\n"
        f"  coupling: {_num(rng.uniform(0.2, 0.5))}\n"
        f"grids:\n  main: [{times}]\n"
        f"n_max: {shape['n_max']}\n"
        + _sampling(rng, shape["N"])
        + f"simulate:\n  grid: main\n  probe_times: [{times}]\n"
    )


_SCENARIOS = {"unitary": _unitary, "qrf": _qrf, "joint": _joint}


def generate(seed):
    """Config text for every generated scenario, keyed by scenario name."""
    out = {}
    for name, shape in SHAPES.items():
        rng = random.Random(f"bornlab-perfbench:{int(seed)}:{name}")
        header = f"# perfbench scenario {name}, seed {int(seed)}\nschema: 1\n"
        out[name] = header + _SCENARIOS[shape["kind"]](rng, shape)
    return out
