"""The public surface: ``bornlab.__all__`` is pinned, and no library name is dead.

A public top-level function or class of ``src/bornlab`` must be used in the
package outside its own definition, be exported in ``__all__``, or be a name
that the benchmark's tracer (``perfbench/tracing.py``) or driver
(``perfbench/run.py``) binds. Import statements do not count as uses, so a
name kept alive only by an import fails. The names that ``src`` binds only
for the benchmark to find are pinned too, so each can go once the benchmark
stops binding it. The private names each module reads from another are
pinned as well, so a module that starts reading another's layout through its
private names is named here before it lands.
"""

import ast
from pathlib import Path

import bornlab

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bornlab"
BENCH_BINDERS = (ROOT / "perfbench" / "tracing.py", ROOT / "perfbench" / "run.py")

PUBLIC = [
    "QuantumSystem", "QRFModel", "build_gkls", "rtn_model", "ObserverSystem", "JointScenario",
    "spectral_decompose", "TimeGrid", "Tolerances",
    "born_table", "biprob_table",
    "analyze", "check_kc", "check_cm", "check_sf", "check_bi_consistency",
    "verify_generalized_relation", "check_ncgd", "classify_block_structure",
    "verify_ncgd_cm_equivalence",
    "sample_ensemble",
    "exact_reduced_state", "surrogate_average", "compare",
    "BornlabError", "__version__",
]


def _identifiers(node):
    """Names and attribute names under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _bench_bound():
    """Attribute names, imported names and identifier-like strings of the benchmark's binders.

    The tracer reaches bornlab through ``module.attr`` and ``getattr(module, "attr")``,
    the driver through ``from bornlab import name``; a local variable binds nothing.
    """
    names = set()
    for path in BENCH_BINDERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if node.value.isidentifier():
                    names.add(node.value)
    return names


# ``module.name`` of each module-level name that src binds and nothing in src uses beyond
# the binding: each is kept only because the benchmark binds it. When the benchmark stops
# binding one, test_benchmark_only_bindings_are_bound_by_the_benchmark names it for deletion.
BENCH_ONLY = [
    "cli.born_table", "process.heisenberg_projectors", "qrf.check_cm", "qrf.check_sf",
    "qrf.qrf_bi_probability", "qrf.qrf_born", "sampler.propagator",
    "spectral.heisenberg_projectors",
]


# the private names each src module reads from another (``from .other import _name``, or
# ``other._name`` after ``from . import other``): the places where one module knows another's
# internals, such as the interleaved table layout that only process slices
PRIVATE_READS = {
    "consistency": {"process": ["_pair_diagonal", "_table"]},
    "observer": {"sampler": ["_relabel", "_slot"]},
    "qrf": {"consistency": ["_record", "_worst"]},
}


def private_reads():
    """``{module: {other: names}}`` of the private names each src module reads from another."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        relative = [node for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1]
        siblings = {alias.asname or alias.name: alias.name
                    for node in relative if node.module is None for alias in node.names}
        reads = {(node.module, alias.name) for node in relative if node.module
                 for alias in node.names}
        reads |= {(siblings[node.value.id], node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in siblings}
        for other, name in sorted(reads):
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(path.stem, {}).setdefault(other, []).append(name)
    return found


def _uses(statements):
    """Identifiers of the statements that are not imports."""
    return {name for stmt in statements if not isinstance(stmt, (ast.Import, ast.ImportFrom))
            for name in _identifiers(stmt)}


def idle_bindings():
    """``module.name`` of each module-level binding that src uses nowhere beyond it.

    An imported name counts as used only in its own module; a function or class
    outside ``__all__`` anywhere in the package outside its definition. Dunder
    names are module protocol, not bindings of the library.
    """
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    idle = []
    for stem, tree in modules.items():
        own = _uses(tree.body)
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                if getattr(node, "module", None) == "__future__":
                    continue
                names = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
                idle += [f"{stem}.{name}" for name in names if name not in own]
            elif (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and node.name not in bornlab.__all__
                  and not any(node.name in _uses(s for s in other.body if s is not node)
                              for other in modules.values())):
                idle.append(f"{stem}.{node.name}")
    return [name for name in idle if not name.split(".")[1].startswith("__")]


def dead_names():
    """``module.name`` of each binding nothing keeps alive: idle in src, unbound by the benchmark."""
    bound = _bench_bound()
    return [name for name in idle_bindings() if name.split(".")[1] not in bound]


def test_all_is_pinned_and_resolves():
    assert sorted(bornlab.__all__) == sorted(PUBLIC)
    assert len(set(bornlab.__all__)) == len(bornlab.__all__)
    for name in bornlab.__all__:
        assert getattr(bornlab, name, None) is not None, name


def test_no_public_definition_is_dead():
    assert dead_names() == []


def test_names_resolve_on_first_use_and_no_other_name_does():
    # __all__ resolves through the package's __getattr__, which refuses any other name
    assert not hasattr(bornlab, "not_a_public_name")
    namespace = {}
    exec("from bornlab import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
    from bornlab.qrf import QRFModel

    assert namespace["QRFModel"] is QRFModel


def test_benchmark_only_bindings_are_bound_by_the_benchmark():
    assert sorted(idle_bindings()) == sorted(BENCH_ONLY)
    bound = _bench_bound()
    assert [name for name in BENCH_ONLY if name.split(".")[1] not in bound] == []


def test_private_reads_across_modules_are_pinned():
    assert private_reads() == PRIVATE_READS
