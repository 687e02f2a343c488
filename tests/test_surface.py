"""The public surface: ``bornlab.__all__`` is pinned, and no library name is dead.

A public top-level function or class of ``src/bornlab`` must be used in the
package outside its own definition, be exported in ``__all__``, or be a name
that the benchmark's tracer (``perfbench/tracing.py``) or driver
(``perfbench/run.py``) binds. Import statements do not count as uses, so a
name kept alive only by an import fails.
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
    "sample_ensemble", "sample_trajectory", "empirical_joint",
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


def dead_names():
    """``module.name`` of each public top-level definition nothing keeps alive."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py"))}
    kept = set(bornlab.__all__) | _bench_bound()
    dead = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in kept:
                continue
            used = any(node.name in _identifiers(stmt)
                       for other in modules.values() for stmt in other.body
                       if stmt is not node and not isinstance(stmt, (ast.Import, ast.ImportFrom)))
            if not used:
                dead.append(f"{stem}.{node.name}")
    return dead


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
