"""Static checks on the package source, for want of an installed linter."""

import ast
import types
from pathlib import Path

import polarq

MODULES = sorted(p for p in Path(polarq.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(path):
    """``file:line name`` for each module-level import that the module never reads.

    ``from m import x as x`` is an explicit re-export (the PEP 484 convention)
    and is not reported.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.asname != alias.name:
                    bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]


def test_no_unused_module_level_imports():
    assert len(MODULES) >= 7
    assert [entry for path in MODULES for entry in unused_imports(path)] == []


def test_unused_import_is_flagged(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text("from __future__ import annotations\nimport os.path\n"
                      "from math import inf, pi as PI, tau as tau, e as E\n\nx = PI\n")
    assert unused_imports(source) == ["mod.py:2 os", "mod.py:3 inf", "mod.py:3 E"]


def load_tracing():
    """``perfbench/tracing.py`` as a module, executed from its source without caching it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    module = types.ModuleType("tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def test_every_traced_name_resolves():
    # the benchmark's tracer wraps these names; one that a refactor drops
    # turns its per-layer metric into a missing one
    tracing = load_tracing()
    assert len(tracing.TARGETS) >= 20
    missing = [f"{module}:{attribute}" for _, module, attribute, _ in tracing.TARGETS
               if tracing._resolve(module, attribute) is None]
    assert missing == []
    assert tracing._resolve("polarq.channels", "BSC.no_such_method") is None
