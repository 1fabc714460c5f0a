"""Static checks on the package source, for want of an installed linter."""

import ast
import importlib
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


BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _is_module(name):
    try:
        importlib.import_module(name)
    except ImportError:
        return False
    return True


def polarq_names(paths):
    """Sorted ``module:name`` pairs that the sources import from or read off polarq.

    The sources are parsed, not imported.  A name counts when a
    ``from polarq... import`` names it, or when an attribute is read off a
    name bound to a polarq module by ``import polarq...`` or by a
    ``from polarq... import`` of a submodule.
    """
    pairs = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # bound name -> polarq module
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname and alias.name.split(".")[0] == "polarq":
                        modules[alias.asname] = alias.name
                    elif alias.name.split(".")[0] == "polarq":
                        modules["polarq"] = "polarq"
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "polarq":
                for alias in node.names:
                    pairs.add(f"{node.module}:{alias.name}")
                    if _is_module(f"{node.module}.{alias.name}"):
                        modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"

        def module_of(node):
            if isinstance(node, ast.Name):
                return modules.get(node.id)
            if isinstance(node, ast.Attribute):
                owner = module_of(node.value)
                if owner is not None and _is_module(f"{owner}.{node.attr}"):
                    return f"{owner}.{node.attr}"
            return None

        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = module_of(node.value)
                if owner is not None:
                    pairs.add(f"{owner}:{node.attr}")
    return sorted(pairs)


def unresolved(pairs):
    """The ``module:name`` pairs that name neither an attribute nor a submodule."""
    missing = []
    for pair in pairs:
        module, name = pair.split(":")
        found = hasattr(importlib.import_module(module), name) or _is_module(f"{module}.{name}")
        if not found:
            missing.append(pair)
    return missing


def test_every_benchmark_name_resolves():
    # the benchmark imports and reads these names; one that a refactor
    # drops passes this suite but breaks the benchmark
    names = polarq_names(sorted(BENCH.glob("*.py")) + sorted(BENCH.glob("tests/*.py")))
    assert len(names) >= 20
    assert {"polarq.bounds:_universal_bracket", "polarq.sim:_trial_stream",
            "polarq.cli:DEFAULT_GRID"} <= set(names)
    assert unresolved(names) == []


def test_missing_benchmark_name_is_flagged(tmp_path):
    source = tmp_path / "bench.py"
    source.write_text("import polarq\nimport polarq.sim as s\nfrom polarq import cli, gone\n"
                      "from polarq.bounds import curve\n\n"
                      "x = (cli.main, cli.NO_SUCH, s._trial_stream, polarq.codec.nothing)\n"
                      "cli.NEW = 1\n")
    names = polarq_names([source])
    assert names == ["polarq.bounds:curve", "polarq.cli:NO_SUCH", "polarq.cli:main",
                     "polarq.codec:nothing", "polarq.sim:_trial_stream", "polarq:cli",
                     "polarq:codec", "polarq:gone"]
    assert unresolved(names) == ["polarq.cli:NO_SUCH", "polarq.codec:nothing", "polarq:gone"]
