"""Repository gates: the package's import structure, and the README quick
start's artifact digests against ``tools/quickstart_digests.txt``."""

from __future__ import annotations

import ast
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prunekit"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def runtime_imports(tree: ast.AST) -> set[str]:
    """The package modules that ``tree`` imports at runtime: relative imports
    outside ``if TYPE_CHECKING:`` blocks, with ``__init__`` for the package."""
    found: set[str] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and isinstance(node.test, ast.Name) and node.test.id == "TYPE_CHECKING":
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            # ``from . import x`` imports module x, or else a name of the package itself
            names = [node.module.split(".")[0]] if node.module else [alias.name for alias in node.names]
            found.update(name if name in MODULES else "__init__" for name in names)
        stack.extend(ast.iter_child_nodes(node))
    return found


def test_no_import_inside_a_function():
    local = [
        f"{name}.{fn.name}"
        for name, tree in MODULES.items()
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(fn))
    ]
    assert local == []


def test_surgeon_does_not_import_the_planner():
    # the planner applies its plans through surgeon.apply_units
    assert "surgeon" in runtime_imports(MODULES["planner"])
    assert "planner" not in runtime_imports(MODULES["surgeon"])


def test_package_imports_form_a_dag():
    graph = {name: runtime_imports(tree) - {name} for name, tree in MODULES.items()}
    done: set[str] = set()
    while len(done) < len(graph):
        ready = [name for name, deps in graph.items() if name not in done and deps <= done]
        assert ready, f"import cycle among {sorted(graph.keys() - done)}"
        done.update(ready)


def test_quickstart_digests_match_the_recorded_ones(monkeypatch, capsys):
    # tools/quickstart_digests.py, loaded from its file without writing bytecode next to it
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src to sys.path
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("quickstart_digests", ROOT / "tools" / "quickstart_digests.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main_digests() == 0
    printed = capsys.readouterr().out.splitlines()
    recorded = (ROOT / "tools" / "quickstart_digests.txt").read_text(encoding="utf-8").splitlines()
    assert len(printed) == 87
    assert printed == recorded
