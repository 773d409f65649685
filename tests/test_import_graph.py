"""The package's modules import each other without a cycle, and importing
the CLI leaves out ``scipy.stats``."""

import ast
import subprocess
import sys
from pathlib import Path

import trialsize

PACKAGE = Path(trialsize.__file__).parent


def relative_imports(source: str) -> set[str]:
    """The package modules that ``source`` imports, at module or function level."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                imported.add(node.module.split(".")[0])
            else:
                imported.update(alias.name for alias in node.names)
    return imported


def import_graph() -> dict[str, set[str]]:
    return {path.stem: relative_imports(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """A cycle of ``graph`` as the list of its modules, the first repeated at
    the end, or None."""
    done, path = set(), []

    def visit(module: str) -> list[str] | None:
        if module in path:
            return path[path.index(module):] + [module]
        if module in done:
            return None
        path.append(module)
        for target in sorted(graph.get(module, ())):
            cycle = visit(target)
            if cycle:
                return cycle
        path.pop()
        done.add(module)
        return None

    for module in graph:
        cycle = visit(module)
        if cycle:
            return cycle
    return None


def test_the_finder_sees_a_cycle():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None


def test_imports_at_every_level_are_read():
    assert relative_imports("def f():\n    from .families import family_of\n") == {"families"}
    assert relative_imports("from . import core, dist\nimport numpy\n") == {"core", "dist"}


def test_no_import_cycle():
    graph = import_graph()
    assert {"core", "dist", "equivalence", "families", "mmrm"} <= set(graph)
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_the_cli_loads_no_scipy_stats():
    # only the dropout average needs scipy.stats (its qmc module), and it
    # imports it when called
    code = "import sys, trialsize.cli; print('scipy.stats' in sys.modules)"
    src = str(PACKAGE.parent)
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r}); {code}"],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "False"
