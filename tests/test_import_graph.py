"""The package's modules import each other without a cycle, importing the
CLI leaves out ``scipy.stats``, and every public power function has a caller
outside the tests."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import trialsize

PACKAGE = Path(trialsize.__file__).parent
REPO = Path(__file__).resolve().parents[1]
# the modules whose public power functions must each have a caller
POWER_MODULES = ("core", "designs", "ancova", "equivalence", "mmrm")


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


def referenced_names(source: str) -> set[str]:
    """The names ``source`` uses: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def public_powers() -> dict[str, str]:
    """Every function named ``*power*`` in the ``__all__`` of ``POWER_MODULES``,
    by name, with its module."""
    powers = {}
    for module_name in POWER_MODULES:
        module = importlib.import_module(f"trialsize.{module_name}")
        for name in module.__all__:
            if "power" in name and inspect.isfunction(getattr(module, name)):
                powers[name] = module_name
    return powers


def test_the_reader_sees_names_attributes_and_imports():
    source = "from .core import a\nimport b\nc.d(e)\n# f\n'g'\n"
    assert referenced_names(source) == {"a", "b", "c", "d", "e"}


def test_every_public_power_function_has_a_caller_outside_the_tests():
    # a power that only the tests call is a second entry point beside the
    # family's power rows (Family.powers), free to drift from them; the
    # package's __init__ only re-exports
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(REPO / "perfbench").rglob("*.py"), *(REPO / "tools").rglob("*.py")]
    used = {path: referenced_names(path.read_text()) for path in sources}
    uncalled = []
    for name, module in public_powers().items():
        others = [names for path, names in used.items() if path != PACKAGE / f"{module}.py"]
        if not any(name in names for names in others):
            uncalled.append(f"{module}.{name}")
    assert not uncalled, f"no package module, perfbench or tool calls {uncalled}"


def test_the_tables_take_every_power_from_the_family_rows():
    # as its docstring says: the powers come from the design's family record
    names = referenced_names((PACKAGE / "tables.py").read_text())
    direct = sorted(names & set(public_powers()))
    assert not direct, f"the tables call {direct}"
