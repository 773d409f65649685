"""The package's modules import each other without a cycle, importing the
CLI leaves out ``scipy.stats``, every public power function and model
constructor has a caller outside the tests, and every family's model is one
of those constructors."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import trialsize
from trialsize.families import FAMILIES

PACKAGE = Path(trialsize.__file__).parent
REPO = Path(__file__).resolve().parents[1]
# the modules whose public power functions must each have a caller
POWER_MODULES = ("core", "designs", "ancova", "equivalence", "mmrm")
# the modules whose public model constructors (*_kernel, *_sizing) must each
# have a caller
MODEL_MODULES = ("designs", "ancova", "mmrm")


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


def public_functions(modules, named) -> dict[str, str]:
    """Every function in the ``__all__`` of ``modules`` whose name passes
    ``named``, by name, with its module."""
    found = {}
    for module_name in modules:
        module = importlib.import_module(f"trialsize.{module_name}")
        for name in module.__all__:
            if named(name) and inspect.isfunction(getattr(module, name)):
                found[name] = module_name
    return found


def public_powers() -> dict[str, str]:
    """Every function named ``*power*`` in the ``__all__`` of ``POWER_MODULES``."""
    return public_functions(POWER_MODULES, lambda name: "power" in name)


def public_models() -> dict[str, str]:
    """Every function named ``*_kernel`` or ``*_sizing`` in the ``__all__`` of
    ``MODEL_MODULES``."""
    return public_functions(MODEL_MODULES, lambda name: name.endswith(("_kernel", "_sizing")))


def uncalled(functions: dict[str, str]) -> list[str]:
    """The ``module.name`` of each of ``functions`` that no other package
    module (the package's ``__init__`` only re-exports), perfbench or tool
    names."""
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    sources += [*(REPO / "perfbench").rglob("*.py"), *(REPO / "tools").rglob("*.py")]
    used = {path: referenced_names(path.read_text()) for path in sources}
    missing = []
    for name, module in functions.items():
        others = [names for path, names in used.items() if path != PACKAGE / f"{module}.py"]
        if not any(name in names for names in others):
            missing.append(f"{module}.{name}")
    return missing


def test_the_reader_sees_names_attributes_and_imports():
    source = "from .core import a\nimport b\nc.d(e)\n# f\n'g'\n"
    assert referenced_names(source) == {"a", "b", "c", "d", "e"}


def test_every_public_power_function_has_a_caller_outside_the_tests():
    # a power that only the tests call is a second entry point beside the
    # family's power rows (Family.powers), free to drift from them
    missing = uncalled(public_powers())
    assert not missing, f"no package module, perfbench or tool calls {missing}"


def test_every_public_model_constructor_has_a_caller_outside_the_tests():
    # a model that only the tests build is a second way into a family's
    # design-stage model (Family.sizing), free to drift from it
    assert {"one_sample_kernel", "two_sample_kernel", "mmrm_sizing"} <= set(public_models())
    missing = uncalled(public_models())
    assert not missing, f"no package module, perfbench or tool calls {missing}"


def test_every_family_model_is_a_public_constructor_of_the_design_alone():
    models = public_models()
    for family_name, family in FAMILIES.items():
        sizing = family.sizing
        assert sizing.__name__ in models, f"{family_name}: {sizing!r} is no public constructor"
        module = importlib.import_module(f"trialsize.{models[sizing.__name__]}")
        assert getattr(module, sizing.__name__) is sizing, family_name
        assert len(inspect.signature(sizing).parameters) == 1, family_name


def test_the_tables_take_every_power_from_the_family_rows():
    # as its docstring says: the powers come from the design's family record
    names = referenced_names((PACKAGE / "tables.py").read_text())
    direct = sorted(names & set(public_powers()))
    assert not direct, f"the tables call {direct}"
