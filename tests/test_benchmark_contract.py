"""The benchmark's workloads and tracer run against this checkout.

``perfbench/workloads.py`` is imported as it is.  One pass of each workload
at seed 0, every row included, must complete every operation, and the
workload's own check must report no problem.  So the program still offers
every name, signature and output the benchmark reads; for example
``DesignConfig.margins`` is None exactly under superiority, which selects the
MMRM rows' formula.

``perfbench/tracer.py`` wraps functions of the program by name, and counts
the work of a callable passed as a named parameter.  A function it cannot
find, or a renamed parameter, silently reads 0 in a per-layer metric, so the
names it reads must still be there.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("reference-tables", "simulate-exact", "simulate-mmrm")
# the tracer's layer functions that the program no longer has; their metrics
# read 0 on every revision, and tools/bench_pairs.py lists them as dead
GONE = {"dist._f_sf_ncp_grid", "dist._nct_upper_tail_grid", "dist._nct_cdf_ncp_grid"}


@pytest.fixture(scope="module")
def workloads():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_every_workload_is_covered(workloads):
    assert tuple(workloads.WORKLOADS) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_checks_clean(workloads, name):
    workload = workloads.WORKLOADS[name](seed=0, quick=False)
    workload.load()
    run = workload.run_pass()
    problems, _ = workload.check([run])
    assert run.failed == 0, run.outputs
    assert problems == []


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _program_function(module: str, attr: str):
    return getattr(importlib.import_module(f"trialsize.{module}"), attr, None)


def test_the_tracer_finds_every_layer_function(tracer):
    absent = {
        f"{module}.{attr}"
        for module, attr, _ in tracer.LAYER_FUNCTIONS
        if _program_function(module, attr) is None
    }
    assert absent == GONE


def test_each_counted_callable_keeps_its_parameter_name(tracer):
    firsts = {
        span: {
            next(iter(inspect.signature(_program_function(module, attr)).parameters))
            for module, attr, name in tracer.LAYER_FUNCTIONS
            if name == span
        }
        for span in tracer.COUNTED_CALLABLES
    }
    assert firsts == {span: {param} for span, (param, _, _) in tracer.COUNTED_CALLABLES.items()}
