"""The benchmark's workloads run against this checkout.

``perfbench/workloads.py`` is imported as it is.  One pass of each workload
at seed 0, every row included, must complete every operation, and the
workload's own check must report no problem.  So the program still offers
every name, signature and output the benchmark reads; for example
``DesignConfig.margins`` is None exactly under superiority, which selects the
MMRM rows' formula.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
NAMES = ("reference-tables", "simulate-exact", "simulate-mmrm")


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
