"""The benchmark's workloads: what each runs, how it is timed and checked.

A pass runs every operation of a workload once.  Only the program's calls are
timed: ``tables.build_table``, ``simulate.simulate_power`` and
``mmrm.dropout_averaged_power``, each looked up on its module at call time so
that the tracer's wrappers apply.  Everything a check needs is computed after
the timed passes.
"""

from __future__ import annotations

import importlib.util
import math
from dataclasses import dataclass, field
from pathlib import Path

from trialsize import config, core, designs, mmrm, simulate, tables
from trialsize.ancova import ancova_power_exact
from trialsize.equivalence import Margins, equiv_power_exact, ts_unequal_equiv_power

import checks
import speed

ROOT = Path(__file__).resolve().parent.parent

# Replicates per simulated row.  Counter-based substreams make them the first
# replicates of criterion 5's run of the row when the seed offset is 0.
EXACT_REPLICATES = 2000
MMRM_REPLICATES = 1000

_T1_CODES = ("050", "075", "100", "125", "150", "175", "200", "225")
_T2_CODES = ("100", "125", "150", "175", "200")
_COVS = ("un", "cs", "ar1", "toep")


def table_fixtures(number: int) -> list[str]:
    """Fixture names of one reference table, in the builder's row order."""
    return {
        1: [f"table1_{v}_{c}" for v in ("equal", "unequal") for c in _T1_CODES],
        2: [f"table2_q{q}_{c}" for q in (1, 3) for c in _T2_CODES],
        3: [f"table3_{cov}_q{q}_m{m}" for q in (1, 3) for cov in _COVS for m in ("12", "08", "04")],
        4: [f"table4_s2_{125 * k:04d}" for k in range(1, 7)],
        5: [f"table5_m_{c}" for c in ("05", "10", "15")],
        6: [f"table6_{cov}_q{q}_m{m}" for q in (1, 3) for cov in _COVS for m in ("8", "4")],
    }[number]


def reference_values():
    """The published figures, tests/reference_values.py of the checkout."""
    spec = importlib.util.spec_from_file_location("reference_values", ROOT / "tests" / "reference_values.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Pass:
    """One pass: the outputs, and each program call's kind, wall time and time
    at the reference speed."""

    calls: list[tuple[str, float, float]] = field(default_factory=list)
    outputs: list = field(default_factory=list)
    failed: int = 0
    clock: speed.Clock = field(default_factory=speed.Clock)

    def timed(self, kind: str, call, *args, **kwargs):
        result, wall, scaled = self.clock.time(call, *args, **kwargs)
        self.calls.append((kind, wall, scaled))
        return result


class ReferenceTables:
    """``build_table(1..6)``, all 75 rows of the six reference tables."""

    name = "reference-tables"

    def __init__(self, seed: int, quick: bool):
        self.numbers = (4,) if quick else tables.TABLE_NUMBERS
        self.fixtures = [f for n in self.numbers for f in table_fixtures(n)]
        self.replicates = 0

    def load(self) -> None:
        for name in self.fixtures:
            config.load_design(tables.fixture_path(name))

    def operations(self) -> int:
        return len(self.fixtures)

    def run_pass(self) -> Pass:
        run = Pass()
        for number in self.numbers:
            try:
                _, rows = run.timed(f"table{number}", tables.build_table, number)
            except Exception as exc:  # a failed build fails its rows; the run goes on
                run.failed += len(table_fixtures(number))
                rows = repr(exc)
            run.outputs.append(rows)
        return run

    def check(self, passes: list[Pass]) -> tuple[list[str], list[str]]:
        reference = reference_values()
        problems = []
        for number, rows in zip(self.numbers, passes[0].outputs):
            if isinstance(rows, list):
                docs = [checks.load_fixture(ROOT, f) for f in table_fixtures(number)]
                problems += checks.table_problems(number, rows, reference, docs)
        if any(p.outputs != passes[0].outputs for p in passes[1:]):
            problems.append("a later pass built different tables than the first")
        return problems, []


@dataclass
class SimRow:
    label: str
    fixture: str
    per_group: tuple[int, int]
    config: object = None


class _Simulation:
    """Shared by both simulation workloads: rows simulated at a fixed
    replicate count, at the fixture's seed plus the run's seed offset."""

    replicates_per_row = 0

    def __init__(self, seed: int, quick: bool):
        self.seed = seed
        self.rows = self.make_rows(reference_values())[:1 if quick else None]
        self.fixtures = sorted({row.fixture for row in self.rows})
        self.replicates = self.replicates_per_row * len(self.rows)

    def load(self) -> None:
        configs = {name: config.load_design(tables.fixture_path(name)) for name in self.fixtures}
        for row in self.rows:
            row.config = configs[row.fixture]

    def operations(self) -> int:
        return len(self.rows)

    def simulate(self, run: Pass, row: SimRow):
        cfg = row.config
        objective = cfg.margins or Margins.superiority()
        return run.timed("simulate", simulate.simulate_power, cfg.scenario, row.per_group,
                         cfg.alpha, objective, replicates=self.replicates_per_row,
                         seed=cfg.scenario.seed + self.seed)

    def run_pass(self) -> Pass:
        run = Pass()
        for row in self.rows:
            try:
                run.outputs.append(self.run_row(run, row))
            except Exception as exc:  # a failed row is counted; the run goes on
                run.failed += 1
                run.outputs.append(repr(exc))
        return run

    def run_row(self, run: Pass, row: SimRow):
        report = self.simulate(run, row)
        return report.rejections, report.failures, report.power_hat

    def check(self, passes: list[Pass]) -> tuple[list[str], list[str]]:
        first = passes[0].outputs
        problems = []
        if any(p.outputs != first for p in passes[1:]):
            problems.append("a later pass with the same seed gave other outputs than the first")
        for i in sorted({0, len(self.rows) - 1}):
            if not isinstance(first[i], tuple):
                continue
            again = self.simulate(Pass(), self.rows[i])
            if (again.rejections, again.failures) != first[i][:2]:
                problems.append(f"{self.rows[i].label}: rerun with the same seed gives "
                                f"{again.rejections} rejections, first {first[i][0]}")
        labels, z = [], []
        for row, out in zip(self.rows, first):
            if isinstance(out, tuple):
                # the binomial standard error if the formula is right
                formula = self.formula(row, out)
                se = math.sqrt(formula * (1.0 - formula) / (self.replicates_per_row - out[1]))
                labels.append(row.label)
                z.append((out[2] - formula) / se)
        found, summary = checks.concordance(labels, z) if z else ([], "no row completed")
        return problems + found, [f"formula concordance: {summary}"]


class SimulateExact(_Simulation):
    """The 44 Table 1, 2, 4 and 5 rows of criterion 5, against their exact
    power formulas."""

    name = "simulate-exact"
    replicates_per_row = EXACT_REPLICATES

    @staticmethod
    def make_rows(ref) -> list[SimRow]:
        sizes = [(f, row[7]) for f, row in zip(table_fixtures(1), ref.TABLE1)]
        sizes += [(f, row[9]) for f, row in zip(table_fixtures(2), ref.TABLE2)]
        sizes += [(f, n) for f, row in zip(table_fixtures(4), ref.TABLE4) for n in (row[6], row[9])]
        sizes += [(f, n) for f, row in zip(table_fixtures(5), ref.TABLE5) for n in (row[6], row[10])]
        return [SimRow(f"{f} n={n}+{n}", f, (n, n)) for f, n in sizes]

    @staticmethod
    def formula(row: SimRow, output) -> float:
        cfg, n = row.config, sum(row.per_group)
        table = row.fixture.split("_")[0]
        if table == "table1" and cfg.design.equal_variance:
            return core.power_two_sided(cfg.kernel(), n, cfg.alpha).value
        if table == "table1":
            return designs.moser_exact_power(cfg.design, 0.0, n, cfg.alpha).value
        if table == "table2":
            return ancova_power_exact(cfg.design, n, cfg.alpha).value
        if table == "table4":
            return equiv_power_exact(cfg.kernel(), cfg.margins, n, cfg.alpha).value
        return ts_unequal_equiv_power(cfg.design, cfg.margins, n, cfg.alpha, exact=True).value


class SimulateMmrm(_Simulation):
    """The 40 Table 3 and 6 rows of criterion 5, each with the simplified
    formula averaged over random dropout, which is also the row's check."""

    name = "simulate-mmrm"
    replicates_per_row = MMRM_REPLICATES

    @staticmethod
    def make_rows(ref) -> list[SimRow]:
        totals = [(f, row[9]) for f, row in zip(table_fixtures(3), ref.TABLE3)]
        totals += [(f, row[9]) for f, row in zip(table_fixtures(6), ref.TABLE6)]
        return [SimRow(f"{f} n={n - n // 2}+{n // 2}", f, (n - n // 2, n // 2)) for f, n in totals]

    def run_row(self, run: Pass, row: SimRow):
        cfg = row.config
        if cfg.margins is None:
            power_at = lambda d, n: mmrm.mmrm_power_approx(d, n, cfg.alpha).value
        else:
            power_at = lambda d, n: mmrm.mmrm_equiv_power_approx(d, cfg.margins, n, cfg.alpha).value
        report = self.simulate(run, row)
        average = run.timed("dropout_average", mmrm.dropout_averaged_power, power_at, cfg.design, row.per_group)
        return report.rejections, report.failures, report.power_hat, average.value

    @staticmethod
    def formula(row: SimRow, output) -> float:
        return output[3]


WORKLOADS = {w.name: w for w in (ReferenceTables, SimulateExact, SimulateMmrm)}
