"""Paired benchmark runs of a parent and a changed revision, written as BENCH_<pr>.json.

    python3 tools/bench_pairs.py --parent REV --pr N [--change REV] [--pairs 10]
        [--workload NAME ...] [--claim WORKLOAD] [--layers] [--description TEXT]
        [--scratch DIR]

Every run is ``python3 perfbench/run.py --workload NAME --trace 0`` in a fresh
copy of its revision (``git archive`` into a new directory, removed after the
run), so no run sees files another run left behind.  Pair i runs the parent
first when i is odd and the change first when i is even.  For each workload
the record keeps, per side, the median and quartiles of every end-to-end
metric and every run's value in pair order, how many pairs the change's
``pass_s`` was the lower one, whether every run's checks passed, the failed
operations and the failed runs, and whether the change's median stays
within the metric's ``BENCHMARK.json`` bound of the parent's: ``true`` or
``false``, or ``"unresolved"`` where the parent's own interquartile range
is wider than the bound, so the runs cannot tell (unless every run of the
change reads lower than every run of the parent), or where a side has
fewer than two runs with a value.  A failed run printed no result: its
values are ``null``, it is left out of the quartiles and the pair
comparison, and the workload is not ``correct``.
The run length is perfbench's own.

Per revision and workload, one traced run, ``perfbench/run.py --workload NAME
--trace 1`` in a fresh copy, gives the workload's count metrics (those in the
unit "count": ``*.calls``, ``*.evals`` and the like).  The record keeps them
under its ``traced`` key and names every workload whose counts differ
between the revisions (a failed traced run has none, which differs too).

``--claim WORKLOAD`` claims a lower ``pass_s`` on that workload.  The claim
is met when the change's ``pass_s`` is the lower one in at least nine tenths
of the pairs (ties count for neither) and its median is below the parent's
by more than the parent's interquartile range; the record says which.

``--layers`` adds the layer timings of the simulator and of the dropout
average under the record's ``layers`` key.  In ``LAYER_ROUNDS`` rounds,
alternating which revision goes first, a fresh process in a fresh copy of
each revision times these calls with ``timeit``, in wall and in process CPU
time, and keeps the minimum of ``LAYER_REPEAT`` repeats:

* ``substream_us``: ``simulate._substream``, per call;
* ``draw_two_sample_us_per_rep``: ``simulate._draw`` per replicate on the
  block of ``table1_equal_050`` at 64 + 64;
* ``draw_mmrm_us_per_rep``: ``simulate._draw`` per replicate on the blocks of
  ``table3_cs_q1_m04`` at 78 + 78;
* ``decide_one_df_us_per_entry`` and ``decide_distinct_df_us_per_entry``:
  ``simulate._decide`` per entry of a 4096-replicate chunk with one float d.f.
  (as the one-sample, pooled and crossover engines give it) and with a d.f.
  per entry (Welch and the fitted analyses);
* ``fit_visits_us_per_rep``: ``simulate._fit_visits`` per replicate on
  ``table3_un_q3_m12`` at 12 + 12;
* ``dropout_average_ms_per_call``: ``mmrm.dropout_averaged_power`` of the
  simplified formula (``mmrm_power_approx``) on ``table3_un_q3_m12`` at
  12 + 12, criterion 5's costliest average, in milliseconds (its clocks are
  ``wall_ms`` and ``cpu_ms``).

The arguments of ``_draw`` and ``_fit_visits`` are those an engine chunk of
the revision passes, caught on the way.  The record keeps, per revision and
call, the minimum over the rounds and every round's value.

The perfbench tracer still reports a few per-layer metrics that read 0 on
every revision since the program stopped having what they count; the record
lists them under ``dead_metrics`` so that no one cites them as results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("reference-tables", "simulate-exact", "simulate-mmrm")
DEAD_METRICS = {
    "dist.f_sf_grid.*": "wraps dist._f_sf_ncp_grid, which the program no longer has",
    "dist.nct_grid.*": "wraps dist._nct_upper_tail_grid and dist._nct_cdf_ncp_grid, "
                       "which the program no longer has",
    "equivalence.inner_integrals": "counts dist.integrate calls nested in another; the inner "
                                   "equivalence integral is not a dist.integrate call",
    "simulate.fallback_fits": "counts analyze_ancova and analyze_mmrm calls in a simulation; "
                              "the batched fit no longer makes them",
}


LAYER_ROUNDS = 3
LAYER_NUMBER = 20
LAYER_REPEAT = 5
# Run as ``python -c LAYER_PROBE NUMBER REPEAT`` with the revision's ``src`` on
# the path; prints one JSON object, per call {"wall_us": .., "cpu_us": ..}
# ("wall_ms" and "cpu_ms" for the dropout average).  It calls the simulator
# only through signatures every revision since the counter-per-replicate
# stream shares, and the average as ``dropout_averaged_power(power_at,
# design, n_per_group)``.
LAYER_PROBE = """
import json, sys, time, timeit
import numpy as np
from trialsize import mmrm, simulate as sim
from trialsize.config import load_design
from trialsize.equivalence import Margins
from trialsize.tables import fixture_path

number, repeat = int(sys.argv[1]), int(sys.argv[2])


def best(call, per, scale=1, unit="us"):
    runs, factor = number * scale, 1e3 if unit == "ms" else 1e6
    return {
        f"{name}_{unit}": min(timeit.repeat(call, timer=timer, number=runs, repeat=repeat))
        / runs / per * factor
        for name, timer in (("wall", time.perf_counter), ("cpu", time.process_time))
    }


def caught(name, engine, fixture, n_per_group, count):
    calls, inner = [], getattr(sim, name)
    setattr(sim, name, lambda *args: calls.append(args) or inner(*args))
    try:
        sc = load_design(fixture_path(fixture)).scenario
        getattr(sim, engine)(sc, n_per_group, sc.seed, 0, count)
    finally:
        setattr(sim, name, inner)
    return calls[0]


philox = sim._philox(20240801)
draw_t = caught("_draw", "_simulate_two_sample", "table1_equal_050", (64, 64), 256)
draw_m = caught("_draw", "_simulate_mmrm", "table3_cs_q1_m04", (78, 78), 256)
fit = caught("_fit_visits", "_simulate_mmrm", "table3_un_q3_m12", (12, 12), 256)
rng = np.random.default_rng(1)
est, se = rng.normal(0.5, 0.2, 4096), rng.uniform(0.1, 0.3, 4096)
one_df, many_df = 126.0, rng.uniform(60.0, 126.0, 4096)
superiority = Margins.superiority()
average = load_design(fixture_path("table3_un_q3_m12"))
simplified = lambda d, n: mmrm.mmrm_power_approx(d, n, average.alpha).value
print(json.dumps({
    "substream_us": best(lambda: sim._substream(philox, 123456), 1, 1000),
    "draw_two_sample_us_per_rep": best(lambda: sim._draw(*draw_t), draw_t[2]),
    "draw_mmrm_us_per_rep": best(lambda: sim._draw(*draw_m), draw_m[2]),
    "decide_one_df_us_per_entry": best(
        lambda: sim._decide(est, se, one_df, 0.05, superiority, 0.0), 4096, 10),
    "decide_distinct_df_us_per_entry": best(
        lambda: sim._decide(est, se, many_df, 0.05, superiority, 0.0), 4096, 10),
    "fit_visits_us_per_rep": best(lambda: sim._fit_visits(*fit), len(fit[0])),
    "dropout_average_ms_per_call": best(
        lambda: mmrm.dropout_averaged_power(simplified, average.design, (12, 12)), 1, unit="ms"),
}))
"""


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, stdout=subprocess.PIPE, text=True
    ).stdout.strip()


def in_copy(rev: str, scratch: Path, command: list[str]) -> str:
    """The standard output of ``command`` run in a fresh copy of ``rev``."""
    copy = Path(tempfile.mkdtemp(prefix="bench-", dir=scratch))
    try:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", rev], check=True, stdout=subprocess.PIPE
        ).stdout
        subprocess.run(["tar", "-x", "-C", str(copy)], input=archive, check=True)
        return subprocess.run(command, cwd=copy, stdout=subprocess.PIPE, text=True).stdout
    finally:
        shutil.rmtree(copy, ignore_errors=True)


def run_once(rev: str, workload: str, scratch: Path, trace: int = 0) -> dict | None:
    """One perfbench run of ``workload`` in a fresh copy of ``rev``: its last
    output line, the result object, or None for a run that printed none."""
    out = in_copy(rev, scratch, [sys.executable, "perfbench/run.py", "--workload", workload,
                                 "--trace", str(trace)])
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None


def layer_command(number: int, repeat: int = LAYER_REPEAT) -> list[str]:
    """The layer probe, run in a checkout's root with its ``src`` on the path."""
    return [sys.executable, "-c", f"import sys; sys.path.insert(0, 'src')\n{LAYER_PROBE}",
            str(number), str(repeat)]


def layer_record(rounds: dict[str, list[dict]]) -> dict:
    """Per revision and call: the minimum over the rounds, in wall and CPU
    time (in the unit the probe gave), and every round's values."""
    record = {}
    for side, side_rounds in rounds.items():
        record[side] = {
            call: {
                clock: round(min(r[call][clock] for r in side_rounds), 4)
                for clock in side_rounds[0][call]
            } | {"rounds": [{k: round(v, 4) for k, v in r[call].items()} for r in side_rounds]}
            for call in side_rounds[0]
        }
    return record


def counts(run: dict | None) -> dict[str, float] | None:
    """The count metrics of one traced run, by name; None for a failed run."""
    if run is None:
        return None
    return {name: m["value"] for name, m in sorted(run["metrics"].items()) if m["unit"] == "count"}


def traced_record(runs: dict[str, dict[str, dict | None]]) -> dict:
    """From each workload's traced run per revision, the count metrics per
    workload and revision, and the workloads whose counts differ."""
    by_workload = {w: {side: counts(run) for side, run in sides.items()} for w, sides in runs.items()}
    return {
        "command": "python3 perfbench/run.py --workload WORKLOAD --trace 1",
        "counts_differ": [w for w, c in by_workload.items() if c["parent"] != c["change"]],
        "workloads": by_workload,
    }


def value(run: dict | None, name: str) -> float | None:
    """A metric's value in one run; None for a failed run or a missing metric."""
    return run["metrics"].get(name, {}).get("value") if run else None


def quartiles(values: list[float | None]) -> dict:
    """Median and quartiles of the runs that gave a value (None without two
    of them), and every run's value in pair order."""
    kept = [v for v in values if v is not None]
    q1 = median = q3 = None
    if len(kept) >= 2:
        q1, median, q3 = (round(q, 3) for q in statistics.quantiles(kept, n=4, method="exclusive"))
    return {"median": median, "q1": q1, "q3": q3,
            "runs": [None if v is None else round(v, 3) for v in values]}


def summarize(runs: dict[str, list[dict | None]], bounds: dict[str, float]) -> dict:
    """The record of one workload from its parent and change runs, pair by
    pair; a failed run is None."""
    pairs = zip(runs["parent"], runs["change"])
    pass_s = [(value(p, "pass_s"), value(c, "pass_s")) for p, c in pairs]
    record = {
        "seed": 0,
        "pairs": len(runs["parent"]),
        "change_faster_pass_s": sum(None not in pair and pair[1] < pair[0] for pair in pass_s),
        "failed_runs": {side: side_runs.count(None) for side, side_runs in runs.items()},
    }
    within = {}
    for name, bound in bounds.items():
        values = {side: [value(r, name) for r in side_runs] for side, side_runs in runs.items()}
        record[name] = {side: quartiles(values[side]) for side in runs}
        parent, change = record[name]["parent"], record[name]["change"]
        kept = {side: [v for v in values[side] if v is not None] for side in runs}
        if parent["median"] is None or change["median"] is None:
            within[name] = "unresolved"
        elif max(kept["change"]) < min(kept["parent"]):
            within[name] = True
        elif parent["q3"] - parent["q1"] > bound * parent["median"]:
            within[name] = "unresolved"
        else:
            within[name] = change["median"] <= parent["median"] * (1.0 + bound)
    record["correct"] = all(r is not None and r["correct"] for side in runs.values() for r in side)
    record["failed_operations"] = {
        side: sum(r["failed"] or 0 for r in side_runs if r) for side, side_runs in runs.items()
    }
    record["within_bounds"] = within
    return record


def judge_claim(workload: str, record: dict) -> dict:
    """The claim of a lower ``pass_s`` on ``workload``, judged on its record."""
    pass_s = record["pass_s"]
    parent, change = pass_s["parent"], pass_s["change"]
    wins, pairs = record["change_faster_pass_s"], record["pairs"]
    met = None not in (parent["median"], change["median"]) and (
        wins >= 0.9 * pairs
        and parent["median"] - change["median"] > parent["q3"] - parent["q1"]
    )
    return {
        "workload": workload,
        "metric": "pass_s",
        "met": met,
        "result": f"{'met' if met else 'not met'}: change faster in {wins} of {pairs} pairs, "
                  f"median {parent['median']} -> {change['median']} s, parent interquartile "
                  f"range {parent['q1']}-{parent['q3']} s",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent revision")
    parser.add_argument("--change", default="HEAD", help="the changed revision (HEAD)")
    parser.add_argument("--pr", required=True, type=int, help="the number in BENCH_<pr>.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--claim", choices=WORKLOADS, help="the workload of a claimed pass_s gain")
    parser.add_argument("--layers", action="store_true",
                        help="also record the simulator's and the dropout average's layer timings")
    parser.add_argument("--description", default="", help="what the change does")
    parser.add_argument("--scratch", type=Path, default=Path(tempfile.gettempdir()))
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs needs at least 2 pairs for quartiles")
    if args.claim and args.claim not in (args.workload or WORKLOADS):
        parser.error("--claim names a workload that is not run")

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    revs = {"parent": git("rev-parse", "--short", args.parent),
            "change": git("rev-parse", "--short", args.change)}
    args.scratch.mkdir(parents=True, exist_ok=True)

    workloads, traced = {}, {}
    for workload in args.workload or WORKLOADS:
        runs = {"parent": [], "change": []}
        for i in range(1, args.pairs + 1):
            order = ("parent", "change") if i % 2 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(revs[side], workload, args.scratch))
                pass_s = value(runs[side][-1], "pass_s")
                print(f"{workload} pair {i} {side}: pass_s {pass_s}", flush=True)
        workloads[workload] = summarize(runs, bounds)
        traced[workload] = {side: run_once(revs[side], workload, args.scratch, trace=1)
                            for side in ("parent", "change")}

    layers = None
    if args.layers:
        rounds = {"parent": [], "change": []}
        for i in range(1, LAYER_ROUNDS + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                out = in_copy(revs[side], args.scratch, layer_command(LAYER_NUMBER))
                rounds[side].append(json.loads(out.strip().splitlines()[-1]))
                print(f"layers round {i} {side}: {rounds[side][-1]}", flush=True)
        layers = layer_record(rounds)

    import numpy
    import scipy

    record = {
        "change": args.description,
        "parent": revs["parent"],
        "machine": {
            "cores": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas_threads": 1,
            "note": "perfbench scales pass_s and setup_s to its reference speed",
        },
        "commands": {
            "run": "python3 perfbench/run.py --workload WORKLOAD --trace 0",
            "run_seconds": manifest["run_seconds"],
            "seeds": {"0": "every simulated row at its fixture's shipped seed"},
            "pairs": "parent and change each from a fresh copy of the tree; pair i runs "
                     "parent first when i is odd and change first when i is even",
            "quartiles": "statistics.quantiles(values, n=4), exclusive method",
            "written_by": "python3 tools/bench_pairs.py",
        },
        "claim": (
            judge_claim(args.claim, workloads[args.claim]) if args.claim
            else {"workload": None, "metric": None, "result": "no gain claimed"}
        ),
        "workloads": workloads,
        "traced": traced_record(traced),
        "dead_metrics": DEAD_METRICS,
    }
    if layers is not None:
        record["layers"] = {
            "command": "python3 tools/bench_pairs.py --layers (see its docstring)",
            "rounds": LAYER_ROUNDS,
            "timeit": {"number": LAYER_NUMBER, "repeat": LAYER_REPEAT, "statistic": "minimum"},
            **layers,
        }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=2, allow_nan=False) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")
    print(f"traced counts differ on: {record['traced']['counts_differ'] or 'no workload'}")
    ok = record["claim"].get("met", True) and all(
        w["correct"] and all(v is True for v in w["within_bounds"].values())
        for w in workloads.values()
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
