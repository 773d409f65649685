"""Benchmark of trialsize: the six reference tables and the Monte Carlo verifier.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]   # every workload
    python3 perfbench/run.py --write-manifest                         # BENCHMARK.json

Run from anywhere inside a checkout of the repository: the program is imported
from the checkout's ``src``.  A run measures whole passes over the workload's
operations until ``--seconds`` have gone by (at least one pass), checks the
outputs and prints, as its last line, one JSON object with ``correct``,
``attempted``, ``failed`` and the metrics: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run also
writes its spans to ``perfbench/out/``.

``--seed 0`` runs every simulated row at its fixture's shipped seed; any other
value is added to every row's seed.  See README.md for the workloads, the
metrics and how the bounds were set.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported, here and in the set-up probes this spawns.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 25
SETUP_PROBES = 3

WORKLOADS = {
    "reference-tables": "build_table(1..6): the dist primitives, size inversion and the "
                        "Welch, ANCOVA and Phillips integrals, without the simulator",
    "simulate-exact": "simulate_power on the 44 t-test, ANCOVA and equivalence rows: "
                      "cheap vectorised analyses, so substream set-up and generation dominate",
    "simulate-mmrm": "simulate_power on the 40 MMRM rows plus their dropout-averaged "
                     "formula: batched fits, fallback fits and mmrm_derived at fixed n",
}
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
    {"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.15},
]
PER_LAYER_UNITS = {
    "dist.t_cdf.calls": "count", "dist.t_cdf.us_per_call": "us",
    "dist.f_sf.calls": "count", "dist.f_sf.us_per_call": "us",
    "dist.f_sf_grid.calls": "count", "dist.f_sf_grid.us_per_call": "us",
    "dist.nct_grid.calls": "count", "dist.nct_grid.us_per_call": "us",
    "dist.integrate.calls": "count", "dist.integrate.evals": "count",
    "dist.integrate.self_s": "s", "dist.find_root.evals": "count",
    "equivalence.inner_integrals": "count",
    "core.size_invert.calls": "count", "core.size_invert.power_evals_per_call": "count",
    "core.size_invert.s": "s",
    "mmrm.derived.calls": "count", "mmrm.derived.us_per_call": "us",
    "mmrm.dropout_average.power_evals": "count",
    "simulate.substream.calls": "count", "simulate.substream.us_per_call": "us",
    "simulate.generation.us_per_rep": "us", "simulate.analysis.us_per_rep": "us",
    "simulate.fallback_fits": "count", "simulate.failures": "count",
    "config.load_design.us_per_call": "us",
    "trace.overhead": "ratio",
}


def manifest() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": n, "unit": u, "better": "lower"} for n, u in PER_LAYER_UNITS.items()],
    }


def import_program():
    """Import the workloads, and through them trialsize, from this checkout."""
    for needed in (ROOT / "src" / "trialsize" / "__init__.py", ROOT / "tests" / "reference_values.py"):
        if not needed.is_file():
            sys.exit(f"perfbench: {needed} is missing; run inside a checkout of the repository")
    sys.path.insert(0, str(ROOT / "src"))
    import trialsize

    if Path(trialsize.__file__).resolve().parent != ROOT / "src" / "trialsize":
        sys.exit(f"perfbench: imported trialsize from {trialsize.__file__}, not from {ROOT / 'src'}")
    import workloads

    return workloads


def measure_setup(workload: str) -> float:
    """Median over fresh processes of the time from process start until the
    program is imported and the workload's fixtures are loaded, at the
    reference speed.  The kernel runs only before and after each probe: run
    alongside it, the two would compete for the machine."""
    import speed

    times = []
    for _ in range(SETUP_PROBES):
        before = speed.kernel_s()
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "run.py"), "--probe-setup", workload],
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            ready = time.perf_counter()
            child.stdout.read()
        if line.strip() != "ready" or child.returncode != 0:
            sys.exit(f"perfbench: set-up probe of {workload} failed (exit {child.returncode})")
        after = speed.kernel_s()
        times.append((ready - start) * (speed.REFERENCE_S / before + speed.REFERENCE_S / after) / 2.0)
    return statistics.median(times)


def run_passes(workload, seconds: float) -> list:
    """Whole passes, as many as fit in ``seconds`` at the mean pass time so
    far, and at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workload.run_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_s(p) -> float:
    """A pass's time in the program's calls, at the reference speed."""
    return sum(scaled for _, _, scaled in p.calls)


def end_to_end(passes: list, setup_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_s": statistics.median(pass_s(p) for p in passes),
    }


def details(workload, passes: list) -> list[str]:
    """The time of each kind of call (each table, simulate_power, dropout
    averaging) and of the whole pass, medians over the passes."""
    lines = []
    for kind in sorted({kind for p in passes for kind, _, _ in p.calls}) + ["pass"]:
        calls = [[c for c in p.calls if kind in (c[0], "pass")] for p in passes]
        wall = statistics.median(sum(c[1] for c in cs) for cs in calls)
        scaled = statistics.median(sum(c[2] for c in cs) for cs in calls)
        lines.append(f"{kind}_s {scaled!r} s at the reference speed, {wall!r} s wall "
                     f"(median of {len(passes)} passes)")
    if workload.replicates:
        sim = [c for p in passes for c in p.calls if c[0] == "simulate"]
        reps = workload.replicates * len(passes)
        lines.append(f"sim_reps_per_s {reps / sum(c[2] for c in sim)!r} replicates/s at the "
                     f"reference speed, {reps / sum(c[1] for c in sim)!r} wall")
    return lines


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    workloads = import_program()
    workload = workloads.WORKLOADS[name](seed, quick)
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload.load()
    if tracer:
        tracer.uninstall()
    setup_s = None if trace else measure_setup(name)

    passes = run_passes(workload, seconds)
    lines = details(workload, passes)
    if tracer:
        untraced = statistics.median(pass_s(p) for p in passes)
        tracer.install()
        traced = workload.run_pass()
        tracer.uninstall()
        passes.append(traced)
        failures = sum(o[1] for o in traced.outputs if isinstance(o, tuple))
        metrics = tracer.layer_metrics(workload.replicates, failures, pass_s(traced) / untraced)
        units = PER_LAYER_UNITS
        spans = HERE / "out" / f"trace-{name}.json"
        tracer.write(spans)
        lines += [f"absent from the program: {a}" for a in tracer.absent]
        lines.append(f"spans of the traced pass: {spans.relative_to(ROOT)}")
    else:
        metrics = end_to_end(passes, setup_s)
        units = {m["name"]: m["unit"] for m in END_TO_END}

    problems, notes = workload.check(passes)
    for line in lines + notes + [f"PROBLEM {p}" for p in problems]:
        print(line)
    for key, value in metrics.items():
        print(f"{key} {value!r} {units[key]}")
    return {
        "correct": not problems,
        "attempted": workload.operations() * len(passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one table or one row, for the self-test")
    parser.add_argument("--write-manifest", action="store_true")
    parser.add_argument("--probe-setup", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        import_program().WORKLOADS[args.probe_setup](args.seed, False).load()
        print("ready", flush=True)
        return 0
    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
        print(json.dumps(result))
        return 0
    status = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd + (["--quick"] if args.quick else []), stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="", flush=True)
        try:
            correct = json.loads(done.stdout.strip().splitlines()[-1])["correct"]
        except (IndexError, ValueError, KeyError):
            correct = False
        if done.returncode or not correct:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
