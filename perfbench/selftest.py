"""Quick self-test of the benchmark: one table or one row of each workload.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is what run.py defines, that each workload prints a
correct result with every metric named there, that the traced run's counts
repeat exactly, and that the benchmark refuses to run without the program.
Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

HERE = run.HERE


def result(*args: str) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    problems = []
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if declared != run.manifest():
        problems.append("BENCHMARK.json differs from run.manifest(); rerun --write-manifest")
    names = {0: [m["name"] for m in declared["end_to_end"]], 1: [m["name"] for m in declared["per_layer"]]}
    for workload in run.WORKLOADS:
        counts = []
        for trace in (0, 1, 1):
            out = result("--workload", workload, "--seconds", "0.5", "--trace", str(trace), "--quick")
            label = f"{workload} --trace {trace}"
            if not out["correct"] or out["failed"] or out["attempted"] < 1:
                problems.append(f"{label}: {out['correct']=} {out['attempted']=} {out['failed']=}")
            if list(out["metrics"]) != names[trace]:
                problems.append(f"{label}: metrics {list(out['metrics'])}")
            if trace:
                counts.append({k: v for k, v in out["metrics"].items() if v["unit"] == "count"})
        if counts[0] != counts[1]:
            problems.append(f"{workload}: traced counts differ between two runs")
        print(f"{workload}: checked", flush=True)

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate-exact"],
                          cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"without the program: exit {done.returncode}, output {done.stdout!r}")
    shutil.rmtree(bare)

    for p in problems:
        print("PROBLEM", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
