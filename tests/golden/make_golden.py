"""Record the CLI golden file ``tests/golden/cli.txt``.

The file holds the CSV output of ``reproduce-table 1..6``, of
``size --format csv`` for every shipped fixture, of ``power --format csv``
at every rounded total that ``size`` printed for that fixture, and of
``simulate --reps 1000 --format csv`` at the rounded total of the fixture's
``inversion`` row (default seed), which pins the simulator's rejection and
failure counts, replicates with a dropped covariate column included.  Each
block starts with a ``$ `` line giving the command (fixtures by name) and its
exit status; ``tests/test_golden.py`` reruns every block and compares the
bytes.

With ``--powers`` it writes instead the power record
``tests/golden/powers.json``: every fixture's ``power_rows`` at the sizes
``POWER_SIZES``, at full precision, or the name of the exception class where
a size raises.  The CLI prints powers to two decimals; the record pins them
to the last bit that ``tests/test_golden.py`` tolerates.

Run from the repository root against the checkout to be recorded:

    PYTHONPATH=src python tests/golden/make_golden.py > tests/golden/cli.txt
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/make_golden.py --powers \
        > tests/golden/powers.json

The bytes of the power record depend on the machine (its CPU, BLAS and
library builds) in the last bits: a run elsewhere may differ from the
committed file by a few 1e-16, which ``tests/test_golden.py``'s tolerance of
1e-12 absorbs.  Two runs on one machine print the same bytes.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import sys
from importlib import resources

from trialsize import cli
from trialsize.config import load_design
from trialsize.tables import TABLE_NUMBERS, fixture_path

# total sizes of the power record: small, where the d.f. corrections matter,
# to large, where the powers saturate
POWER_SIZES = (12.5, 20.0, 33.3, 50.0, 81.0, 140.0, 260.0)


def fixture_names() -> list[str]:
    folder = resources.files("trialsize").joinpath("fixtures")
    return sorted(p.name[: -len(".json")] for p in folder.iterdir() if p.name.endswith(".json"))


def argv_of(command: str) -> list[str]:
    """CLI arguments of a golden command line, fixture names made paths."""
    words = command.split()
    return [str(fixture_path(w)) if prev == "--design" else w for prev, w in zip([""] + words, words)]


def run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv_of(command))
    return code, out.getvalue()


def commands():
    """Yield (command, exit status, stdout) for every golden block."""
    for number in TABLE_NUMBERS:
        command = f"reproduce-table {number} --format csv"
        yield (command, *run(command))
    for name in fixture_names():
        command = f"size --design {name} --format csv"
        code, text = run(command)
        yield command, code, text
        rows = list(csv.DictReader(io.StringIO(text)))
        for total in sorted({int(r["rounded_total"]) for r in rows}):
            command = f"power --design {name} --n {total} --format csv"
            yield (command, *run(command))
        (total,) = (r["rounded_total"] for r in rows if r["method"] == "inversion")
        command = f"simulate --design {name} --n {total} --reps 1000 --format csv"
        yield (command, *run(command))


def power_record() -> dict:
    """fixture -> size -> {row: power}, or the exception class name where the
    size raises."""
    record = {}
    for name in fixture_names():
        cfg = load_design(fixture_path(name))
        record[name] = {}
        for n in POWER_SIZES:
            try:
                record[name][repr(n)] = dict(cfg.power_rows(n, cfg.alpha))
            except Exception as exc:
                record[name][repr(n)] = type(exc).__name__
    return record


def main(argv: list[str] | None = None) -> int:
    if (sys.argv[1:] if argv is None else argv) == ["--powers"]:
        sys.stdout.write(json.dumps(power_record(), indent=1, allow_nan=False) + "\n")
        return 0
    for command, code, text in commands():
        sys.stdout.write(f"$ {command} [exit {code}]\n{text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
