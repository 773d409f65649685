"""Record the CLI golden file ``tests/golden/cli.txt``.

The file holds the CSV output of ``reproduce-table 1..6``, of
``size --format csv`` for every shipped fixture, and of ``power --format csv``
at every rounded total that ``size`` printed for that fixture.  Each block
starts with a ``$ `` line giving the command (fixtures by name) and its exit
status; ``tests/test_golden.py`` reruns every block and compares the bytes.

Run from the repository root against the checkout to be recorded:

    PYTHONPATH=src python tests/golden/make_golden.py > tests/golden/cli.txt
"""

from __future__ import annotations

import contextlib
import csv
import io
import sys
from importlib import resources

from trialsize import cli
from trialsize.tables import TABLE_NUMBERS, fixture_path


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
        totals = sorted({int(r["rounded_total"]) for r in csv.DictReader(io.StringIO(text))})
        for total in totals:
            command = f"power --design {name} --n {total} --format csv"
            yield (command, *run(command))


def main() -> int:
    for command, code, text in commands():
        sys.stdout.write(f"$ {command} [exit {code}]\n{text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
