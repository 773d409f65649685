"""Byte-for-byte CLI output against the recorded golden file.

``tests/golden/cli.txt`` holds ``reproduce-table 1..6``, ``size`` for every
fixture, ``power`` at every rounded total that ``size`` printed and
``simulate`` at the total of the ``inversion`` row; see
``tests/golden/make_golden.py`` for how it is recorded.  The power record
``tests/golden/powers.json`` holds every fixture's power rows at full
precision, which the two printed decimals cannot pin.
"""

import importlib.util
import json
import re
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
_spec = importlib.util.spec_from_file_location("make_golden", GOLDEN / "make_golden.py")
make_golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_golden)


def golden_blocks() -> list[tuple[str, int, str]]:
    blocks = []
    for chunk in re.split(r"^\$ ", (GOLDEN / "cli.txt").read_text(), flags=re.M)[1:]:
        head, _, text = chunk.partition("\n")
        command, code = re.fullmatch(r"(.*) \[exit (\d+)\]", head).groups()
        blocks.append((command, int(code), text))
    return blocks


BLOCKS = golden_blocks()


def test_golden_covers_every_fixture_and_table():
    commands = [c for c, _, _ in BLOCKS]
    assert sum(c.startswith("reproduce-table") for c in commands) == 6
    names = make_golden.fixture_names()
    sized = {c.split()[2] for c in commands if c.startswith("size")}
    assert sized == set(names)
    simulated = sorted(c.split()[2] for c in commands if c.startswith("simulate"))
    assert simulated == names


@pytest.mark.parametrize("command,code,text", BLOCKS, ids=[c for c, _, _ in BLOCKS])
def test_cli_output_matches_golden(command, code, text):
    assert make_golden.run(command) == (code, text)


def test_power_record_matches_to_full_precision():
    recorded = json.loads((GOLDEN / "powers.json").read_text())
    current = make_golden.power_record()
    assert current.keys() == recorded.keys()
    for name, sizes in recorded.items():
        assert current[name].keys() == sizes.keys(), name
        for n, rows in sizes.items():
            now = current[name][n]
            if isinstance(rows, str):  # the exception the size raised
                assert now == rows, (name, n)
                continue
            assert isinstance(now, dict) and now.keys() == rows.keys(), (name, n, now)
            for row, value in rows.items():
                assert abs(now[row] - value) <= 1e-12, (name, n, row, now[row], value)
