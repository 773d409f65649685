"""Byte-for-byte CLI output against the recorded golden file.

``tests/golden/cli.txt`` holds ``reproduce-table 1..6``, ``size`` for every
fixture and ``power`` at every rounded total that ``size`` printed; see
``tests/golden/make_golden.py`` for how it is recorded.
"""

import importlib.util
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
    sized = {c.split()[2] for c in commands if c.startswith("size")}
    assert sized == set(make_golden.fixture_names())


@pytest.mark.parametrize("command,code,text", BLOCKS, ids=[c for c, _, _ in BLOCKS])
def test_cli_output_matches_golden(command, code, text):
    assert make_golden.run(command) == (code, text)
