"""The Python block of README.md's "Library use" section runs, and every line
of it that ends in ``# <number>`` gives that number at its printed decimals."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
# a code line ending in a comment that is one number
CHECKED = re.compile(r"^[^#]+#\s*(-?\d+(?:\.\d+)?)\s*$")


def library_block() -> str:
    section = README.read_text().split("\n## Library use\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def printed_numbers(source: str) -> dict[int, str]:
    """Line number -> the number its comment prints, for every code line
    that ends in ``# <number>``."""
    matches = {i: CHECKED.match(line) for i, line in enumerate(source.splitlines(), 1)}
    return {i: match.group(1) for i, match in matches.items() if match}


def test_the_reader_picks_code_lines_ending_in_a_number():
    source = "x = 1  # 2\n# y 3.5\nf(x)  # -0.25\ng()  # 4, a float\n"
    assert printed_numbers(source) == {1: "2", 3: "-0.25"}


def test_library_use_block_gives_its_printed_numbers():
    source = library_block()
    printed = printed_numbers(source)
    assert len(printed) >= 5
    namespace, values = {}, {}
    for statement in ast.parse(source).body:
        if isinstance(statement, ast.Expr) and statement.end_lineno in printed:
            expression = compile(ast.Expression(statement.value), README.name, "eval")
            values[statement.end_lineno] = eval(expression, namespace)
        else:
            exec(compile(ast.Module([statement], []), README.name, "exec"), namespace)
    # every checked line ends an expression statement
    assert values.keys() == printed.keys()
    for line, number in printed.items():
        decimals = len(number.partition(".")[2])
        assert f"{values[line]:.{decimals}f}" == number, (line, values[line])
