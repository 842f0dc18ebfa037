"""The README's Python examples run as written."""

import re
from pathlib import Path

from polybilliard import cli, shapes
from polybilliard.exactgeom import EXACT_DEGREE_LIMIT

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```$", README, re.M | re.S)
    assert blocks
    for code in blocks:
        exec(compile(code, "README.md", "exec"), {})


def test_readme_lists_every_shape():
    line = README[README.index("`polybilliard.shapes` provides"):].split("\n\n")[0]
    named = set(re.findall(r"`(\w+)\(", line))
    assert named == set(shapes.__all__)


def test_readme_states_the_exact_degree_limit():
    section = README[README.index("### Exact and float frames"):].split("\n\n")[1]
    stated = {int(n) for n in re.findall(r"φ\(4N\) [≤>] (\d+)", section)}
    assert stated == {EXACT_DEGREE_LIMIT}
    assert "(heuristic float verdict)" in section


def test_readme_and_cli_docstring_list_the_same_exit_codes():
    table = README[README.index("Exit codes are a stable contract:"):].split("\n\n")[1]
    readme = [int(c) for c in re.findall(r"^\| (\d+) \|", table, re.M)]
    contract = cli.__doc__[cli.__doc__.index("contract scripts can rely on:"):].split("\n\n")[1]
    docstring = [int(c) for c in re.findall(r"^  (\d+)  ", contract, re.M)]
    assert readme == docstring == [0, 2, 3, 4, 5]
