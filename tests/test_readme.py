"""README.md's Python examples run as written, its ``ralm`` command lines
parse, and every exported name resolves."""
import re
import shlex
from pathlib import Path

import pytest

import ralm
from ralm.cli import make_parser

README = Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
EXAMPLES = re.findall(r"^```python\n(.*?)^```", TEXT, re.S | re.M)
# the argument list of every `ralm ...` line in an sh block
COMMANDS = [
    shlex.split(line, comments=True)[1:]
    for block in re.findall(r"^```sh\n(.*?)^```", TEXT, re.S | re.M)
    for line in block.splitlines()
    if line.startswith("ralm ")
]


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {})


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("argv", COMMANDS, ids=[" ".join(argv) for argv in COMMANDS])
def test_readme_command_line_parses(argv):
    make_parser().parse_args(argv)


@pytest.mark.parametrize("name", ralm.__all__)
def test_exported_name_resolves(name):
    assert hasattr(ralm, name)
