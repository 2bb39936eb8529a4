"""README.md's Python examples run as written, and every exported name resolves."""
import re
from pathlib import Path

import pytest

import ralm

README = Path(__file__).resolve().parents[1] / "README.md"
EXAMPLES = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_has_python_examples():
    assert EXAMPLES


@pytest.mark.parametrize("code", EXAMPLES, ids=[f"example{i}" for i in range(len(EXAMPLES))])
def test_readme_example_runs(code):
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize("name", ralm.__all__)
def test_exported_name_resolves(name):
    assert hasattr(ralm, name)
