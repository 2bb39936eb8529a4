"""The benchmark tracer wraps ralm functions by name; a rename or deletion
must fail here, because tier-1 never runs a traced pass."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "ralmbench" / "tracing.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("ralmbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [(module, name) for module, names in tracing.TRACED.items() for name in names]


@pytest.mark.parametrize("module, name", traced_names())
def test_traced_name_resolves(module, name):
    assert callable(getattr(importlib.import_module(f"ralm.{module}"), name))
