"""The benchmark tracer (``perfbench/tracer.py``) wraps functions by name; a
renamed or deleted target would only zero its layer in a benchmark run, so
every target must resolve on the library as imported."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module,path", load_tracer().TARGETS,
                         ids=lambda v: v)
def test_target_resolves(module, path):
    owner = importlib.import_module(f"mflq.{module}")
    for part in path.split("."):
        owner = getattr(owner, part, None)
        assert owner is not None, f"mflq.{module}.{path} not found"
    assert callable(owner)
