"""The benchmark tracer's targets exist: a deleted or renamed function that
perfbench/tracer.py wraps fails here instead of only under `--trace 1`."""

import importlib
import importlib.util
import sys

import pytest

from golden_pipeline import REPO_ROOT


@pytest.fixture(scope="module")
def tracer():
    path = REPO_ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    writes_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ beside the benchmark
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes_bytecode
    return module


def test_every_target_resolves(tracer):
    assert tracer.TARGETS
    for module_name, attr, span, _ in tracer.TARGETS:
        target = importlib.import_module(f"supersub.{module_name}")
        for part in attr.split("."):
            assert hasattr(target, part), f"{span}: supersub.{module_name}.{attr} is gone"
            target = getattr(target, part)
        assert callable(target), f"{span}: supersub.{module_name}.{attr} is not callable"
