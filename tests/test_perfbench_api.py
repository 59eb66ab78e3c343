"""The benchmark's per-layer tracer patches kekulec names by string; every
name it lists must still exist, or a traced benchmark run fails."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(tracer):
    for layer, names in tracer.FUNCTIONS.items():
        module = importlib.import_module(f"kekulec.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"kekulec.{layer}.{name}"


def test_traced_methods_resolve(tracer):
    for layer, cls_name, names in tracer.METHODS:
        cls = getattr(importlib.import_module(f"kekulec.{layer}"), cls_name)
        for name in names:
            # the tracer patches the attribute found in the class's own namespace
            assert name in cls.__dict__, f"kekulec.{layer}.{cls_name}.{name}"
