"""The benchmark's tracer patches qdleak functions by name; every name it
lists must exist, or a traced run fails after a refactor."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TRACED
    for target in tracer.TRACED:
        module, attr = target.split(".")
        assert hasattr(importlib.import_module(f"qdleak.{module}"), attr), target
