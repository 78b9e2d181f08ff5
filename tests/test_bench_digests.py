"""Every benchmark workload's output, one round at seed 0, must hash to its
reference digest: a change that means to keep the output bytes fails here
when it does not."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
REFERENCE = json.loads((BENCH / "reference_digests.json").read_text())


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name while they are built.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_0_output_matches_the_reference_digest(workload):
    ops = workloads.MAKE_OPS[workload](0)
    raws = [op.call() for op in ops]
    assert workloads.output_digest(workload, ops, raws) == REFERENCE[workload]["0"]
