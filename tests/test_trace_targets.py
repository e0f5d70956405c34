"""The benchmark's tracer wraps program functions by name.  A traced CI run
fails when one of its gated modules has lost a target, and a lost target that
a per-layer metric needs drops that metric from the run.  These checks read
the tracer's tables as they are and fail here first."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"
GATED = ("dsp", "audio_io", "nn", "svm", "sweep", "streaming")


@pytest.fixture(scope="module")
def trace():
    spec = importlib.util.spec_from_file_location("bench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(mod, attr):
    owner = importlib.import_module(f"emorec.{mod}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_gated_trace_targets_resolve(trace):
    targets = [(mod, attr) for mod, attr, *_ in
               trace._targets(trace._LayerIds(), trace._LayerIds())
               if mod in GATED]
    assert {mod for mod, _ in targets} == set(GATED)
    for mod, attr in targets:
        assert _resolves(mod, attr), f"{mod}.{attr}"


def test_every_metric_keeps_its_target(trace):
    for metric, target in trace._NEEDS.items():
        mod, attr = target.split(".", 1)
        assert _resolves(mod, attr), f"{metric} needs {target}"
