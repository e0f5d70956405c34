"""The benchmark's tracer wraps program functions by name.  A traced CI run
fails when one of its gated modules has lost a target, and a lost target that
a per-layer metric needs drops that metric from the run.  These checks read
the tracer's tables as they are and fail here first."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from emorec import nn
from conftest import overfit_windows

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


def test_layer_names_read_the_argument_positions(trace, monkeypatch):
    # the tracer names each conv and dense span from a weight shape it reads
    # at a fixed position: conv's args[1] and cache[3], dense's args[1] and
    # cache[1]; a signature edit that moves one misnames or breaks the span
    names = {attr: name for mod, attr, name, _ in
             trace._targets(trace._LayerIds(), trace._LayerIds())
             if mod == "nn" and callable(name)}
    assert set(names) == {"conv2d_forward", "conv2d_backward",
                          "dense_forward", "dense_backward"}
    seen = []
    for attr, name in names.items():
        def spy(*args, _fn=getattr(nn, attr), _name=name, **kwargs):
            seen.append(_name(args, kwargs))
            return _fn(*args, **kwargs)
        monkeypatch.setattr(nn, attr, spy)
    x, labels = overfit_windows()
    nn.loss_and_grads(nn.build_emotion_cnn(seed=0), x, labels,
                      rng=np.random.default_rng(0))
    assert seen == ([f"nn.conv{i}.fwd" for i in (1, 2, 3, 4)]
                    + ["nn.dense1.fwd", "nn.dense2.fwd",
                       "nn.dense2.bwd", "nn.dense1.bwd"]
                    + [f"nn.conv{i}.bwd" for i in (4, 3, 2, 1)])
