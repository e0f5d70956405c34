"""Span recording from outside the program, and the per-layer metrics.

The traced run swaps module attributes of the program for timing wrappers.
That works because the program looks these names up at call time (for
example `dsp.stft` calls the module global `fft`, and the CLI calls
`features.extract_window`).  Names bound twice (`from .dsp import mfcc` in
`features`) are wrapped under both bindings.  A target that no longer exists
is skipped and reported, so its metric goes missing instead of the run
crashing.  Every original is restored on exit.

Spans (name, start, end, parent, attributes) stay in memory; the caller
writes them out at the end.  A span's self time is its duration minus the
part of it covered by its child spans.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import statistics
import time

# CNN layers are told apart by weight shape, numbered in the order the
# forward pass first meets them.
CONV_LAYERS = 4
DENSE_LAYERS = 2


class Recorder:
    """Nestable spans on one thread, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self.broken: set[str] = set()
        self._stack: list[int] = []

    def open(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "start": self.clock(), "end": None,
                           "parent": parent, "attrs": attrs})
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        if self._stack[-1] != idx:
            raise RuntimeError(f"span {self.spans[idx]['name']} closed out of order")
        self._stack.pop()
        self.spans[idx]["end"] = self.clock()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        idx = self.open(name, **attrs)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def mark(self) -> int:
        """Position to slice the spans of one round from."""
        return len(self.spans)

    def since(self, mark: int) -> list[dict]:
        """Closed spans recorded after `mark`, parents renumbered from 0."""
        out = []
        for s in self.spans[mark:]:
            p = s["parent"]
            out.append(dict(s, parent=None if p is None or p < mark else p - mark))
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s, default=str) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s["end"] - s["start"]) - covered)
    return out


# ---------------------------------------------------------------------------
# Wrapping the program
# ---------------------------------------------------------------------------

class _LayerIds:
    """Numbers weight shapes 1, 2, ... in the order they are first seen."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}

    def __call__(self, shape) -> int:
        return self.ids.setdefault(tuple(shape), len(self.ids) + 1)


def _fft_attrs(args, kwargs, result):
    n = result.shape[-1]
    frames = result.size // n if n else 0
    return {"n": n, "frames": frames}


def _svm_binary_attrs(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs["spec"]
    return {"kind": spec.kind, "passes": result.n_passes,
            "converged": bool(result.converged),
            "n_sv": int(len(result.dual_coef))}


def _targets(conv_ids, dense_ids):
    """(module, attribute, span name or name function, attrs function)."""

    def conv_fwd(args, kwargs):
        return f"nn.conv{conv_ids(args[1].shape)}.fwd"

    def conv_bwd(args, kwargs):
        return f"nn.conv{conv_ids(args[1][3].shape)}.bwd"

    def dense_fwd(args, kwargs):
        return f"nn.dense{dense_ids(args[1].shape)}.fwd"

    def dense_bwd(args, kwargs):
        return f"nn.dense{dense_ids(args[1][1].shape)}.bwd"

    def conv_flops(args, kwargs, result):
        out, _ = result
        w = args[1].shape
        return {"flops": 2.0 * out.size * w[0] * w[1] * w[2]}

    def conv_bwd_flops(args, kwargs, result):
        dout, cache = args[0], args[1]
        w = cache[3].shape
        # dW and d(cols) each cost one GEMM the size of the forward one
        return {"flops": 4.0 * dout.size * w[0] * w[1] * w[2]}

    return [
        ("audio_io", "decode_wav", "audio_io.decode",
         lambda a, k, r: {"bytes": len(a[0])}),
        ("dsp", "fft", "dsp.fft", _fft_attrs),
        ("dsp", "stft", "dsp.stft", None),
        ("dsp", "mfcc", "dsp.mfcc", None),
        ("features", "mfcc", "dsp.mfcc", None),
        ("dsp", "mel_filterbank", "dsp.filterbank", None),
        ("dsp", "dct2", "dsp.dct", None),
        ("features", "normalize_loudness", "features.prep", None),
        ("features", "truncate_to_length", "features.prep", None),
        ("features", "pad_to_length", "features.prep", None),
        ("features", "make_feature_window", "features.window", None),
        ("features", "extract_window", "features.extract", None),
        ("features", "save_feature_cache", "features.cache_write", None),
        ("features", "load_feature_cache", "features.cache_read", None),
        ("dataset", "stratified_split", "dataset.split", None),
        ("sweep", "stratified_split", "dataset.split", None),
        ("nn", "conv2d_forward", conv_fwd, conv_flops),
        ("nn", "conv2d_backward", conv_bwd, conv_bwd_flops),
        ("nn", "maxpool2d_forward", "nn.pool.fwd", None),
        ("nn", "maxpool2d_backward", "nn.pool.bwd", None),
        ("nn", "dense_forward", dense_fwd, None),
        ("nn", "dense_backward", dense_bwd, None),
        ("nn", "relu_forward", "nn.relu_dropout", None),
        ("nn", "relu_backward", "nn.relu_dropout", None),
        ("nn", "dropout_forward", "nn.relu_dropout", None),
        ("nn", "dropout_backward", "nn.relu_dropout", None),
        ("nn", "softmax_cross_entropy", "nn.loss", None),
        ("nn", "loss_and_grads", "nn.loss_and_grads", None),
        ("nn", "rmsprop_step", "nn.rmsprop", None),
        ("nn", "predict_proba", "nn.predict",
         lambda a, k, r: {"batch": len(r)}),
        ("svm", "train_multiclass",
         lambda a, k: f"svm.fit.{(a[2] if len(a) > 2 else k['spec']).kind}",
         None),
        ("svm", "train_binary", "svm.binary", _svm_binary_attrs),
        ("svm", "kernel_matrix", "svm.kernel_matrix", None),
        ("svm", "predict", "svm.predict", None),
        ("sweep", "run_svm_sweep", "sweep.run", None),
        ("sweep", "metrics_report", "metrics.report", None),
        ("metrics", "metrics_report", "metrics.report", None),
        ("streaming", "StreamingClassifier.push", "streaming.push", None),
    ]


def _wrap(fn, rec: Recorder, target: str, name, attrs_fn):
    """Time `fn` as a span; arguments that no longer look as expected leave
    the span under the function's own name and mark `target` as broken."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            span_name = name(args, kwargs) if callable(name) else name
        except Exception:  # the program changed; keep running, report it
            span_name = target
            rec.broken.add(target)
        idx = rec.open(span_name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if attrs_fn is not None:
            try:
                rec.spans[idx]["attrs"].update(attrs_fn(args, kwargs, result))
            except Exception:  # as above
                rec.spans[idx]["name"] = target
                rec.broken.add(target)
        return result
    return wrapper


@contextlib.contextmanager
def traced(modules: dict, rec: Recorder):
    """Install the wrappers on `modules` (short name -> module) for the block.

    Yields the list of targets that could not be found; targets whose
    arguments no longer fit are collected in `rec.broken` as they are met.
    """
    installed = []
    missing = []
    try:
        for mod_name, attr, name, attrs_fn in _targets(_LayerIds(), _LayerIds()):
            owner = modules.get(mod_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if owner is None or not callable(original):
                missing.append(f"{mod_name}.{attr}")
                continue
            target = f"{mod_name}.{attr}"
            setattr(owner, leaf, _wrap(original, rec, target, name, attrs_fn))
            installed.append((owner, leaf, original))
        yield missing
    finally:
        for owner, leaf, original in reversed(installed):
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one round
# ---------------------------------------------------------------------------

# name -> unit, in the order they are reported
LAYER_UNITS = {
    "audio_io.decode_ms": "ms",
    "audio_io.decodes_per_clip": "count",
    "audio_io.mb_per_s": "MB/s",
    "dsp.stft_self_ms": "ms",
    "dsp.fft_ms": "ms",
    "dsp.fft_frames": "count",
    "dsp.fft_mflop": "MFLOP",
    "dsp.mel_log_self_ms": "ms",
    "dsp.filterbank_ms": "ms",
    "dsp.dct_ms": "ms",
    "features.prep_ms": "ms",
    "features.window_self_ms": "ms",
    "features.extract_calls": "count",
    "features.cache_write_ms": "ms",
    "features.cache_read_ms": "ms",
    **{f"nn.conv{i}.{d}_ms": "ms" for i in range(1, CONV_LAYERS + 1)
       for d in ("fwd", "bwd")},
    "nn.pool.fwd_ms": "ms",
    "nn.pool.bwd_ms": "ms",
    **{f"nn.dense{i}.{d}_ms": "ms" for i in range(1, DENSE_LAYERS + 1)
       for d in ("fwd", "bwd")},
    "nn.relu_dropout_ms": "ms",
    "nn.loss_ms": "ms",
    "nn.rmsprop_ms": "ms",
    "nn.step_ms_p50": "ms",
    "nn.conv_gflop_per_s": "GFLOP/s",
    "nn.predict_ms_per_window.batch256": "ms",
    "nn.predict_ms_per_window.batch1": "ms",
    "svm.fit_s.linear": "s",
    "svm.fit_s.rbf": "s",
    "svm.passes.linear": "count",
    "svm.passes.rbf": "count",
    "svm.ms_per_pass.linear": "ms",
    "svm.ms_per_pass.rbf": "ms",
    "svm.unconverged": "count",
    "svm.support_vectors": "count",
    "svm.kernel_matrix_ms": "ms",
    "svm.predict_ms": "ms",
    "dataset.split_ms": "ms",
    "sweep.self_ms": "ms",
    "sweep.extract_share": "ratio",
    "metrics.report_ms": "ms",
    "streaming.push_self_ms": "ms",
    "streaming.feature_ms_p50": "ms",
    "streaming.model_ms_p50": "ms",
}

# which wrapped target each metric needs; a missing target drops these
_NEEDS = {
    "audio_io.": "audio_io.decode_wav",
    "dsp.fft": "dsp.fft",
    "dsp.stft": "dsp.stft",
    "dsp.mel_log": "dsp.mfcc",
    "dsp.filterbank": "dsp.mel_filterbank",
    "dsp.dct": "dsp.dct2",
    "features.prep": "features.normalize_loudness",
    "features.window": "features.extract_window",
    "features.extract": "features.extract_window",
    "features.cache_write": "features.save_feature_cache",
    "features.cache_read": "features.load_feature_cache",
    "nn.conv": "nn.conv2d_forward",
    "nn.pool": "nn.maxpool2d_forward",
    "nn.dense": "nn.dense_forward",
    "nn.relu_dropout": "nn.relu_forward",
    "nn.loss": "nn.softmax_cross_entropy",
    "nn.rmsprop": "nn.rmsprop_step",
    "nn.step": "nn.loss_and_grads",
    "nn.predict": "nn.predict_proba",
    "svm.fit": "svm.train_multiclass",
    "svm.passes": "svm.train_binary",
    "svm.ms_per_pass": "svm.train_binary",
    "svm.unconverged": "svm.train_binary",
    "svm.support": "svm.train_binary",
    "svm.kernel": "svm.kernel_matrix",
    "svm.predict": "svm.predict",
    "dataset.": "dataset.stratified_split",
    "sweep.": "sweep.run_svm_sweep",
    "metrics.": "metrics.metrics_report",
    "streaming.": "streaming.StreamingClassifier.push",
}


def available(missing) -> list[str]:
    """Metric names whose wrapped targets were all found and fit."""
    gone = set(missing)
    return [name for name in LAYER_UNITS
            if not any(name.startswith(prefix) and target in gone
                       for prefix, target in _NEEDS.items())]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(spans: list[dict], clips: int) -> dict[str, float]:
    """Per-layer values of one round from its spans.

    Times are totals over the round in ms (svm fits in s); `clips` is the
    number of input clips the round reads, the base of decodes_per_clip.
    """
    selfs = self_times(spans)
    dur = [(s["end"] - s["start"]) * 1e3 for s in spans]
    total: dict[str, float] = {}
    self_total: dict[str, float] = {}
    count: dict[str, int] = {}
    for s, d, st in zip(spans, dur, selfs):
        total[s["name"]] = total.get(s["name"], 0.0) + d
        self_total[s["name"]] = self_total.get(s["name"], 0.0) + st * 1e3
        count[s["name"]] = count.get(s["name"], 0) + 1

    def inside(i: int, name: str) -> bool:
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    def where(name):
        return [i for i, s in enumerate(spans) if s["name"] == name]

    m: dict[str, float] = {}
    decodes = where("audio_io.decode")
    decode_bytes = sum(spans[i]["attrs"]["bytes"] for i in decodes)
    m["audio_io.decode_ms"] = total.get("audio_io.decode", 0.0)
    m["audio_io.decodes_per_clip"] = len(decodes) / clips if clips else 0.0
    m["audio_io.mb_per_s"] = (decode_bytes / 1e6 / (m["audio_io.decode_ms"] / 1e3)
                              if decodes else 0.0)

    ffts = [spans[i]["attrs"] for i in where("dsp.fft")]
    m["dsp.stft_self_ms"] = self_total.get("dsp.stft", 0.0)
    m["dsp.fft_ms"] = total.get("dsp.fft", 0.0)
    m["dsp.fft_frames"] = float(sum(a["frames"] for a in ffts))
    m["dsp.fft_mflop"] = sum(5.0 * a["n"] * math.log2(a["n"]) * a["frames"]
                             for a in ffts if a["n"] > 1) / 1e6
    m["dsp.mel_log_self_ms"] = self_total.get("dsp.mfcc", 0.0)
    m["dsp.filterbank_ms"] = total.get("dsp.filterbank", 0.0)
    m["dsp.dct_ms"] = total.get("dsp.dct", 0.0)

    m["features.prep_ms"] = total.get("features.prep", 0.0)
    m["features.window_self_ms"] = (self_total.get("features.extract", 0.0)
                                    + self_total.get("features.window", 0.0))
    m["features.extract_calls"] = float(count.get("features.extract", 0))
    m["features.cache_write_ms"] = total.get("features.cache_write", 0.0)
    m["features.cache_read_ms"] = total.get("features.cache_read", 0.0)

    conv_ms = 0.0
    for i in range(1, CONV_LAYERS + 1):
        for d in ("fwd", "bwd"):
            m[f"nn.conv{i}.{d}_ms"] = total.get(f"nn.conv{i}.{d}", 0.0)
            conv_ms += m[f"nn.conv{i}.{d}_ms"]
    conv_flops = sum(s["attrs"].get("flops", 0.0) for s in spans
                     if s["name"].startswith("nn.conv"))
    m["nn.pool.fwd_ms"] = total.get("nn.pool.fwd", 0.0)
    m["nn.pool.bwd_ms"] = total.get("nn.pool.bwd", 0.0)
    for i in range(1, DENSE_LAYERS + 1):
        for d in ("fwd", "bwd"):
            m[f"nn.dense{i}.{d}_ms"] = total.get(f"nn.dense{i}.{d}", 0.0)
    m["nn.relu_dropout_ms"] = total.get("nn.relu_dropout", 0.0)
    m["nn.loss_ms"] = total.get("nn.loss", 0.0)
    m["nn.rmsprop_ms"] = total.get("nn.rmsprop", 0.0)
    # a step runs from loss_and_grads to the end of the rmsprop update after it
    steps, pending = [], None
    for s in spans:
        if s["name"] == "nn.loss_and_grads":
            pending = s["start"]
        elif s["name"] == "nn.rmsprop" and pending is not None:
            steps.append((s["end"] - pending) * 1e3)
            pending = None
    m["nn.step_ms_p50"] = _median(steps)
    m["nn.conv_gflop_per_s"] = conv_flops / 1e9 / (conv_ms / 1e3) if conv_ms else 0.0
    for label, single in (("batch256", False), ("batch1", True)):
        picked = [i for i in where("nn.predict")
                  if (spans[i]["attrs"]["batch"] == 1) == single]
        windows = sum(spans[i]["attrs"]["batch"] for i in picked)
        m[f"nn.predict_ms_per_window.{label}"] = (
            sum(dur[i] for i in picked) / windows if windows else 0.0)

    binaries = [spans[i]["attrs"] | {"ms": dur[i]} for i in where("svm.binary")]
    for kind in ("linear", "rbf"):
        mine = [b for b in binaries if b["kind"] == kind]
        passes = sum(b["passes"] for b in mine)
        m[f"svm.fit_s.{kind}"] = total.get(f"svm.fit.{kind}", 0.0) / 1e3
        m[f"svm.passes.{kind}"] = float(passes)
        m[f"svm.ms_per_pass.{kind}"] = (sum(b["ms"] for b in mine) / passes
                                        if passes else 0.0)
    m["svm.unconverged"] = float(sum(not b["converged"] for b in binaries))
    m["svm.support_vectors"] = float(sum(b["n_sv"] for b in binaries))
    m["svm.kernel_matrix_ms"] = total.get("svm.kernel_matrix", 0.0)
    m["svm.predict_ms"] = total.get("svm.predict", 0.0)

    m["dataset.split_ms"] = total.get("dataset.split", 0.0)
    sweep_ms = total.get("sweep.run", 0.0)
    m["sweep.self_ms"] = self_total.get("sweep.run", 0.0)
    m["sweep.extract_share"] = (sum(dur[i] for i in where("features.extract")
                                    if inside(i, "sweep.run")) / sweep_ms
                                if sweep_ms else 0.0)
    m["metrics.report_ms"] = total.get("metrics.report", 0.0)

    m["streaming.push_self_ms"] = self_total.get("streaming.push", 0.0)
    m["streaming.feature_ms_p50"] = _median(
        [dur[i] for i in where("features.extract") if inside(i, "streaming.push")])
    m["streaming.model_ms_p50"] = _median(
        [dur[i] for i in where("nn.predict") if inside(i, "streaming.push")])
    return m
