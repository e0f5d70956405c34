"""Command-line entry point.

Subcommands: extract, validate-dataset, split, train-svm, train-cnn, eval,
sweep-svm, augment, stream, gradient-check, audit-params.

The paper's protocol fixes what has no option: full-band 26-mel MFCC windows
(more bands when more coefficients are asked), a 60/20/20 stratified split,
SVMs at C = 10 with gamma "scale" and tol 1e-3, a 512-unit CNN of 3x3 ReLU
convolutions trained with RMSProp (lr 1e-4, decay 1e-6), time-reversal
augmentation, and streaming through 4096-sample chunks, whose events and
wall-clock latencies go to separate CSVs.  The options left are the inputs, the outputs
and the protocol's own variables (coefficients, frame length, kernel, epochs,
batch size, sweep grid, stream window and hop).

Flags are the one way to set an option.  Every subcommand takes ``--seed``
and ``--out-dir`` (run directory; a run that returns lists each file it made
in ``artifacts.csv``).  Required: ``--manifest`` (extract, split, sweep-svm,
augment, train-svm, train-cnn, eval), ``--features`` (train-svm, train-cnn,
eval), ``--model`` (eval, stream), ``--wav`` (stream) and ``--data-root``
(validate-dataset).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

import numpy as np

from . import audio_io, dataset, features, nn, reference, streaming, svm, sweep
from .errors import ConfigError, DataError, EmorecError, NumericalError


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; this CLI reserves 2
    # for data errors
    def error(self, message):
        raise UsageError(message)


class RunDir:
    """Run directory that records every artifact it hands out."""

    def __init__(self, path):
        self.path = path
        self.produced = []
        os.makedirs(path, exist_ok=True)

    def file(self, name) -> str:
        full = os.path.join(self.path, name)
        self.produced.append(name)
        return full

    def write_text(self, name, text) -> str:
        full = self.file(name)
        with open(full, "w") as fh:
            fh.write(text)
        return full

    def finalize(self):
        with open(os.path.join(self.path, "artifacts.csv"), "w") as fh:
            fh.write(dataset.csv_text(["file"], ([name] for name in self.produced)))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_extract(opts, run: RunDir) -> int:
    records = dataset.read_manifest(opts.manifest)
    if not records:
        raise DataError("empty manifest")

    longest = audio_io.max_length(records)
    cfg = features.PipelineConfig(n_mfcc=opts.n_mfcc, target_length=longest,
                                  frame_length=opts.frame_length)

    cache_records = []
    for r, clip in zip(records, audio_io.read_clips(records, longest)):
        window = features.extract_window(clip, cfg)
        cache_records.append((r.id, int(r.label), window.matrix))
    out = opts.out or run.file("features.bin")
    features.save_feature_cache(out, cache_records, {
        "pipeline": cfg.to_dict(), "sample_rate": clip.sample_rate})
    print(f"extracted {len(cache_records)} windows "
          f"({cfg.n_mfcc}x{features.N_FRAMES}, target_length={cfg.target_length}) -> {out}")
    return 0


def cmd_validate_dataset(opts, run: RunDir) -> int:
    records = dataset.scan_corpus(opts.data_root, opts.corpus)
    report = dataset.validate_manifest(records, opts.corpus)
    print(report.to_text(), end="")
    run.write_text("class_counts.csv", report.to_csv())
    return 0 if report.passed else 2


def cmd_split(opts, run: RunDir) -> int:
    records = dataset.read_manifest(opts.manifest)
    split = dataset.stratified_split(records, seed=opts.seed)
    dataset.apply_split(records, split)
    out = opts.out or run.file("manifest_split.csv")
    dataset.write_manifest(out, records)
    counts = {name: 0 for name in dataset.SPLIT_NAMES}
    for r in records:
        counts[r.split] += 1
    print(f"split seed={opts.seed}: " +
          " ".join(f"{k}={v}" for k, v in counts.items()) + f" -> {out}")
    return 0


def _load_splits(cache_path, manifest_path, *names, optional=()):
    """Per split name, its (windows, labels): windows stacked (N, n_mfcc, 26),
    from one read of the feature cache and the manifest.  A split without
    records is a DataError, or None when it is named in optional; an id
    missing from the cache is a DataError."""
    cache = {rid: (label, matrix)
             for rid, label, matrix in features.load_feature_cache(cache_path)}
    records = dataset.read_manifest(manifest_path)
    splits = []
    for name in names:
        wanted = [r for r in records if r.split == name]
        if not wanted and name in optional:
            splits.append(None)
            continue
        if not wanted:
            raise DataError(f"no records in split {name!r}; run `split` first")
        missing = [r.id for r in wanted if r.id not in cache]
        if missing:
            raise DataError(f"{len(missing)} ids missing from cache, e.g. {missing[:3]}")
        rows = [cache[r.id] for r in wanted]
        splits.append((np.stack([matrix for _, matrix in rows]),
                       np.array([label for label, _ in rows], dtype=np.int64)))
    return splits


def cmd_train_svm(opts, run: RunDir) -> int:
    [(windows, labels)] = _load_splits(opts.features, opts.manifest, "train")
    X = windows.reshape(len(windows), -1)
    model = svm.train_multiclass(X, labels, svm.KernelSpec(kind=opts.kernel))
    model.pipeline_config = features.cache_pipeline(opts.features)
    out = opts.out or run.file("svm_model.bin")
    svm.save_svm(out, model)
    summary = model.summary()
    print(summary, end="")
    run.write_text("svm_summary.txt", summary)
    train_acc = float((svm.predict(model, X) == labels).mean())
    print(f"train accuracy: {train_acc:.4f}\nmodel -> {out}")
    return 0


def cmd_train_cnn(opts, run: RunDir) -> int:
    (windows, labels), val = _load_splits(opts.features, opts.manifest,
                                          "train", "val", optional=("val",))
    x_val = val_labels = None
    if val is not None:   # a manifest without val records trains unvalidated
        x_val, val_labels = val[0][..., None], val[1]
    x = windows[..., None]
    model = nn.build_emotion_cnn(n_mfcc=x.shape[1], n_frames=x.shape[2],
                                 seed=opts.seed)
    model.pipeline_config = features.cache_pipeline(opts.features)
    cfg = nn.TrainConfig(batch_size=opts.batch_size, epochs=opts.epochs,
                         seed=opts.seed)
    history = nn.train(model, x, labels, cfg, x_val=x_val,
                       labels_val=val_labels, verbose=True)
    run.write_text("history.csv", nn.history_to_csv(history))
    out = opts.out or run.file("cnn_model.bin")
    nn.save_cnn(out, model)
    print(f"model -> {out}")
    return 0


# container magic -> (loader, key of the model's accuracy in the reference table)
_MODEL_FORMATS = {
    svm.SVM_MAGIC: (svm.load_svm, "svm_best_accuracy"),
    nn.CNN_MAGIC: (nn.load_cnn, "cnn_top1"),
}


def _sniff_model(path):
    """(model, reference-table key) for a model container of either type."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic not in _MODEL_FORMATS:
        raise DataError(f"{path}: not a recognized model container")
    loader, reference_key = _MODEL_FORMATS[magic]
    return loader(path), reference_key


def cmd_eval(opts, run: RunDir) -> int:
    model, reference_key = _sniff_model(opts.model)
    [(windows, labels)] = _load_splits(opts.features, opts.manifest, opts.split)
    trained, made = model.pipeline_config, features.cache_pipeline(opts.features)
    if None not in (trained, made) and trained != made:
        raise DataError(f"the model was trained on windows made with {trained}; "
                        f"the cache's were made with {made}")
    report = sweep.evaluate_model(model, windows, labels,
                                  with_roc=opts.roc)
    print(report.to_text(), end="")
    run.write_text("confusion.csv", report.confusion_csv())
    run.write_text("per_class.csv", report.per_class_csv())
    if opts.roc and report.roc_auc is not None:
        lines = ["class,roc_auc"]
        for name, auc in zip(report.class_names, report.roc_auc):
            lines.append(f"{name},{'' if np.isnan(auc) else repr(float(auc))}")
        run.write_text("roc_auc.csv", "\n".join(lines) + "\n")
    if opts.compare_reference:
        print(reference.comparison_table(reference.measured(reference_key, report)),
              end="")
    return 0


def cmd_sweep_svm(opts, run: RunDir) -> int:
    try:   # a step below 1 fails as range's zero step does
        lo, hi, step = (int(x) for x in opts.range.split(":"))
        points = set(range(lo, hi + 1, max(step, 0)))
    except ValueError:
        raise ConfigError(f"--range must be lo:hi:step, step >= 1; got {opts.range!r}")
    try:
        points |= {int(x) for x in opts.extra_points.split(",") if x}
    except ValueError:
        raise ConfigError(f"--extra-points must be integers separated by commas; "
                          f"got {opts.extra_points!r}")
    points = tuple(sorted(points))
    if not points or points[0] < 1 or opts.runs < 1:
        raise ConfigError(f"--range/--extra-points give n_mfcc {list(points)} and --runs "
                          f"{opts.runs}; need points, all >= 1, and runs >= 1")
    kernels = tuple(opts.kernels.split(","))
    if not set(kernels) <= {"rbf", "linear"} or len(set(kernels)) < len(kernels):
        raise ConfigError(f"--kernels must list rbf and/or linear, each once; "
                          f"got {opts.kernels!r}")
    records = dataset.read_manifest(opts.manifest)
    base = [r for r in records if r.augmented_from is None]
    if not base:
        raise DataError("empty manifest: no base records")
    labels = [int(r.label) for r in base]

    longest = audio_io.max_length(base)
    base_cfg = features.PipelineConfig(n_mfcc=min(points), target_length=longest)
    result = sweep.run_svm_sweep(audio_io.read_clips(base, longest), labels,
                                 base_cfg, kernels=kernels, points=points,
                                 runs=opts.runs, base_seed=opts.seed,
                                 records=base)
    run.write_text("sweep_raw.csv", result.raw_csv())
    run.write_text("sweep_mean.csv", result.mean_csv())
    best = max(result.mean().items(), key=lambda kv: kv[1])
    print(f"{len(result.rows)} runs over {len(points)} points x {len(kernels)} kernels")
    print(f"best mean accuracy: {best[1]:.4f} at kernel={best[0][0]} n_mfcc={best[0][1]}")
    return 0


def cmd_augment(opts, run: RunDir) -> int:
    records = dataset.read_manifest(opts.manifest)
    wav_dir = os.path.join(run.path, "wavs")
    os.makedirs(wav_dir, exist_ok=True)
    out_records = list(records)
    base = [r for r in records if r.augmented_from is None]
    for r, clip in zip(base, audio_io.read_clips(base)):
        new_id = f"{r.id}_rev"
        data, _clipped = audio_io.encode_wav(features.augment_reverse(clip))
        path = os.path.join(wav_dir, new_id + ".wav")
        with open(path, "wb") as fh:
            fh.write(data)
        run.produced.append(os.path.join("wavs", new_id + ".wav"))
        out_records.append(dataset.SampleRecord(
            id=new_id, path=path, label=r.label, corpus=r.corpus,
            actor=r.actor, augmented_from=r.id, augmentation="reverse"))
    out = opts.out or run.file("manifest_augmented.csv")
    dataset.write_manifest(out, out_records)
    print(f"wrote {len(base)} augmented clips; manifest -> {out}")
    return 0


def cmd_stream(opts, run: RunDir) -> int:
    model, _ = _sniff_model(opts.model)
    meta = model.pipeline_config
    if meta is None:
        raise DataError("model carries no pipeline config; train it on an `extract` cache")
    pipeline_cfg = features.PipelineConfig.from_dict(meta["pipeline"])
    clip = audio_io.decode_wav(audio_io.read_file(opts.wav))
    if meta["sample_rate"] != clip.sample_rate:
        raise DataError(f"stream sample rate {clip.sample_rate} Hz does not "
                        f"match the training rate {meta['sample_rate']} Hz")
    # a finite window too long for the WAV is named against its duration
    # before StreamConfig's own limit can refuse it
    if math.isfinite(opts.window) and round(opts.window * clip.sample_rate) > len(clip):
        raise ConfigError(f"--window {opts.window:g} s is longer than the "
                          f"{len(clip) / clip.sample_rate:g} s of {opts.wav}")
    stream_cfg = streaming.StreamConfig(window_seconds=opts.window,
                                        hop_seconds=opts.hop)
    events, summary = streaming.stream_infer(clip, model, pipeline_cfg,
                                             stream_cfg)
    run.write_text("stream_events.csv", streaming.events_csv(events))
    run.write_text("stream_latency.csv", streaming.latency_csv(events))
    names = [l.name for l in dataset.EmotionLabel]
    for e in events:
        print(e.text_line(names))
    print(summary.to_text(), end="")
    return 0


GRADIENT_TOLERANCE = 1e-4   # max relative error of backprop


def cmd_gradient_check(opts, run: RunDir) -> int:
    # a narrow copy of the reference CNN (8 filters, 16 dense units) over a
    # batch of 2 keeps the finite differences to a few seconds
    model = nn.build_emotion_cnn(conv_filters=(8, 8, 8, 8), dense_units=16,
                                 seed=opts.seed)
    rng = np.random.default_rng(opts.seed)
    x = rng.normal(size=(2,) + model.input_shape)
    labels = rng.integers(0, model.n_classes, size=2)
    worst, per_tensor = nn.gradient_check(model, x, labels, seed=opts.seed)
    for name, err in sorted(per_tensor.items()):
        print(f"{name:<16} rel err {err:.3e}")
    print(f"max relative error: {worst:.3e}")
    if worst > GRADIENT_TOLERANCE:
        raise NumericalError(
            f"gradient check failed: {worst:.3e} > {GRADIENT_TOLERANCE}")
    return 0


def cmd_audit_params(opts, run: RunDir) -> int:
    print(nn.audit_params(nn.build_emotion_cnn()), end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argparse tree, built once per process; parse_args keeps no state.

    Each subcommand's options are one table of name=default, and the default
    fixes the flag: a bool is a switch, a tuple lists the choices (the first
    is the default), a type means that type and no default, and any other
    value gives the flag its type.  The names in `required` are text flags
    the subcommand cannot run without.
    """
    parser = _Parser(prog="emorec",
                     description="speech emotion recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, required=(), **table):
        p = sub.add_parser(name)
        for key, default in dict(dict.fromkeys(required, str), seed=0,
                                 out_dir=str, **table).items():
            choices = None
            if isinstance(default, tuple):
                choices, default = default, default[0]
            kind, default = ((default, None) if isinstance(default, type)
                             else (type(default), default))
            kw = ({"action": "store_true"} if kind is bool
                  else {"type": kind, "choices": choices})
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           default=default, required=key in required, **kw)
        p.set_defaults(fn=fn)

    add("extract", cmd_extract, required=("manifest",), out=str, n_mfcc=13,
        frame_length=2048)
    add("validate-dataset", cmd_validate_dataset, required=("data_root",),
        corpus=("ravdess", "tess"))
    add("split", cmd_split, required=("manifest",), out=str)
    add("train-svm", cmd_train_svm, required=("features", "manifest"),
        kernel=("rbf", "linear"), out=str)
    add("train-cnn", cmd_train_cnn, required=("features", "manifest"),
        epochs=10, batch_size=32, out=str)
    add("eval", cmd_eval, required=("model", "features", "manifest"),
        split=("test", "train", "val"), roc=False, compare_reference=False)
    add("sweep-svm", cmd_sweep_svm, required=("manifest",), range="10:120:10",
        extra_points="13,100", runs=10, kernels="rbf,linear")
    add("augment", cmd_augment, required=("manifest",), out=str)
    add("stream", cmd_stream, required=("model", "wav"), window=3.0, hop=0.5)
    add("gradient-check", cmd_gradient_check)
    add("audit-params", cmd_audit_params)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        run = RunDir(args.out_dir or os.path.join("runs", args.command))
        code = args.fn(args, run)
        # not in finally: a run that raised must not look like an empty success
        run.finalize()
        return code
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (EmorecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
