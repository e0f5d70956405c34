"""Command-line entry point.

Subcommands: extract, validate-dataset, split, train-svm, train-cnn, eval,
sweep-svm, augment, stream, gradient-check, audit-params.

Every subcommand accepts ``--config FILE`` (a flat JSON key/value document
with a "version" key), ``--seed``, and ``--out-dir`` (run directory; every
produced file is listed in its ``artifacts.csv``).  Config keys are the flag
names in snake_case, ``seed`` and ``out_dir`` included; ``main`` resolves each
option once, explicit flag > config file > default.  A config value must have
its flag's type (any JSON number for a float; a string or a number, read as
its text, for a text option) and choices, or is a ConfigError.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import audio_io, dataset, features, nn, reference, streaming, svm, sweep
from .errors import ConfigError, DataError, EmorecError, NumericalError

CONFIG_VERSION = 1


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


# JSON types a config value may take, by its flag's type; a number given for
# a text option (``"gamma": 0.5``, ``"extra_points": 20``) is read as its text
_JSON_TYPES = {bool: (bool,), int: (int,), float: (int, float),
               str: (str, int, float)}


def _resolve(args) -> argparse.Namespace:
    """The options of args' subcommand: explicit flag > config file > default."""
    file_cfg = {}
    if args.config:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        version = file_cfg.pop("version", CONFIG_VERSION)
        if version != CONFIG_VERSION:
            raise ConfigError(f"config version {version}, expected {CONFIG_VERSION}")
    unknown = set(file_cfg) - set(args.options)
    if unknown:
        raise ConfigError(f"config keys not understood: {sorted(unknown)}")
    opts = {}
    for key, (default, kind, choices) in args.options.items():
        value = getattr(args, key)
        if value is None and key in file_cfg:   # checked as the flag's value
            value = file_cfg[key]
            if (type(value) not in _JSON_TYPES[kind]
                    or choices and value not in choices):
                raise ConfigError(f"config key {key!r}: got {value!r}, expected "
                                  f"{list(choices) if choices else kind.__name__}")
            value = kind(value)
        opts[key] = default if value is None else value
    return argparse.Namespace(**opts)


def _read_required_manifest(path):
    if not path:
        raise UsageError("--manifest is required")
    return dataset.read_manifest(path)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_extract(opts, run: RunDir) -> int:
    records = _read_required_manifest(opts.manifest)
    if not records:
        raise DataError("empty manifest")

    longest = audio_io.max_length(records)
    target = opts.target_length or longest
    cfg = features.PipelineConfig(
        n_mfcc=opts.n_mfcc, target_length=target,
        frame_length=opts.frame_length,
        n_mels=max(opts.n_mels, opts.n_mfcc),
        f_min=opts.f_min, f_max=opts.f_max)

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
    if opts.manifest:
        records = dataset.read_manifest(opts.manifest)
    elif opts.data_root:
        records = dataset.scan_corpus(opts.data_root, opts.corpus)
    else:
        raise UsageError("need --manifest or --data-root")
    report = dataset.validate_manifest(records, opts.corpus)
    print(report.to_text(), end="")
    run.write_text("class_counts.csv", report.to_csv())
    return 0 if report.passed else 2


def cmd_split(opts, run: RunDir) -> int:
    try:
        ratios = tuple(float(x) for x in opts.ratios.split(","))
    except ValueError:
        ratios = ()
    if len(ratios) != 3 or not all(0.0 <= r < math.inf for r in ratios):
        raise ConfigError(f"--ratios must be three numbers >= 0; got {opts.ratios!r}")
    records = _read_required_manifest(opts.manifest)
    split = dataset.stratified_split(records, ratios=ratios, seed=opts.seed,
                                     actor_disjoint=opts.actor_disjoint)
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
    if not cache_path:
        raise UsageError("--features is required")
    cache = {rid: (label, matrix)
             for rid, label, matrix in features.load_feature_cache(cache_path)}
    records = _read_required_manifest(manifest_path)
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
    try:
        gamma = None if opts.gamma == "scale" else float(opts.gamma)
    except ValueError:
        gamma = math.nan
    if gamma is not None and not 0.0 < gamma < math.inf:
        raise ConfigError(f"--gamma must be 'scale' or a positive number; got {opts.gamma!r}")
    spec = svm.KernelSpec(kind=opts.kernel, C=opts.C, gamma_value=gamma,
                          gamma_mode="scale" if gamma is None else "fixed")
    [(windows, labels)] = _load_splits(opts.features, opts.manifest, "train")
    X = windows.reshape(len(windows), -1)
    model = svm.train_multiclass(X, labels, spec, tol=opts.tol,
                                 max_passes=opts.max_passes)
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
                                 dense_units=opts.dense_units, seed=opts.seed)
    model.pipeline_config = features.cache_pipeline(opts.features)
    cfg = nn.TrainConfig(lr=opts.lr, decay=opts.decay,
                         batch_size=opts.batch_size, epochs=opts.epochs,
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
    if not opts.model:
        raise UsageError("--model is required")
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
    if opts.extra_points:
        points |= {int(x) for x in opts.extra_points.split(",") if x}
    points = tuple(sorted(points))
    if not points or points[0] < 1 or opts.runs < 1:
        raise ConfigError(f"--range/--extra-points give n_mfcc {list(points)} and --runs "
                          f"{opts.runs}; need points, all >= 1, and runs >= 1")
    records = _read_required_manifest(opts.manifest)
    base = [r for r in records if r.augmented_from is None]
    if not base:
        raise DataError("empty manifest: no base records")
    labels = [int(r.label) for r in base]

    longest = audio_io.max_length(base)
    target = opts.target_length or longest
    base_cfg = features.PipelineConfig(
        n_mfcc=min(points), target_length=target,
        frame_length=opts.frame_length,
        n_mels=max(opts.n_mels, min(points)))
    kernels = tuple(opts.kernels.split(","))
    result = sweep.run_svm_sweep(audio_io.read_clips(base, longest), labels,
                                 base_cfg, kernels=kernels, points=points,
                                 runs=opts.runs, base_seed=opts.seed,
                                 C=opts.C, records=base)
    run.write_text("sweep_raw.csv", result.raw_csv())
    run.write_text("sweep_mean.csv", result.mean_csv())
    best = max(result.mean().items(), key=lambda kv: kv[1])
    print(f"{len(result.rows)} runs over {len(points)} points x {len(kernels)} kernels")
    print(f"best mean accuracy: {best[1]:.4f} at kernel={best[0][0]} n_mfcc={best[0][1]}")
    return 0


def cmd_augment(opts, run: RunDir) -> int:
    records = _read_required_manifest(opts.manifest)
    augs = [a for a in opts.augmentations.split(",") if a]
    bad = set(augs) - set(features.AUGMENTATIONS)
    if bad:
        raise UsageError(f"unknown augmentations {sorted(bad)}")
    wav_dir = os.path.join(run.path, "wavs")
    os.makedirs(wav_dir, exist_ok=True)
    out_records = list(records)
    n_written = 0
    base = [r for r in records if r.augmented_from is None]
    for r, clip in zip(base, audio_io.read_clips(base)):
        for aug in augs:
            new_id = f"{r.id}_{aug[:3]}"
            data, _clipped = audio_io.encode_wav(
                features.AUGMENTATIONS[aug](clip))
            path = os.path.join(wav_dir, new_id + ".wav")
            with open(path, "wb") as fh:
                fh.write(data)
            run.produced.append(os.path.join("wavs", new_id + ".wav"))
            out_records.append(dataset.SampleRecord(
                id=new_id, path=path, label=r.label, corpus=r.corpus,
                actor=r.actor, augmented_from=r.id, augmentation=aug))
            n_written += 1
    out = opts.out or run.file("manifest_augmented.csv")
    dataset.write_manifest(out, out_records)
    print(f"wrote {n_written} augmented clips; manifest -> {out}")
    if "invert" in augs:
        print("note: inverted clips produce feature windows identical to "
              "their source (polarity flips leave magnitude spectra unchanged)")
    return 0


def cmd_stream(opts, run: RunDir) -> int:
    if not opts.model or not opts.wav:
        raise UsageError("--model and --wav are required")
    model, _ = _sniff_model(opts.model)
    meta = model.pipeline_config
    if meta is None:
        raise DataError("model carries no pipeline config; train it on an `extract` cache")
    pipeline_cfg = features.PipelineConfig.from_dict(meta["pipeline"])
    clip = audio_io.decode_wav(audio_io.read_file(opts.wav))
    if meta.get("sample_rate") and meta["sample_rate"] != clip.sample_rate:
        raise DataError(f"stream sample rate {clip.sample_rate} Hz does not "
                        f"match the training rate {meta['sample_rate']} Hz")
    stream_cfg = streaming.StreamConfig(window_seconds=opts.window,
                                        hop_seconds=opts.hop)
    events, summary = streaming.stream_infer(clip, model, pipeline_cfg,
                                             stream_cfg,
                                             chunk_size=opts.chunk_size)
    text = streaming.events_csv(events)
    run.write_text("stream_events.csv", text)
    if opts.emit == "csv":
        print(text, end="")
    else:
        names = [l.name for l in dataset.EmotionLabel]
        for e in events:
            print(e.text_line(names))
    print(summary.to_text(), end="")
    return 0


def cmd_gradient_check(opts, run: RunDir) -> int:
    if opts.full_width:
        model = nn.build_emotion_cnn(seed=opts.seed)
    else:
        f = opts.filters
        model = nn.build_emotion_cnn(conv_filters=(f, f, f, f),
                                     dense_units=opts.dense_units,
                                     seed=opts.seed)
    rng = np.random.default_rng(opts.seed)
    x = rng.normal(size=(opts.batch,) + model.input_shape)
    labels = rng.integers(0, model.n_classes, size=opts.batch)
    worst, per_tensor = nn.gradient_check(model, x, labels, seed=opts.seed)
    for name, err in sorted(per_tensor.items()):
        print(f"{name:<16} rel err {err:.3e}")
    print(f"max relative error: {worst:.3e}")
    if worst > opts.threshold:
        raise NumericalError(
            f"gradient check failed: {worst:.3e} > {opts.threshold}")
    return 0


def cmd_audit_params(opts, run: RunDir) -> int:
    model = nn.build_emotion_cnn(n_mfcc=opts.n_mfcc, n_frames=opts.n_frames)
    print(nn.audit_params(model), end="")
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
    value gives the flag its type.  An absent flag parses to None, so
    `_resolve` can fall back to the config file, whose values it checks
    against the same type and choices, and then the default.
    """
    parser = _Parser(prog="emorec",
                     description="speech emotion recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **table):
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat JSON key/value config file")
        options = {}
        for key, default in dict(seed=0, out_dir=str, **table).items():
            choices = None
            if isinstance(default, tuple):
                choices, default = default, default[0]
            kind, default = ((default, None) if isinstance(default, type)
                             else (type(default), default))
            kw = ({"action": "store_true"} if kind is bool
                  else {"type": kind, "choices": choices})
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           default=None, **kw)
            options[key] = (default, kind, choices)
        p.set_defaults(fn=fn, options=options)

    add("extract", cmd_extract, manifest=str, out=str, n_mfcc=13,
        frame_length=2048, n_mels=26, target_length=0, f_min=0.0, f_max=float)
    add("validate-dataset", cmd_validate_dataset, manifest=str, data_root=str,
        corpus=("ravdess", "tess"))
    add("split", cmd_split, manifest=str, ratios="0.6,0.2,0.2",
        actor_disjoint=False, out=str)
    add("train-svm", cmd_train_svm, features=str, manifest=str,
        kernel=("rbf", "linear"), C=10.0, gamma="scale", tol=1e-3,
        max_passes=10_000_000, out=str)
    add("train-cnn", cmd_train_cnn, features=str, manifest=str, epochs=10,
        batch_size=32, lr=1e-4, decay=1e-6, dense_units=512, out=str)
    add("eval", cmd_eval, model=str, features=str, manifest=str, split="test",
        roc=False, compare_reference=False)
    add("sweep-svm", cmd_sweep_svm, manifest=str, range="10:120:10",
        extra_points="13,100", runs=10, kernels="rbf,linear", C=10.0,
        frame_length=2048, target_length=0, n_mels=26)
    add("augment", cmd_augment, manifest=str, augmentations="reverse,invert",
        out=str)
    add("stream", cmd_stream, model=str, wav=str, window=3.0, hop=0.5,
        emit=("text", "csv"), chunk_size=4096)
    add("gradient-check", cmd_gradient_check, filters=8, dense_units=16,
        batch=2, threshold=1e-4, full_width=False)
    add("audit-params", cmd_audit_params, n_mfcc=13, n_frames=26)
    return parser


def main(argv=None) -> int:
    run = None
    try:
        args = build_parser().parse_args(argv)
        opts = _resolve(args)
        run = RunDir(opts.out_dir or os.path.join("runs", args.command))
        return args.fn(opts, run)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (EmorecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if run is not None:
            run.finalize()


if __name__ == "__main__":
    sys.exit(main())
