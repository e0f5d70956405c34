"""Command-line entry point.

Subcommands: extract, validate-dataset, split, train-svm, train-cnn, eval,
sweep-svm, augment, stream, gradient-check, audit-params.

Every subcommand accepts ``--config FILE`` (a flat JSON key/value document
with a "version" key; command-line flags override config values), ``--seed``,
and ``--out-dir`` (run directory; every produced file is listed in its
``artifacts.csv``).

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
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
        manifest = os.path.join(self.path, "artifacts.csv")
        with open(manifest, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["file"])
            for name in self.produced:
                w.writerow([name])


def _load_config_file(path) -> dict:
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    version = cfg.pop("version", CONFIG_VERSION)
    if version != CONFIG_VERSION:
        raise ConfigError(f"config version {version}, expected {CONFIG_VERSION}")
    return cfg


def _merge(args, defaults: dict) -> argparse.Namespace:
    """Resolve each option: explicit flag > config file > default."""
    file_cfg = _load_config_file(args.config) if args.config else {}
    unknown = set(file_cfg) - set(defaults) - {"seed", "out_dir"}
    if unknown:
        raise ConfigError(f"config keys not understood: {sorted(unknown)}")
    merged = {}
    for key, default in defaults.items():
        v = getattr(args, key, None)
        if v is None:
            v = file_cfg.get(key, default)
        merged[key] = v
    for key in ("seed", "out_dir"):
        v = getattr(args, key, None)
        if v is None:
            v = file_cfg.get(key, 0 if key == "seed" else None)
        merged[key] = v
    return argparse.Namespace(**merged)


def _read_required_manifest(path):
    if not path:
        raise UsageError("--manifest is required")
    return dataset.read_manifest(path)


def _read_audio(path) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        raise DataError(f"audio file missing: {path}")


def _decode_file(path, source_id=None):
    return audio_io.decode_wav(_read_audio(path), source_id=source_id)


def _pipeline_sidecar(cache_path) -> str:
    return cache_path + ".json"


def _pipeline_meta(cache_path):
    """The {"pipeline", "sample_rate"} record a model carries, read from the
    cache's sidecar (None when there is no sidecar)."""
    sidecar = _pipeline_sidecar(cache_path)
    if not os.path.exists(sidecar):
        return None
    with open(sidecar) as fh:
        doc = json.load(fh)
    pipeline = features.PipelineConfig.from_dict(doc["pipeline"])
    return {"pipeline": pipeline.to_dict(), "sample_rate": doc.get("sample_rate")}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_extract(args, run: RunDir) -> int:
    opts = _merge(args, dict(manifest=None, out=None, n_mfcc=13,
                             frame_length=2048, n_mels=26, target_length=0,
                             f_min=0.0, f_max=None))
    records = _read_required_manifest(opts.manifest)
    if not records:
        raise DataError("empty manifest")

    target = opts.target_length
    if not target:
        for r in records:
            target = max(target, audio_io.wav_info(_read_audio(r.path))[0])
    cfg = features.PipelineConfig(
        n_mfcc=opts.n_mfcc, target_length=target,
        frame_length=opts.frame_length,
        n_mels=max(opts.n_mels, opts.n_mfcc),
        f_min=opts.f_min, f_max=opts.f_max)

    cache_records = []
    sample_rate = None
    for r in records:
        clip = _decode_file(r.path, r.id)
        sample_rate = sample_rate or clip.sample_rate
        if clip.sample_rate != sample_rate:
            raise DataError(f"{r.path}: sample rate {clip.sample_rate} Hz, but "
                            f"earlier clips are {sample_rate} Hz")
        window = features.extract_window(clip, cfg)
        cache_records.append((r.id, int(r.label), window.matrix))
    out = opts.out or run.file("features.bin")
    features.save_feature_cache(out, cache_records)
    with open(_pipeline_sidecar(out), "w") as fh:
        json.dump({"version": CONFIG_VERSION, "pipeline": cfg.to_dict(),
                   "sample_rate": sample_rate}, fh, indent=2)
    print(f"extracted {len(cache_records)} windows "
          f"({cfg.n_mfcc}x{features.N_FRAMES}, target_length={cfg.target_length}) -> {out}")
    return 0


def cmd_validate_dataset(args, run: RunDir) -> int:
    opts = _merge(args, dict(manifest=None, data_root=None, corpus="ravdess"))
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


def cmd_split(args, run: RunDir) -> int:
    opts = _merge(args, dict(manifest=None, ratios="0.6,0.2,0.2",
                             actor_disjoint=False, out=None))
    records = _read_required_manifest(opts.manifest)
    ratios = tuple(float(x) for x in str(opts.ratios).split(","))
    split = dataset.stratified_split(records, ratios=ratios, seed=opts.seed,
                                     actor_disjoint=bool(opts.actor_disjoint))
    dataset.apply_split(records, split)
    out = opts.out or run.file("manifest_split.csv")
    dataset.write_manifest(out, records)
    counts = {name: 0 for name in dataset.SPLIT_NAMES}
    for r in records:
        counts[r.split] += 1
    print(f"split seed={opts.seed}: " +
          " ".join(f"{k}={v}" for k, v in counts.items()) + f" -> {out}")
    return 0


def _load_cache_and_split(cache_path, manifest_path, split_name):
    if not cache_path:
        raise UsageError("--features is required")
    cache = {rid: (label, matrix)
             for rid, label, matrix in features.load_feature_cache(cache_path)}
    records = _read_required_manifest(manifest_path)
    wanted = [r for r in records if r.split == split_name]
    if not wanted:
        raise DataError(f"no records in split {split_name!r}; run `split` first")
    missing = [r.id for r in wanted if r.id not in cache]
    if missing:
        raise DataError(f"{len(missing)} ids missing from cache, e.g. {missing[:3]}")
    windows = []
    labels = []
    for r in wanted:
        label, matrix = cache[r.id]
        windows.append(features.FeatureWindow(matrix, matrix.shape[0]))
        labels.append(label)
    return windows, np.asarray(labels, dtype=np.int64)


def cmd_train_svm(args, run: RunDir) -> int:
    opts = _merge(args, dict(features=None, manifest=None, kernel="rbf",
                             C=10.0, gamma="scale", tol=1e-3,
                             max_passes=10_000_000, out=None))
    windows, labels = _load_cache_and_split(opts.features, opts.manifest, "train")
    if opts.gamma == "scale":
        spec = svm.KernelSpec(kind=opts.kernel, C=float(opts.C))
    else:
        spec = svm.KernelSpec(kind=opts.kernel, C=float(opts.C),
                              gamma_mode="fixed", gamma_value=float(opts.gamma))
    X = np.stack([features.flatten(w) for w in windows])
    model = svm.train_multiclass(X, labels, spec, tol=float(opts.tol),
                                 max_passes=int(opts.max_passes))
    model.pipeline_config = _pipeline_meta(opts.features)
    out = opts.out or run.file("svm_model.bin")
    svm.save_svm(out, model)
    summary = model.summary()
    print(summary, end="")
    run.write_text("svm_summary.txt", summary)
    train_acc = float((svm.predict(model, X) == labels).mean())
    print(f"train accuracy: {train_acc:.4f}\nmodel -> {out}")
    return 0


def cmd_train_cnn(args, run: RunDir) -> int:
    opts = _merge(args, dict(features=None, manifest=None, epochs=10,
                             batch_size=32, lr=1e-4, decay=1e-6,
                             dense_units=512, out=None))
    windows, labels = _load_cache_and_split(opts.features, opts.manifest, "train")
    try:
        val_windows, val_labels = _load_cache_and_split(
            opts.features, opts.manifest, "val")
        x_val = np.stack([w.matrix for w in val_windows])[..., None]
    except DataError:
        x_val, val_labels = None, None
    x = np.stack([w.matrix for w in windows])[..., None]
    n_mfcc = x.shape[1]
    model = nn.build_emotion_cnn(n_mfcc=n_mfcc, n_frames=x.shape[2],
                                 dense_units=int(opts.dense_units),
                                 seed=opts.seed)
    model.pipeline_config = _pipeline_meta(opts.features)
    cfg = nn.TrainConfig(lr=float(opts.lr), decay=float(opts.decay),
                         batch_size=int(opts.batch_size),
                         epochs=int(opts.epochs), seed=opts.seed)
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


def cmd_eval(args, run: RunDir) -> int:
    opts = _merge(args, dict(model=None, features=None, manifest=None,
                             split="test", roc=False, compare_reference=False))
    if not opts.model:
        raise UsageError("--model is required")
    model, reference_key = _sniff_model(opts.model)
    windows, labels = _load_cache_and_split(opts.features, opts.manifest,
                                            opts.split)
    report = sweep.evaluate_model(model, windows, labels,
                                  with_roc=bool(opts.roc))
    print(report.to_text(), end="")
    run.write_text("confusion.csv", report.confusion_csv())
    run.write_text("per_class.csv", report.per_class_csv())
    if opts.roc and report.roc_auc is not None:
        lines = ["class,roc_auc"]
        for name, auc in zip(report.class_names, report.roc_auc):
            lines.append(f"{name},{'' if np.isnan(auc) else repr(float(auc))}")
        run.write_text("roc_auc.csv", "\n".join(lines) + "\n")
    if opts.compare_reference:
        measured = {reference_key: report.accuracy}
        recalls = dict(zip(report.class_names, report.recall))
        for name in reference.REFERENCE["per_class_accuracy"]:
            if name in recalls:
                measured[f"acc_{name}"] = float(recalls[name])
        print(reference.comparison_table(measured), end="")
    return 0


def cmd_sweep_svm(args, run: RunDir) -> int:
    opts = _merge(args, dict(manifest=None, range="10:120:10",
                             extra_points="13,100", runs=10,
                             kernels="rbf,linear", C=10.0, frame_length=2048,
                             target_length=0, n_mels=26))
    records = _read_required_manifest(opts.manifest)
    base = [r for r in records if r.augmented_from is None]
    clips = [_decode_file(r.path, r.id) for r in base]
    labels = [int(r.label) for r in base]

    lo, hi, step = (int(x) for x in str(opts.range).split(":"))
    points = set(range(lo, hi + 1, step))
    if opts.extra_points:
        points |= {int(x) for x in str(opts.extra_points).split(",") if x}
    points = tuple(sorted(points))

    target = opts.target_length or max(len(c) for c in clips)
    base_cfg = features.PipelineConfig(
        n_mfcc=min(points), target_length=target,
        frame_length=int(opts.frame_length),
        n_mels=max(int(opts.n_mels), min(points)))
    kernels = tuple(str(opts.kernels).split(","))
    result = sweep.run_svm_sweep(clips, labels, base_cfg, kernels=kernels,
                                 points=points, runs=int(opts.runs),
                                 base_seed=opts.seed, C=float(opts.C),
                                 records=base)
    run.write_text("sweep_raw.csv", result.raw_csv())
    run.write_text("sweep_mean.csv", result.mean_csv())
    best = max(result.mean().items(), key=lambda kv: kv[1])
    print(f"{len(result.rows)} runs over {len(points)} points x {len(kernels)} kernels")
    print(f"best mean accuracy: {best[1]:.4f} at kernel={best[0][0]} n_mfcc={best[0][1]}")
    return 0


def cmd_augment(args, run: RunDir) -> int:
    opts = _merge(args, dict(manifest=None, augmentations="reverse,invert",
                             out=None))
    records = _read_required_manifest(opts.manifest)
    augs = [a for a in str(opts.augmentations).split(",") if a]
    bad = set(augs) - set(features.AUGMENTATIONS)
    if bad:
        raise UsageError(f"unknown augmentations {sorted(bad)}")
    wav_dir = os.path.join(run.path, "wavs")
    os.makedirs(wav_dir, exist_ok=True)
    out_records = list(records)
    n_written = 0
    for r in records:
        if r.augmented_from is not None:
            continue
        clip = _decode_file(r.path, r.id)
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


def cmd_stream(args, run: RunDir) -> int:
    opts = _merge(args, dict(model=None, wav=None, window=3.0, hop=0.5,
                             emit="text", chunk_size=4096,
                             pipeline_config=None))
    if not opts.model or not opts.wav:
        raise UsageError("--model and --wav are required")
    model, _ = _sniff_model(opts.model)
    meta = model.pipeline_config
    if opts.pipeline_config:
        with open(opts.pipeline_config) as fh:
            meta = json.load(fh)
    if not meta or "pipeline" not in meta:
        raise DataError("model carries no pipeline config; pass --pipeline-config")
    pipeline_cfg = features.PipelineConfig.from_dict(meta["pipeline"])
    clip = _decode_file(opts.wav)
    if meta.get("sample_rate") and meta["sample_rate"] != clip.sample_rate:
        raise DataError(f"stream sample rate {clip.sample_rate} Hz does not "
                        f"match the training rate {meta['sample_rate']} Hz")
    stream_cfg = streaming.StreamConfig(window_seconds=float(opts.window),
                                        hop_seconds=float(opts.hop))
    events, summary = streaming.stream_infer(clip, model, pipeline_cfg,
                                             stream_cfg,
                                             chunk_size=int(opts.chunk_size))
    names = [l.name for l in dataset.EmotionLabel]
    if opts.emit == "csv":
        text = streaming.events_csv(events)
        print(text, end="")
        run.write_text("stream_events.csv", text)
    else:
        for e in events:
            print(e.text_line(names))
        run.write_text("stream_events.csv", streaming.events_csv(events))
    print(summary.to_text(), end="")
    return 0


def cmd_gradient_check(args, run: RunDir) -> int:
    opts = _merge(args, dict(filters=8, dense_units=16, batch=2,
                             threshold=1e-4, full_width=False))
    if opts.full_width:
        model = nn.build_emotion_cnn(seed=opts.seed)
    else:
        f = int(opts.filters)
        model = nn.build_emotion_cnn(conv_filters=(f, f, f, f),
                                     dense_units=int(opts.dense_units),
                                     seed=opts.seed)
    rng = np.random.default_rng(opts.seed)
    x = rng.normal(size=(int(opts.batch),) + model.input_shape)
    labels = rng.integers(0, model.n_classes, size=int(opts.batch))
    worst, per_tensor = nn.gradient_check(model, x, labels, seed=opts.seed)
    for name, err in sorted(per_tensor.items()):
        print(f"{name:<16} rel err {err:.3e}")
    print(f"max relative error: {worst:.3e}")
    if worst > float(opts.threshold):
        raise NumericalError(
            f"gradient check failed: {worst:.3e} > {opts.threshold}")
    return 0


def cmd_audit_params(args, run: RunDir) -> int:
    opts = _merge(args, dict(n_mfcc=13, n_frames=26))
    model = nn.build_emotion_cnn(n_mfcc=int(opts.n_mfcc),
                                 n_frames=int(opts.n_frames))
    print(nn.audit_params(model), end="")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argparse tree, built once per process; parse_args keeps no state."""
    parser = _Parser(prog="emorec",
                     description="speech emotion recognition toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--config", help="flat JSON key/value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", dest="out_dir", default=None)
        for flag, kw in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **kw)
        return p

    add("extract", cmd_extract, manifest={}, out={},
        n_mfcc={"type": int}, frame_length={"type": int},
        n_mels={"type": int}, target_length={"type": int},
        f_min={"type": float}, f_max={"type": float})
    add("validate-dataset", cmd_validate_dataset, manifest={},
        data_root={}, corpus={"choices": ["ravdess", "tess"]})
    add("split", cmd_split, manifest={}, ratios={}, out={},
        actor_disjoint={"action": "store_true", "default": None})
    add("train-svm", cmd_train_svm, features={}, manifest={},
        kernel={"choices": ["rbf", "linear"]}, C={"type": float}, gamma={},
        tol={"type": float}, max_passes={"type": int}, out={})
    add("train-cnn", cmd_train_cnn, features={}, manifest={},
        epochs={"type": int}, batch_size={"type": int}, lr={"type": float},
        decay={"type": float}, dense_units={"type": int}, out={})
    add("eval", cmd_eval, model={}, features={}, manifest={}, split={},
        roc={"action": "store_true", "default": None},
        compare_reference={"action": "store_true", "default": None})
    add("sweep-svm", cmd_sweep_svm, manifest={}, range={},
        extra_points={}, runs={"type": int}, kernels={}, C={"type": float},
        frame_length={"type": int}, target_length={"type": int},
        n_mels={"type": int})
    add("augment", cmd_augment, manifest={}, augmentations={}, out={})
    add("stream", cmd_stream, model={}, wav={}, window={"type": float},
        hop={"type": float}, emit={"choices": ["text", "csv"]},
        chunk_size={"type": int}, pipeline_config={})
    add("gradient-check", cmd_gradient_check, filters={"type": int},
        dense_units={"type": int}, batch={"type": int},
        threshold={"type": float},
        full_width={"action": "store_true", "default": None})
    add("audit-params", cmd_audit_params, n_mfcc={"type": int},
        n_frames={"type": int})
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    run = RunDir(args.out_dir or os.path.join("runs", args.command))
    try:
        code = args.fn(args, run)
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
        run.finalize()
    return code


if __name__ == "__main__":
    sys.exit(main())
