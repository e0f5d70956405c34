#!/usr/bin/env python3
"""Non-binding reproduction run against the real corpora.

Executes the full protocol when RAVDESS (and optionally TESS) are on disk:
validate the label distribution, 60/20/20 stratified split, 13x26 MFCC
extraction, 500-epoch CNN training, evaluation with per-class metrics, and
(with --sweep) the SVM coefficient-count sweep over {10,13,20..120} with
10-run averaging.  Results are printed next to the published reference
numbers; deltas are informational, not asserted, since the original seeds
are not recoverable.

    python scripts/reproduce.py --ravdess-dir /data/RAVDESS --out repro_run
    python scripts/reproduce.py --ravdess-dir ... --tess-dir ... --augment

Clips are decoded one at a time; mixed sample rates (RAVDESS is 48 kHz, TESS
24,414 Hz) or a missing file exit 2, as in the `emorec` CLI.
"""

import argparse
import os
import sys
import time

import numpy as np

from emorec import audio_io, dataset, features, nn, reference, sweep
from emorec.errors import EmorecError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ravdess-dir", required=True)
    parser.add_argument("--tess-dir", default=None)
    parser.add_argument("--out", default="repro_run")
    parser.add_argument("--epochs", type=int, default=500)
    parser.add_argument("--batch-size", type=int, default=32)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--augment", action="store_true",
                        help="train with reversed + inverted copies")
    parser.add_argument("--sweep", action="store_true",
                        help="also run the 13-point x 10-run SVM sweep (slow)")
    parser.add_argument("--sweep-runs", type=int, default=10)
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)

    records = dataset.scan_corpus(args.ravdess_dir, "ravdess")
    report = dataset.validate_manifest(records, "ravdess")
    print(report.to_text())
    if args.tess_dir:
        tess = dataset.scan_corpus(args.tess_dir, "tess")
        print(dataset.validate_manifest(tess, "tess").to_text())
        records = records + tess

    split = dataset.stratified_split(records, seed=args.seed)
    dataset.apply_split(records, split)
    dataset.write_manifest(os.path.join(args.out, "manifest.csv"), records)

    target = audio_io.max_length(records)
    cfg = features.PipelineConfig(n_mfcc=13, target_length=target,
                                  frame_length=2048, n_mels=26)
    print(f"target_length={target} samples, hop={cfg.hop_length}")

    # one pass, each clip decoded once: with --sweep every sweep point's
    # window comes from the same FFT as the CNN's, which is the n_mfcc 13
    # point's (~0.16 MB of windows per clip in memory, not the clips)
    cfgs = sweep.sweep_configs(cfg) if args.sweep else [cfg]
    cnn_point = cfgs.index(cfg)
    t0 = time.time()
    sets = {name: ([], []) for name in ("train", "val", "test")}
    base, sweep_windows = [], []
    for r, clip in zip(records, audio_io.read_clips(records, target)):
        windows = features.extract_clip(clip, cfgs)
        if args.sweep and r.augmented_from is None:
            base.append(r)
            sweep_windows.append(windows)
        sets[r.split][0].append(windows[cnn_point])
        sets[r.split][1].append(int(r.label))
        if args.augment and r.split == "train":
            for v in (features.augment_reverse(clip), features.augment_invert(clip)):
                sets[r.split][0].extend(features.extract_clip(v, [cfg]))
                sets[r.split][1].append(int(r.label))
    print(f"extracted {len(sets['train'][0]) + len(sets['val'][0]) + len(sets['test'][0])} "
          f"windows in {time.time() - t0:.0f}s")
    if args.augment:
        print(f"train split augmented to {len(sets['train'][0])} windows "
              "(note: inverted windows duplicate their sources)")

    x_train = np.stack([w.matrix for w in sets["train"][0]])[..., None]
    y_train = np.asarray(sets["train"][1])
    x_val = np.stack([w.matrix for w in sets["val"][0]])[..., None]
    y_val = np.asarray(sets["val"][1])

    model = nn.build_emotion_cnn(seed=args.seed)
    train_cfg = nn.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                               seed=args.seed)
    t0 = time.time()
    history = nn.train(model, x_train, y_train, train_cfg,
                       x_val=x_val, labels_val=y_val, verbose=True)
    print(f"trained {args.epochs} epochs in {(time.time() - t0) / 60:.1f} min")
    with open(os.path.join(args.out, "history.csv"), "w") as fh:
        fh.write(nn.history_to_csv(history))
    # the geometry record `emorec extract` writes, so `emorec stream` can
    # rebuild the windows; read_clips gave every clip the same rate
    model.pipeline_config = {"pipeline": cfg.to_dict(),
                             "sample_rate": clip.sample_rate}
    nn.save_cnn(os.path.join(args.out, "cnn_model.bin"), model)

    x_test = np.stack([w.matrix for w in sets["test"][0]])
    test_report = sweep.evaluate_model(model, x_test,
                                       sets["test"][1], with_roc=True)
    print(test_report.to_text())
    with open(os.path.join(args.out, "confusion.csv"), "w") as fh:
        fh.write(test_report.confusion_csv())
    with open(os.path.join(args.out, "per_class.csv"), "w") as fh:
        fh.write(test_report.per_class_csv())

    measured = reference.measured("cnn_top1", test_report)

    if args.sweep:
        result = sweep.fit_svm_sweep(
            sweep_windows, [int(r.label) for r in base],
            runs=args.sweep_runs, base_seed=args.seed, records=base)
        with open(os.path.join(args.out, "sweep_raw.csv"), "w") as fh:
            fh.write(result.raw_csv())
        with open(os.path.join(args.out, "sweep_mean.csv"), "w") as fh:
            fh.write(result.mean_csv())
        best = max(result.mean().items(), key=lambda kv: kv[1])
        measured["svm_best_accuracy"] = best[1]
        print(f"sweep best: {best[1]:.4f} at kernel={best[0][0]} "
              f"n_mfcc={best[0][1]}")

    print()
    print(reference.comparison_table(measured))
    print("deltas are informational; reference seeds are not recoverable")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except EmorecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
