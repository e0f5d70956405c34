"""Experiment orchestration: model evaluation and the SVM MFCC-count sweep.

The sweep retrains an SVM per (kernel, n_mfcc) point on freshly extracted
features — the coefficient count changes the front end, not just the model —
over the documented point set {10, 20, ..., 120} plus 13 and 100, ten runs
per point with a fresh split seed each, reporting raw and mean accuracies as
plot-ready CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from . import features, svm
from .dataset import stratified_split
from .errors import ConfigError
from .metrics import MetricsReport, metrics_report

SWEEP_DEFAULT_POINTS = tuple(sorted(set(range(10, 121, 10)) | {13, 100}))


def model_scores(model, windows) -> np.ndarray:
    """Per-class score rows for either classifier.

    CNN models yield softmax probabilities; SVM models yield raw decision
    values (unscaled, fine for argmax/top-k ranking).
    """
    return model.scores(np.stack([w.matrix for w in windows]))


def evaluate_model(model, windows, labels, with_roc=False) -> MetricsReport:
    """MetricsReport for a trained model over feature windows + integer labels."""
    if len(windows) == 0:
        raise ConfigError("empty evaluation split")
    scores = model_scores(model, windows)
    n_classes = scores.shape[1]
    return metrics_report(labels, scores, n_classes=n_classes,
                          ks=(1, 2, 3), with_roc=with_roc)


# ---------------------------------------------------------------------------
# SVM MFCC-count sweep
# ---------------------------------------------------------------------------

@dataclass
class SweepRow:
    kernel: str
    n_mfcc: int
    run: int
    seed: int
    accuracy: float


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)

    def mean(self) -> dict:
        """(kernel, n_mfcc) -> mean accuracy over runs."""
        groups: dict = {}
        for r in self.rows:
            groups.setdefault((r.kernel, r.n_mfcc), []).append(r.accuracy)
        return {key: float(np.mean(vals)) for key, vals in sorted(groups.items())}

    def raw_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kernel", "n_mfcc", "run", "seed", "accuracy"])
        for r in self.rows:
            w.writerow([r.kernel, r.n_mfcc, r.run, r.seed, repr(r.accuracy)])
        return buf.getvalue()

    def mean_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["kernel", "n_mfcc", "mean_accuracy"])
        for (kernel, n_mfcc), acc in self.mean().items():
            w.writerow([kernel, n_mfcc, repr(acc)])
        return buf.getvalue()


def run_svm_sweep(clips, labels, base_cfg: features.PipelineConfig,
                  kernels=("rbf", "linear"), points=SWEEP_DEFAULT_POINTS,
                  runs=10, base_seed=0, C=10.0, records=None,
                  ratios=(0.6, 0.2, 0.2), eval_split="test") -> SweepResult:
    """Accuracy over the MFCC-count grid, `runs` split seeds per point.

    clips: list of AudioClip; labels: matching integer class codes.  records
    (optional) supplies SampleRecords for the stratified split; otherwise
    synthetic ids are used.  n_mels is raised to max(base n_mels, n_mfcc) so
    every point is extractable.
    """
    from .dataset import SampleRecord  # local to avoid cycle at import time

    if records is None:
        records = [SampleRecord(id=f"s{idx:05d}", path="", label=int(lab),
                                corpus="synthetic")
                   for idx, lab in enumerate(labels)]
    by_id = {r.id: i for i, r in enumerate(records)}
    labels = np.asarray(labels, dtype=np.int64)

    result = SweepResult()
    for n_mfcc in points:
        try:
            cfg = replace(base_cfg, n_mfcc=n_mfcc,
                          n_mels=max(base_cfg.n_mels, n_mfcc))
            windows = [features.extract_window(c, cfg) for c in clips]
        except (ConfigError, ValueError) as exc:
            raise ConfigError(f"sweep point n_mfcc={n_mfcc}: {exc}") from exc
        X = np.stack([features.flatten(w) for w in windows])
        for kernel in kernels:
            spec = svm.KernelSpec(kind=kernel, C=C)
            for run in range(runs):
                seed = base_seed + run
                split = stratified_split(records, ratios=ratios, seed=seed)
                train_idx = [by_id[i] for i in split.ids("train")]
                eval_idx = [by_id[i] for i in split.ids(eval_split)]
                model = svm.train_multiclass(X[train_idx], labels[train_idx],
                                             spec)
                preds = svm.predict(model, X[eval_idx])
                acc = float((preds == labels[eval_idx]).mean())
                result.rows.append(SweepRow(kernel, n_mfcc, run, seed, acc))
    return result
