"""Experiment orchestration: model evaluation and the SVM MFCC-count sweep.

The sweep retrains an SVM per (kernel, n_mfcc) point on features built in
one pass over the clips, every point's window from one FFT of each clip, over
the documented point set {10, 20, ..., 120} plus 13 and 100, ten runs per
point with a fresh split seed each, reporting raw and mean accuracies as
plot-ready CSV.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import features, svm
from .dataset import SampleRecord, csv_text, stratified_split
from .errors import ConfigError
from .metrics import MetricsReport, metrics_report

SWEEP_DEFAULT_POINTS = tuple(sorted(set(range(10, 121, 10)) | {13, 100}))


def evaluate_model(model, windows, labels, with_roc=False) -> MetricsReport:
    """MetricsReport for a trained model over (N, n_mfcc, 26) windows + integer
    labels, ranked by the model's per-class scores: softmax probabilities for
    a CNN, raw decision values for an SVM (unscaled, fine for argmax/top-k)."""
    if len(windows) == 0:
        raise ConfigError("empty evaluation split")
    return metrics_report(labels, model.scores(windows), with_roc=with_roc)


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
        return csv_text(["kernel", "n_mfcc", "run", "seed", "accuracy"],
                        ([r.kernel, r.n_mfcc, r.run, r.seed, repr(r.accuracy)]
                         for r in self.rows))

    def mean_csv(self) -> str:
        return csv_text(["kernel", "n_mfcc", "mean_accuracy"],
                        ([kernel, n_mfcc, repr(acc)]
                         for (kernel, n_mfcc), acc in self.mean().items()))


def sweep_configs(base_cfg, points=SWEEP_DEFAULT_POINTS) -> list:
    """Per point, base_cfg at that n_mfcc with PipelineConfig's default n_mels."""
    return [replace(base_cfg, n_mfcc=n, n_mels=None) for n in points]


def run_svm_sweep(clips, labels, base_cfg: features.PipelineConfig,
                  kernels=("rbf", "linear"), points=SWEEP_DEFAULT_POINTS,
                  **fit_args) -> SweepResult:
    """Accuracy over the MFCC-count grid: fit_svm_sweep over the windows of
    sweep_configs(base_cfg, points), built in one pass over clips (a lazy
    reader keeps only the windows in memory) with matching labels."""
    cfgs = sweep_configs(base_cfg, points)
    return fit_svm_sweep([features.extract_clip(clip, cfgs) for clip in clips],
                         labels, kernels=kernels, **fit_args)


def fit_svm_sweep(windows, labels, kernels=("rbf", "linear"), runs=10,
                  base_seed=0, records=None) -> SweepResult:
    """`runs` 60/20/20 split seeds per point and kernel, each fit at C = 10
    and scored on its test split.

    windows: per clip, its FeatureWindow of each point (extract_clip over
    sweep_configs); labels: matching integer class codes.  records (optional)
    supplies SampleRecords for the stratified split; otherwise synthetic ids
    are used.
    """
    if records is None:
        records = [SampleRecord(id=f"s{idx:05d}", path="", label=int(lab),
                                corpus="synthetic")
                   for idx, lab in enumerate(labels)]
    by_id = {r.id: i for i, r in enumerate(records)}
    labels = np.asarray(labels, dtype=np.int64)

    splits = [stratified_split(records, seed=base_seed + run) for run in range(runs)]
    result = SweepResult()
    for p, point in enumerate(windows[0]):
        X = np.stack([features.flatten(w[p]) for w in windows])
        for kernel in kernels:
            spec = svm.KernelSpec(kind=kernel)
            for run, split in enumerate(splits):
                train_idx = [by_id[i] for i in split.ids("train")]
                eval_idx = [by_id[i] for i in split.ids("test")]
                model = svm.train_multiclass(X[train_idx], labels[train_idx],
                                             spec)
                preds = svm.predict(model, X[eval_idx])
                acc = float((preds == labels[eval_idx]).mean())
                result.rows.append(SweepRow(kernel, point.n_mfcc, run, split.seed, acc))
    return result
