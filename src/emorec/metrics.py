"""Confusion matrix, per-class precision/recall/F1, Top-N accuracy, ROC-AUC.

Zero-denominator conventions are explicit: precision is 0 when a class is
never predicted, recall is 0 when a class has no true samples, and F1 is 0
when precision and recall are both 0.  Top-N ranking breaks probability ties
toward the lower class code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import EmotionLabel, N_CLASSES, csv_text
from .errors import DataError


def confusion_matrix(true_labels, predicted_labels, n_classes=N_CLASSES):
    """counts[t][p] over (true, predicted) pairs."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise DataError(f"length mismatch: {t.shape} true vs {p.shape} predicted")
    if len(t) and (min(t.min(), p.min()) < 0 or max(t.max(), p.max()) >= n_classes):
        raise DataError(f"label outside 0..{n_classes - 1}")
    counts = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(counts, (t, p), 1)
    return counts


def precision_recall_f1(confusion):
    """Per-class (precision, recall, f1) columns from a confusion matrix."""
    c = np.asarray(confusion, dtype=np.float64)
    diag = np.diag(c)
    col = c.sum(axis=0)
    row = c.sum(axis=1)
    precision = np.divide(diag, col, out=np.zeros_like(diag), where=col > 0)
    recall = np.divide(diag, row, out=np.zeros_like(diag), where=row > 0)
    pr = precision + recall
    f1 = np.divide(2 * precision * recall, pr, out=np.zeros_like(diag), where=pr > 0)
    return precision, recall, f1


def top_k_accuracy(prob_rows, true_labels, k):
    """Fraction of rows whose true label ranks in the k most probable classes.

    Ties rank the lower class code first.
    """
    probs = np.asarray(prob_rows, dtype=np.float64)
    labels = np.asarray(true_labels, dtype=np.int64)
    if k < 1 or k > probs.shape[1]:
        raise DataError(f"k={k} outside 1..{probs.shape[1]}")
    # stable ascending sort of -prob: descending prob, ties keep lower code first
    order = np.argsort(-probs, axis=1, kind="stable")
    topk = order[:, :k]
    hits = (topk == labels[:, None]).any(axis=1)
    return float(hits.mean())


def roc_auc_ovr(scores, true_labels, n_classes=N_CLASSES):
    """One-vs-rest ROC-AUC per class via the rank statistic; ties averaged.

    Classes absent from true_labels get nan.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(true_labels, dtype=np.int64)
    aucs = np.full(n_classes, np.nan)
    for c in range(n_classes):
        pos = labels == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            continue
        # a tie group of n scores ending at sorted position e has the average
        # rank e - (n - 1) / 2, exact in float64
        _, group, counts = np.unique(scores[:, c], return_inverse=True,
                                     return_counts=True)
        ranks = (np.cumsum(counts) - (counts - 1) / 2)[group]
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        aucs[c] = auc
    return aucs


@dataclass
class MetricsReport:
    confusion: np.ndarray
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    accuracy: float
    top_k: dict                      # k -> accuracy
    roc_auc: np.ndarray | None
    class_names: list

    def per_class_csv(self) -> str:
        return csv_text(["class", "precision", "recall", "f1", "support"],
                        ([name, repr(float(self.precision[i])),
                          repr(float(self.recall[i])), repr(float(self.f1[i])),
                          int(self.support[i])]
                         for i, name in enumerate(self.class_names)))

    def confusion_csv(self) -> str:
        return csv_text(["true\\pred"] + list(self.class_names),
                        ([name] + [int(v) for v in self.confusion[i]]
                         for i, name in enumerate(self.class_names)))

    def to_text(self) -> str:
        lines = [f"accuracy: {self.accuracy:.4f}"]
        for k in sorted(self.top_k):
            lines.append(f"top-{k} accuracy: {self.top_k[k]:.4f}")
        lines.append(f"{'class':<11}{'prec':>7}{'recall':>8}{'f1':>7}{'support':>9}")
        for i, name in enumerate(self.class_names):
            lines.append(f"{name:<11}{self.precision[i]:>7.3f}{self.recall[i]:>8.3f}"
                         f"{self.f1[i]:>7.3f}{int(self.support[i]):>9}")
        return "\n".join(lines) + "\n"


def metrics_report(true_labels, scores, ks=(1, 2, 3),
                   with_roc=False) -> MetricsReport:
    """Full report from score rows (probabilities or decision values), one
    column per class code."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    labels = np.asarray(true_labels, dtype=np.int64)
    preds = scores.argmax(axis=1)
    confusion = confusion_matrix(labels, preds)
    precision, recall, f1 = precision_recall_f1(confusion)
    support = confusion.sum(axis=1)
    accuracy = float(np.trace(confusion) / max(1, confusion.sum()))
    top_k = {k: top_k_accuracy(scores, labels, k)
             for k in ks if k <= scores.shape[1]}
    roc = roc_auc_ovr(scores, labels) if with_roc else None
    class_names = [l.name for l in EmotionLabel]
    return MetricsReport(confusion, precision, recall, f1, support, accuracy,
                         top_k, roc, class_names)
