"""Reference steps the program's fused paths are tested against.

`features.extract_clip` z-scores, pads and transforms only the STFT frames
that hold clip samples; the whole-clip steps here (z-score the clip, cut it
to its centered slice or zero-pad it, then frame all of it) are what it must
match bit for bit.  The z-score step, `normalize_loudness`, stays in
`emorec.features`, whose benchmark tracer times it; it is re-exported here so
the tests name every reference step from one module.  `kernel_eval` is the
scalar form of `svm.kernel_matrix`, and `roc_auc_ovr` ranks ties by the loop
`metrics.roc_auc_ovr` replaced.
"""

import numpy as np

from emorec.audio_io import AudioClip
from emorec.features import normalize_loudness  # noqa: F401


def pad_to_length(clip: AudioClip, target: int) -> AudioClip:
    """Zero-pad head and tail to reach target; head gets the odd extra sample."""
    n = len(clip)
    if n > target:
        raise ValueError(
            f"clip of {n} samples exceeds target {target}; truncate explicitly")
    pad = target - n
    head = (pad + 1) // 2
    y = np.concatenate([np.zeros(head), clip.samples, np.zeros(pad - head)])
    return AudioClip(y, clip.sample_rate)


def truncate_to_length(clip: AudioClip, target: int) -> AudioClip:
    """Keep the centered target-sample slice, dropping the head-heavy excess.

    Exact inverse of pad_to_length on padded clips.
    """
    n = len(clip)
    if n < target:
        raise ValueError(f"clip of {n} samples shorter than target {target}")
    start = (n - target + 1) // 2
    return AudioClip(clip.samples[start : start + target].copy(),
                     clip.sample_rate)


def kernel_eval(x, z, spec, gamma=None) -> float:
    """Single kernel value: <x, z> (linear) or exp(-gamma ||x-z||^2) (rbf)."""
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    if x.shape != z.shape:
        raise ValueError(f"dimension mismatch {x.shape} vs {z.shape}")
    if spec.kind == "linear":
        return float(x @ z)
    d = x - z
    return float(np.exp(-gamma * (d @ d)))


def roc_auc_ovr(scores, true_labels, n_classes):
    """One-vs-rest ROC-AUC per class, averaging the ranks of tied scores one
    tie group at a time; nan for a class absent from true_labels."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(true_labels, dtype=np.int64)
    aucs = np.full(n_classes, np.nan)
    for c in range(n_classes):
        pos = labels == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            continue
        s = scores[:, c]
        order = np.argsort(s, kind="stable")
        ranks = np.empty(len(s))
        sorted_s = s[order]
        start = 0
        for end in range(1, len(s) + 1):
            if end == len(s) or sorted_s[end] != sorted_s[start]:
                ranks[order[start:end]] = 0.5 * (start + 1 + end)
                start = end
        aucs[c] = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
    return aucs
