"""Reference steps the program's fused paths are tested against.

`features.extract_clip` z-scores, pads and transforms only the STFT frames
that hold clip samples; the whole-clip steps here (z-score the clip, cut it
to its centered slice or zero-pad it, then frame all of it) are what it must
match bit for bit.  The z-score step, `normalize_loudness`, stays in
`emorec.features`, whose benchmark tracer times it; it is re-exported here so
the tests name every reference step from one module.  `kernel_eval` is the
scalar form of `svm.kernel_matrix`.
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
