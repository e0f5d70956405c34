"""Independent float64 reference for the feature window, the extract oracle.

Written from the paper's formulas, not from the program's code:

* mel(f) = 2595 * log10(1 + f / 700);
* triangular filters on n_mels + 2 mel-equispaced breaks, each row scaled
  so its peak over the FFT bins is 1;
* periodic Hann frames, |rfft| over the next power of two;
* log(mel energy + 1e-10), then the orthonormal DCT-II, first n_mfcc rows.

`reference_window` adds the per-clip steps of the feature window: z-score
the clip, centre-truncate or centre-pad (head takes the odd sample) to the
target length, derive hop = (target - frame) // 25, keep 26 frames and
z-score the window.  Any faster FFT or float32 path in the program is judged
against this.
"""

from __future__ import annotations

import numpy as np

LOG_FLOOR = 1e-10
N_FRAMES = 26


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def filterbank(n_mels: int, n_bins: int, n_fft: int, sample_rate: int,
               f_min: float = 0.0, f_max: float | None = None) -> np.ndarray:
    """(n_mels, n_bins) peak-normalized triangles on bins k * sr / n_fft."""
    f_max = sample_rate / 2 if f_max is None else f_max
    breaks = mel_to_hz(np.linspace(hz_to_mel(f_min), hz_to_mel(f_max),
                                   n_mels + 2))
    freqs = np.arange(n_bins) * sample_rate / n_fft
    lo, mid, hi = breaks[:-2, None], breaks[1:-1, None], breaks[2:, None]
    tri = np.maximum(0.0, np.minimum((freqs - lo) / (mid - lo),
                                     (hi - freqs) / (hi - mid)))
    return tri / tri.max(axis=1, keepdims=True)


def dct_ortho(n: int) -> np.ndarray:
    """Orthonormal DCT-II basis, rows are coefficients."""
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    basis = np.cos(np.pi * k * (2 * m + 1) / (2 * n))
    scale = np.full((n, 1), np.sqrt(2.0 / n))
    scale[0] = np.sqrt(1.0 / n)
    return basis * scale


def mfcc(x: np.ndarray, sample_rate: int, n_mfcc: int, frame_length: int,
         hop_length: int, n_mels: int = 26, f_min: float = 0.0,
         f_max: float | None = None) -> np.ndarray:
    """(n_mfcc, n_frames) cepstra of a float64 signal."""
    x = np.asarray(x, dtype=np.float64)
    n_frames = 1 + (len(x) - frame_length) // hop_length
    n_fft = 1 << (frame_length - 1).bit_length()
    hann = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(frame_length) / frame_length)
    starts = np.arange(n_frames) * hop_length
    frames = x[starts[:, None] + np.arange(frame_length)] * hann
    n_bins = frame_length // 2 + 1
    mags = np.abs(np.fft.rfft(frames, n=n_fft, axis=1))[:, :n_bins]
    fb = filterbank(n_mels, n_bins, n_fft, sample_rate, f_min, f_max)
    log_mel = np.log(mags @ fb.T + LOG_FLOOR)
    return (log_mel @ dct_ortho(n_mels)[:n_mfcc].T).T


def reference_window(samples: np.ndarray, sample_rate: int, target_length: int,
                     n_mfcc: int = 13, frame_length: int = 2048,
                     n_mels: int = 26) -> np.ndarray:
    """The (n_mfcc, 26) feature window of one clip."""
    x = np.asarray(samples, dtype=np.float64)
    sigma = x.std()
    x = (x - x.mean()) / sigma if sigma >= 1e-12 else np.zeros_like(x)
    if len(x) > target_length:
        start = (len(x) - target_length + 1) // 2
        x = x[start:start + target_length]
    pad = target_length - len(x)
    x = np.concatenate([np.zeros((pad + 1) // 2), x, np.zeros(pad // 2)])
    if not np.any(x):
        return np.zeros((n_mfcc, N_FRAMES))
    hop = (target_length - frame_length) // (N_FRAMES - 1)
    w = mfcc(x, sample_rate, n_mfcc, frame_length, hop, n_mels)[:, :N_FRAMES]
    sigma = w.std()
    return (w - w.mean()) / sigma if sigma >= 1e-12 else np.zeros_like(w)
