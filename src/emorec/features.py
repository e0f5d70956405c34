"""Clip -> classifier-ready feature window.

The canonical unit fed to both classifiers is an ``n_mfcc x 26`` MFCC matrix
(13 x 26 by default): clips are z-scored per clip, cut to their centered
``target_length`` slice if over-long or zero-padded head and tail to it,
run through the MFCC front end with a hop derived so the STFT yields at
least 26 frames, cut to the first 26 frames, and finally z-scored over all
entries of the window.  ``extract_clip`` is the one path that does this:
it z-scores, pads and transforms only the STFT frames holding clip samples,
bit-identical to running those steps on the whole clip
(``normalize_loudness`` here, the cut and the padding in ``tests/oracles.py``),
and builds the windows of several configs (a sweep's points) from one FFT.

Augmentation: time reversal, which changes the window.  Polarity inversion
would not: |FFT(-x)| = |FFT(x)|, so a negated clip's window is bit-identical
to its source's, and it is not offered.

Feature cache on disk: the models' container layout (magic ``EMOFEATC``,
version 2), its JSON header holding the ids, labels, window shape
``[N, n_mfcc, 26]`` and ``pipeline_config`` (the {"pipeline", "sample_rate"}
record the windows were made with, or null), then one float32 tensor.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .audio_io import AudioClip
from .container import read_model, write_model
from .dataset import N_CLASSES
from .dsp import frame_magnitudes, hann_window, mel_cepstrum, next_pow2
from .errors import ConfigError, FormatError

N_FRAMES = 26
N_MELS = 26   # mel bands, raised to n_mfcc when more coefficients are asked

CACHE_MAGIC = b"EMOFEATC"
CACHE_VERSION = 2


@dataclass(frozen=True)
class PipelineConfig:
    """Frozen preprocessing constants shared by training and inference.

    target_length is normally the longest clip in the training manifest;
    hop_length is derived from it so the STFT yields >= 26 frames.  n_mels
    defaults to max(26, n_mfcc); the filterbank spans [0, Nyquist].
    """

    n_mfcc: int = 13
    target_length: int = 0
    frame_length: int = 2048
    n_mels: int | None = None

    def __post_init__(self):
        if self.n_mels is None:
            object.__setattr__(self, "n_mels", max(N_MELS, self.n_mfcc))
        if self.n_mfcc < 1:
            raise ConfigError(f"n_mfcc must be >= 1, got {self.n_mfcc}")
        if self.n_mels < self.n_mfcc:
            raise ConfigError(
                f"n_mels {self.n_mels} smaller than n_mfcc {self.n_mfcc}")
        if not 2 <= self.frame_length <= self.target_length:
            raise ConfigError(f"frame_length {self.frame_length} outside "
                              f"[2, target_length {self.target_length}]")
        if self.hop_length < 1:
            raise ConfigError(
                f"target_length {self.target_length} too short to produce "
                f"{N_FRAMES} frames of {self.frame_length} samples")

    @property
    def hop_length(self) -> int:
        return (self.target_length - self.frame_length) // (N_FRAMES - 1)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        return cls(**d)


# the {"pipeline", "sample_rate"} record of a cache or model, or null
PIPELINE_RECORD = (None, {
    "pipeline": {"n_mfcc": int, "target_length": int, "frame_length": int,
                 "n_mels": int},
    "sample_rate": int})


@dataclass
class FeatureWindow:
    """n_mfcc x 26 matrix, z-scored over all entries unless degenerate."""

    matrix: np.ndarray
    n_mfcc: int

    def __post_init__(self):
        if self.matrix.shape != (self.n_mfcc, N_FRAMES):
            raise ValueError(
                f"window shape {self.matrix.shape} != ({self.n_mfcc}, {N_FRAMES})")


def normalize_loudness(clip: AudioClip) -> AudioClip:
    """Per-clip z-score: (x - mean) / population std; constant clips go to zero.
    Only tests call it; the benchmark's tracer times it as features.prep."""
    x = clip.samples
    mu = x.mean()
    sigma = x.std()
    if sigma < 1e-12:
        y = np.zeros_like(x)
    else:
        y = (x - mu) / sigma
    return AudioClip(y, clip.sample_rate)


def augment_reverse(clip: AudioClip) -> AudioClip:
    return AudioClip(clip.samples[::-1].copy(), clip.sample_rate)


def _silent(cfg: PipelineConfig) -> FeatureWindow:
    return FeatureWindow(np.zeros((cfg.n_mfcc, N_FRAMES)), cfg.n_mfcc)


def _sum_sq_dev(x, mu, buf):
    """np.add.reduce((x - mu)**2) as x.std() sums it, len(buf) at a time."""
    if len(x) > len(buf):   # at numpy's pairwise-sum split of n > 128 items
        n2 = len(x) // 2 - len(x) // 2 % 8
        return _sum_sq_dev(x[:n2], mu, buf) + _sum_sq_dev(x[n2:], mu, buf)
    d = np.subtract(x, mu, out=buf[:len(x)])
    return np.add.reduce(np.multiply(d, d, out=d))


def extract_clip(clip: AudioClip, cfgs, stats=None) -> list[FeatureWindow]:
    """The window of each config in cfgs, which must share target_length and
    frame_length; bit-identical to normalize_loudness, then
    truncating or padding the whole clip, then dsp.mfcc, but only frames that
    hold a clip sample are built, z-scored and transformed, once for all; the
    mel GEMM takes every frame dsp.stft makes (BLAS bits follow row counts).
    stats is the clip's (mean, std) from a caller that has them (a stream's
    segments); without it they are x.mean() and x.std(), computed here."""
    shared = {(c.target_length, c.frame_length) for c in cfgs}
    if len(shared) != 1:
        raise ConfigError("configs of one clip must share target_length and "
                          f"frame_length; got {shared or 'none'}")
    cfg, x = cfgs[0], clip.samples
    if stats is None:   # sigma is x.std(), without computing the mean again
        mu = x.mean()
        stats = mu, np.sqrt(_sum_sq_dev(x, mu, np.empty(min(len(x), 1 << 14))) / len(x))
    mu, sigma = stats
    if sigma < 1e-12:   # a constant clip z-scores to silence
        return [_silent(c) for c in cfgs]
    fl, hop = cfg.frame_length, cfg.hop_length
    # padded sample 0 sits at x[offset]: truncation drops the larger half of
    # the excess from the head, padding puts the larger half at the head
    excess = len(x) - cfg.target_length
    offset = -(-excess // 2) if excess > 0 else excess // 2
    lo, hi = max(offset, 0), min(offset + cfg.target_length, len(x))
    starts = range(offset, offset + cfg.target_length - fl + 1, hop)
    live = [s for s in starts if s < hi and lo < s + fl]   # hold clip samples
    frames = np.zeros((len(live), next_pow2(fl)))
    # frames i0 .. i1-1 lie wholly inside the clip: one strided view of x
    i0 = sum(s < lo for s in live)
    i1 = max(i0, sum(s + fl <= hi for s in live))
    if i1 > i0:
        st = x.strides[0]
        np.subtract(as_strided(x[live[i0]:], (i1 - i0, fl), (hop * st, st)), mu,
                    out=frames[i0:i1, :fl])
        frames[i0:i1, :fl] /= sigma
    for i in [*range(i0), *range(i1, len(live))]:   # the frames at the edges
        start, row = live[i], frames[i]
        a, b = max(start, lo), min(start + fl, hi)
        np.subtract(x[a:b], mu, out=row[a - start : b - start])
        row[a - start : b - start] /= sigma
    # silence (the kept span, not just the frames) is defined as all zeros:
    # its MFCC is a nonzero constant in coefficient 0 only, no information
    if not frames.any() and not np.any((x[lo:hi] - mu) / sigma):
        return [_silent(c) for c in cfgs]
    frames[:, :fl] *= hann_window(fl)
    # padding-only rows stay +0.0; column-major, as frame_magnitudes returns
    if len(live) == len(starts):
        magnitudes = frame_magnitudes(frames, fl)
    else:
        magnitudes = np.zeros((len(starts), fl // 2 + 1), order="F")
        if live:
            magnitudes[starts.index(live[0]):][:len(live)] = frame_magnitudes(frames, fl)
    out = []
    for c in cfgs:   # each at the GEMM shapes it has alone, which keeps the bits
        try:
            window = mel_cepstrum(magnitudes, clip.sample_rate, frames.shape[1],
                                  c.n_mfcc, c.n_mels)[:, :N_FRAMES]
        except ConfigError as exc:
            raise ConfigError(f"n_mfcc={c.n_mfcc}: {exc}") from exc
        sd = window.std()
        if sd < 1e-12:
            window = np.zeros_like(window)
        else:
            window = (window - window.mean()) / sd
        out.append(FeatureWindow(window, c.n_mfcc))
    return out


def extract_window(clip: AudioClip, cfg: PipelineConfig, stats=None) -> FeatureWindow:
    """The full per-clip pipeline for one config: extract_clip of [cfg]."""
    return extract_clip(clip, (cfg,), stats)[0]


def flatten(window: FeatureWindow) -> np.ndarray:
    """Row-major vector of length n_mfcc * 26; entry (i, j) lands at i*26 + j."""
    return window.matrix.reshape(-1).copy()


# ---------------------------------------------------------------------------
# Feature cache
# ---------------------------------------------------------------------------

def save_feature_cache(path, records, pipeline_config=None):
    """Write (sample_id, label_code, matrix) records of one shape to the
    cache, with the {"pipeline", "sample_rate"} record they were made with."""
    records = list(records)
    windows = np.stack([m for _, _, m in records]) if records else np.zeros((0, 0, N_FRAMES))
    meta = {"pipeline_config": pipeline_config, "ids": [i for i, _, _ in records],
            "labels": [int(c) for _, c, _ in records], "shape": list(windows.shape)}
    write_model(path, CACHE_MAGIC, CACHE_VERSION, meta, [windows], "<f4")


_HEADER = {"pipeline_config": PIPELINE_RECORD, "ids": [str], "labels": [int],
           "shape": [int]}


def load_feature_cache(path):
    """Read the binary cache back as a list of (sample_id, label_code, matrix),
    its header checked against the tensor: an id and a label per window."""
    meta, r = read_model(path, CACHE_MAGIC, CACHE_VERSION, "feature cache", _HEADER)
    ids, labels, shape = meta["ids"], meta["labels"], meta["shape"]
    if not (len(shape) == 3 and shape[0] == len(ids) == len(labels)
            and shape[1] >= 0 and shape[2] == N_FRAMES
            and all(0 <= c < N_CLASSES for c in labels)):
        raise FormatError(f"feature cache header needs labels in "
                          f"0..{N_CLASSES - 1} and a shape [len(ids), n_mfcc, {N_FRAMES}]")
    windows = r.array("<f4", shape, "windows")
    r.expect_end()
    return list(zip(ids, labels, windows))


def cache_pipeline(path):
    """The {"pipeline", "sample_rate"} record of a cache, or None; only the
    header is checked, the windows are not decoded."""
    meta, _ = read_model(path, CACHE_MAGIC, CACHE_VERSION, "feature cache", _HEADER)
    return meta["pipeline_config"]
