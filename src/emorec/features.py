"""Clip -> classifier-ready feature window.

The canonical unit fed to both classifiers is an ``n_mfcc x 26`` MFCC matrix
(13 x 26 by default): clips are z-scored per clip, cut to their centered
``target_length`` slice if over-long or zero-padded head and tail to it,
run through the MFCC front end with a hop derived so the STFT yields at
least 26 frames, cut to the first 26 frames, and finally z-scored over all
entries of the window.  ``extract_window`` z-scores and pads only the
samples inside the STFT frames, bit-identical to the whole-clip steps.

Augmentations: time reversal and polarity inversion.  Inversion leaves the
magnitude spectrum, hence the feature window, bit-identical to the original;
anything consuming augmented manifests is told about these duplicates rather
than having them silently dropped.

Feature cache on disk: 16-byte header (8-byte magic ``EMOFEATC``, u32
version, u32 record count), then per record a u16-length-prefixed UTF-8 id,
u8 label code, u16 n_mfcc, u16 n_frames, and the row-major float32 matrix.
All integers and floats little-endian.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .audio_io import AudioClip
from .container import Reader, atomic_open
from .dsp import frame_magnitudes, hann_window, mel_cepstrum, next_pow2
from .dsp import mfcc  # noqa: F401  (unused; perfbench/trace.py wraps features.mfcc)
from .errors import ConfigError, FormatError

N_FRAMES = 26

CACHE_MAGIC = b"EMOFEATC"
CACHE_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    """Frozen preprocessing constants shared by training and inference.

    target_length is normally the longest clip in the training manifest;
    hop_length is derived from it so the STFT yields >= 26 frames.
    """

    n_mfcc: int = 13
    target_length: int = 0
    frame_length: int = 2048
    n_mels: int = 26
    f_min: float = 0.0
    f_max: float | None = None

    def __post_init__(self):
        if self.n_mfcc < 1:
            raise ConfigError(f"n_mfcc must be >= 1, got {self.n_mfcc}")
        if self.n_mels < self.n_mfcc:
            raise ConfigError(
                f"n_mels {self.n_mels} smaller than n_mfcc {self.n_mfcc}")
        if self.target_length < self.frame_length:
            raise ConfigError(
                f"target_length {self.target_length} below frame_length {self.frame_length}")
        if self.hop_length < 1:
            raise ConfigError(
                f"target_length {self.target_length} too short to produce "
                f"{N_FRAMES} frames of {self.frame_length} samples")

    @property
    def hop_length(self) -> int:
        return (self.target_length - self.frame_length) // (N_FRAMES - 1)

    def to_dict(self) -> dict:
        return {
            "n_mfcc": self.n_mfcc,
            "target_length": self.target_length,
            "frame_length": self.frame_length,
            "n_mels": self.n_mels,
            "f_min": self.f_min,
            "f_max": self.f_max,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        d = dict(d)
        # configs written before the field was dropped carry an empty list
        if d.pop("augmentations", []) != []:
            raise ConfigError("pipeline configs with augmentations are not supported")
        return cls(**d)


@dataclass
class FeatureWindow:
    """n_mfcc x 26 matrix, z-scored over all entries unless degenerate."""

    matrix: np.ndarray
    n_mfcc: int
    standardized: bool = True

    def __post_init__(self):
        if self.matrix.shape != (self.n_mfcc, N_FRAMES):
            raise ValueError(
                f"window shape {self.matrix.shape} != ({self.n_mfcc}, {N_FRAMES})")


def normalize_loudness(clip: AudioClip) -> AudioClip:
    """Per-clip z-score: (x - mean) / population std; constant clips go to zero."""
    x = clip.samples
    mu = x.mean()
    sigma = x.std()
    if sigma < 1e-12:
        y = np.zeros_like(x)
    else:
        y = (x - mu) / sigma
    return AudioClip(y, clip.sample_rate, source_id=clip.source_id)


def pad_to_length(clip: AudioClip, target: int) -> AudioClip:
    """Zero-pad head and tail to reach target; head gets the odd extra sample."""
    n = len(clip)
    if n > target:
        raise ValueError(
            f"clip of {n} samples exceeds target {target}; truncate explicitly")
    pad = target - n
    head = (pad + 1) // 2
    y = np.concatenate([np.zeros(head), clip.samples, np.zeros(pad - head)])
    return AudioClip(y, clip.sample_rate, source_id=clip.source_id)


def truncate_to_length(clip: AudioClip, target: int) -> AudioClip:
    """Keep the centered target-sample slice, dropping the head-heavy excess.

    Exact inverse of pad_to_length on padded clips.
    """
    n = len(clip)
    if n < target:
        raise ValueError(f"clip of {n} samples shorter than target {target}")
    start = (n - target + 1) // 2
    return AudioClip(clip.samples[start : start + target].copy(),
                     clip.sample_rate, source_id=clip.source_id)


def augment_reverse(clip: AudioClip) -> AudioClip:
    return AudioClip(clip.samples[::-1].copy(), clip.sample_rate,
                     source_id=clip.source_id)


def augment_invert(clip: AudioClip) -> AudioClip:
    return AudioClip(-clip.samples, clip.sample_rate, source_id=clip.source_id)


# Inverted clips produce bit-identical feature windows (|FFT(-x)| == |FFT(x)|),
# so augmented datasets carry duplicate features for every "invert" record.
AUGMENTATIONS = {"reverse": augment_reverse, "invert": augment_invert}


def _window(clip: AudioClip, offset: int, mu, sigma,
            cfg: PipelineConfig) -> FeatureWindow:
    """Window of the target_length clip whose sample i is (x[i + offset] - mu)
    / sigma, zero off the ends of x = clip.samples.  Only the frames dsp.stft
    would make (26 unless hop_length < 25; BLAS results can depend on the row
    count) are sliced out of x into the frame buffer and z-scored there."""
    x, fl, hop = clip.samples, cfg.frame_length, cfg.hop_length
    lo, hi = max(offset, 0), min(offset + cfg.target_length, len(x))
    frames = np.zeros((1 + (cfg.target_length - fl) // hop, next_pow2(fl)))
    for r in range(len(frames)):
        start = offset + r * hop
        a, b = max(start, lo), min(start + fl, hi)
        if a < b:
            row = frames[r, a - start : b - start]
            np.subtract(x[a:b], mu, out=row)
            row /= sigma
    # silence (the kept span, not just the frames) is defined as all zeros:
    # its MFCC is a nonzero constant in coefficient 0 only, no information
    if not frames.any() and not np.any((x[lo:hi] - mu) / sigma):
        return FeatureWindow(np.zeros((cfg.n_mfcc, N_FRAMES)), cfg.n_mfcc)
    frames[:, :fl] *= hann_window(fl)
    window = mel_cepstrum(frame_magnitudes(frames, fl), clip.sample_rate,
                          frames.shape[1], cfg.n_mfcc, cfg.n_mels,
                          cfg.f_min, cfg.f_max)[:, :N_FRAMES]
    sd = window.std()
    if sd < 1e-12:
        window = np.zeros_like(window)
    else:
        window = (window - window.mean()) / sd
    return FeatureWindow(window, cfg.n_mfcc)


def make_feature_window(clip: AudioClip, cfg: PipelineConfig) -> FeatureWindow:
    """MFCC the (already normalized and padded) clip of exactly
    cfg.target_length samples, keep the first 26 frames, z-score the window."""
    if len(clip) != cfg.target_length:
        raise ValueError(
            f"clip of {len(clip)} samples is not padded to target_length "
            f"{cfg.target_length}")
    # x - 0.0 and x / 1.0 are exact: the samples are framed as they are
    return _window(clip, 0, 0.0, 1.0, cfg)


def extract_window(clip: AudioClip, cfg: PipelineConfig) -> FeatureWindow:
    """Full per-clip pipeline, bit-identical to normalize_loudness, then
    truncate_to_length if over-long, pad_to_length and make_feature_window,
    but only the STFT frames are normalized and padded, not the whole clip.
    """
    x = clip.samples
    mu, sigma = x.mean(), x.std()
    if sigma < 1e-12:   # a constant clip z-scores to silence
        return FeatureWindow(np.zeros((cfg.n_mfcc, N_FRAMES)), cfg.n_mfcc)
    # padded sample 0 sits at x[offset]: truncation drops the larger half of
    # the excess from the head, padding puts the larger half at the head
    excess = len(x) - cfg.target_length
    offset = -(-excess // 2) if excess > 0 else excess // 2
    return _window(clip, offset, mu, sigma, cfg)


def flatten(window: FeatureWindow) -> np.ndarray:
    """Row-major vector of length n_mfcc * 26; entry (i, j) lands at i*26 + j."""
    return window.matrix.reshape(-1).copy()


# ---------------------------------------------------------------------------
# Feature cache
# ---------------------------------------------------------------------------

def save_feature_cache(path, records):
    """Write (sample_id, label_code, matrix) records to the binary cache."""
    records = list(records)
    with atomic_open(path) as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<II", CACHE_VERSION, len(records)))
        for sample_id, label, matrix in records:
            ident = sample_id.encode("utf-8")
            n_mfcc, n_frames = matrix.shape
            fh.write(struct.pack("<H", len(ident)))
            fh.write(ident)
            fh.write(struct.pack("<BHH", label, n_mfcc, n_frames))
            fh.write(np.ascontiguousarray(matrix, dtype="<f4").tobytes())


def load_feature_cache(path):
    """Read the binary cache back as a list of (sample_id, label_code, matrix)."""
    r = Reader(path, "feature cache", CACHE_MAGIC)
    version, count = r.unpack("<II", "header")
    if version != CACHE_VERSION:
        raise FormatError(f"feature cache version {version}, expected {CACHE_VERSION}")
    out = []
    for _ in range(count):
        (id_len,) = r.unpack("<H", "id length")
        sample_id = r.take(id_len, "id").decode("utf-8")
        label, n_mfcc, n_frames = r.unpack("<BHH", "record header")
        out.append((sample_id, label,
                    r.array("<f4", (n_mfcc, n_frames), "matrix")))
    r.expect_end()
    return out
