"""Seeded synthetic inputs shaped like RAVDESS speech.

Clips are 48 kHz mono PCM16 WAVs named by the RAVDESS convention
(``03-01-EE-II-SS-RR-AA.wav``), 8 balanced classes, durations spread over
about 3 to 5.3 s with silence at both ends.  Each clip is a voiced
source (a few harmonics of a wandering f0) under a syllable envelope plus
noise.  The class shifts the mean f0, the spectral tilt and the syllable
rate, but the per-clip spread is wider than the class shift, so classes
overlap: a classifier lands well below 100% and the SVM solver has to work
as it does on real speech, instead of converging in a few passes on
separable data.

Everything here is a pure function of its seed and runs outside timing.
WAVs are written with the standard library, independent of the program.
"""

from __future__ import annotations

import math
import os
import statistics
import wave

import numpy as np

SAMPLE_RATE = 48_000
N_CLASSES = 8
DURATION_RANGE = (3.0, 5.3)
_TABLE = 4096


def ravdess_name(emotion: int, index: int) -> str:
    """Unique RAVDESS filename for the index-th clip of a 0-based class.

    The index walks actor (24), then repetition, statement and intensity
    (2 each), which gives 192 distinct names per class.
    """
    actor = index % 24 + 1
    rest = index // 24
    rep, stmt, intensity = rest % 2 + 1, rest // 2 % 2 + 1, rest // 4 % 2 + 1
    if rest >= 8:
        raise ValueError(f"clip index {index} exceeds 192 names per class")
    return (f"03-01-{emotion + 1:02d}-{intensity:02d}-{stmt:02d}-"
            f"{rep:02d}-{actor:02d}.wav")


def stratified_normals(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """(n, k) standard normals, each column drawing once from each of its n
    equal-probability bands in random order.

    Two seeds then differ in which clip gets which value, not in how the
    values spread, so the cost of fitting a corpus varies less by seed.
    """
    bands = np.argsort(rng.random((k, n)), axis=1)
    u = np.clip((bands + rng.random((k, n))) / n, 1e-9, 1 - 1e-9)
    inv = statistics.NormalDist().inv_cdf
    return np.array([[inv(v) for v in row] for row in u]).T


def clip_duration(label: int, z: float, duration_range=DURATION_RANGE) -> float:
    """Duration in seconds for a standard normal z; longer on average for
    higher class codes."""
    lo, hi = duration_range
    mean = lo + (hi - lo) * (0.2 + 0.6 * label / (N_CLASSES - 1))
    return float(np.clip(mean + 0.25 * (hi - lo) * z, lo, hi))


def synth_clip(label: int, rng: np.random.Generator, duration: float,
               z=None, sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """One voiced clip in [-1, 1] for class `label`.

    z holds the clip's standard normal offsets of f0, spectral tilt, formant
    and syllable rate from its class means; drawn from rng when omitted.
    """
    z = rng.standard_normal(4) if z is None else z
    n = int(round(duration * sample_rate))
    t = np.arange(n) / sample_rate
    f0 = 110.0 + 10.0 * label + 30.0 * z[0]
    f0 = float(np.clip(f0, 70.0, 320.0))
    drift = 1.0 + 0.06 * np.sin(2 * math.pi * rng.uniform(0.2, 0.8) * t
                                + rng.uniform(0, 2 * math.pi))
    cycles = np.cumsum(f0 * drift) / sample_rate
    # one period of the harmonic source, read back at the wandering f0
    tilt = 0.5 + 0.1 * label + 0.15 * z[1]
    formant = 400.0 + 180.0 * label + 60.0 * z[2]
    grid = 2 * math.pi * np.arange(_TABLE) / _TABLE
    table = np.zeros(_TABLE)
    for h in range(1, 25):
        gain = h ** -tilt * (1.0 + 6.0 * math.exp(-((h * f0 - formant) / 250.0) ** 2))
        table += gain * np.sin(h * grid + rng.uniform(0, 2 * math.pi))
    voiced = table[(cycles * _TABLE).astype(np.int64) % _TABLE]
    rate = 3.0 + 0.2 * label + 0.6 * z[3]
    envelope = 0.4 + 0.6 * np.sin(2 * math.pi * max(rate, 1.5) * t) ** 2
    # speech sits in the middle, silence (plus noise) at both ends
    lead = rng.uniform(0.4, 0.9)
    tail = rng.uniform(0.3, 0.8)
    active = (t > lead) & (t < duration - tail)
    x = voiced * envelope * active
    x += rng.uniform(0.005, 0.03) * rng.standard_normal(n)
    peak = np.max(np.abs(x))
    return x * (rng.uniform(0.3, 0.8) / peak)


def write_wav(path: str, samples: np.ndarray,
              sample_rate: int = SAMPLE_RATE) -> None:
    """Write mono PCM16: round(x * 32768), clamped to int16."""
    q = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(path, "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(sample_rate)
        fh.writeframes(q.tobytes())


def make_corpus(out_dir: str, seed: int, per_class: int,
                duration_range=DURATION_RANGE) -> list[str]:
    """Write 8 x per_class WAVs into out_dir; returns their paths, sorted."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng([seed, 0xC0])
    paths = []
    for label in range(N_CLASSES):
        z = stratified_normals(rng, per_class, 5)
        for index in range(per_class):
            duration = clip_duration(label, z[index, 4], duration_range)
            path = os.path.join(out_dir, ravdess_name(label, index))
            write_wav(path, synth_clip(label, rng, duration, z[index, :4]))
            paths.append(path)
    return sorted(paths)


def synth_windows(seed: int, per_class: int, n_mfcc: int = 13,
                  n_frames: int = 26) -> tuple[np.ndarray, np.ndarray]:
    """Overlapping class-templated feature windows, each z-scored.

    Returns (windows of shape (8 * per_class, n_mfcc, n_frames), labels).
    Used to prebuild a training-sized feature cache without paying for
    extraction in every run.
    """
    rng = np.random.default_rng([seed, 0xFE])
    templates = rng.normal(0.0, 1.0, (N_CLASSES, n_mfcc, n_frames))
    labels = np.repeat(np.arange(N_CLASSES), per_class)
    x = 0.6 * templates[labels] + rng.normal(0.0, 1.0,
                                             (len(labels), n_mfcc, n_frames))
    x -= x.mean(axis=(1, 2), keepdims=True)
    x /= x.std(axis=(1, 2), keepdims=True)
    return x, labels


def long_stream(seed: int, seconds: float,
                sample_rate: int = SAMPLE_RATE) -> np.ndarray:
    """A long recording: back-to-back clips of random classes, in [-1, 1]."""
    rng = np.random.default_rng([seed, 0x57])
    parts = []
    total = 0
    target = int(round(seconds * sample_rate))
    while total < target:
        clip = synth_clip(int(rng.integers(N_CLASSES)), rng,
                          rng.uniform(*DURATION_RANGE),
                          sample_rate=sample_rate)
        parts.append(clip)
        total += len(clip)
    return np.concatenate(parts)[:target]
