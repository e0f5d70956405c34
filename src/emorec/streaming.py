"""Sliding-window streaming inference over live or file audio.

A ring buffer holds the most recent window (default 3 s, at most
``MAX_WINDOW_SECONDS``, 60 s); every hop (default 0.5 s) of newly arrived
audio triggers one classification of the buffered window: normalize ->
pad/truncate to the training target length -> feature window -> model
scores.  Event emission depends only on cumulative sample counts, so the same
audio produces the same events regardless of chunking or processing speed; a
slow consumer delays events, it never drops them.

Latency is wall-clock per event, kept out of the events' CSV so that the
events depend only on the audio and the model; the run summary reports
p50/p95/max latency and the real-time factor (processing time / audio
duration).  RTF < 1 means faster than real time; this artifact's service
target is RTF < 0.25 on a desktop CPU.

Samples are checked for finiteness once, at ``push``; the window classified is
a view of the ring, with no copy and no second check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import features
from .audio_io import AudioClip
from .dataset import N_CLASSES, csv_text
from .errors import ConfigError, DataError


# the ring holds twice the window: 46 MB of float64 at 48 kHz
MAX_WINDOW_SECONDS = 60.0


@dataclass(frozen=True)
class StreamConfig:
    window_seconds: float = 3.0
    hop_seconds: float = 0.5

    def __post_init__(self):
        for name in ("window_seconds", "hop_seconds"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if self.window_seconds > MAX_WINDOW_SECONDS:
            raise ConfigError(f"window_seconds {self.window_seconds:g} is above "
                              f"the {MAX_WINDOW_SECONDS:g} s limit")
        if not 0 < self.hop_seconds <= self.window_seconds:
            raise ConfigError(
                f"need 0 < hop ({self.hop_seconds}) <= window ({self.window_seconds})")


@dataclass
class StreamEvent:
    t_start: float
    t_end: float
    probs: np.ndarray
    label: int
    latency_ms: float

    def text_line(self, class_names=None) -> str:
        name = class_names[self.label] if class_names else str(self.label)
        return (f"[{self.t_start:8.2f}s .. {self.t_end:8.2f}s] {name:<10} "
                f"p={self.probs[self.label]:.3f} latency={self.latency_ms:.1f}ms")

    def csv_row(self):
        return ([repr(self.t_start), repr(self.t_end)]
                + [repr(float(p)) for p in self.probs]
                + [self.label])


@dataclass
class StreamSummary:
    n_events: int
    audio_seconds: float
    processing_seconds: float
    latency_p50_ms: float
    latency_p95_ms: float
    latency_max_ms: float

    @property
    def rtf(self) -> float:
        return self.processing_seconds / self.audio_seconds if self.audio_seconds else 0.0

    def to_text(self) -> str:
        return (f"events: {self.n_events}\n"
                f"audio: {self.audio_seconds:.2f}s  processing: {self.processing_seconds:.3f}s  "
                f"RTF: {self.rtf:.4f}\n"
                f"latency ms: p50={self.latency_p50_ms:.2f} "
                f"p95={self.latency_p95_ms:.2f} max={self.latency_max_ms:.2f}\n")


class _RingBuffer:
    """The most recent `capacity` samples, contiguous in a 2 x capacity buffer;
    when a push would run past its end the kept samples slide to the front."""

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._buf = None   # allocated by the first push
        self._end = capacity   # the window is _buf[_end - capacity : _end]
        self.total = 0

    def push(self, samples: np.ndarray):
        if self._buf is None:
            self._buf = np.zeros(2 * self.capacity)
        self.total += len(samples)
        samples = samples[-self.capacity:]
        end = self._end + len(samples)
        if end > len(self._buf):
            keep = self.capacity - len(samples)
            self._buf[:keep] = self._buf[self._end - keep : self._end]
            end = self.capacity
        self._buf[end - len(samples) : end] = samples
        self._end = end

    def window(self) -> np.ndarray:
        """Samples in arrival order, zero-prefixed until the buffer fills: a
        view, valid until the next push."""
        return self._buf[self._end - self.capacity : self._end]


class StreamingClassifier:
    """Push audio chunks, get classification events back.

    The model is a CnnModel or an SvmModel; both expose `window_size` and
    `probabilities`.  Feature geometry mismatches fail here, at construction.
    """

    def __init__(self, model, pipeline_cfg: features.PipelineConfig,
                 stream_cfg: StreamConfig, sample_rate: int):
        if sample_rate <= 0:
            raise ConfigError(f"sample_rate must be positive, got {sample_rate}")
        expected = pipeline_cfg.n_mfcc * features.N_FRAMES
        if model.window_size != expected:
            raise ConfigError(
                f"model expects {model.window_size} features per window, "
                f"pipeline produces {expected} ({pipeline_cfg.n_mfcc} "
                f"coefficients x {features.N_FRAMES} frames)")
        self.model = model
        self.pipeline_cfg = pipeline_cfg
        self.sample_rate = sample_rate
        self.window_samples = int(round(stream_cfg.window_seconds * sample_rate))
        self.hop_samples = int(round(stream_cfg.hop_seconds * sample_rate))
        if self.window_samples < 1 or self.hop_samples < 1:
            raise ConfigError("window/hop shorter than one sample")
        self._ring = _RingBuffer(self.window_samples)
        self._next_trigger = self.window_samples
        self.processing_seconds = 0.0
        self.latencies_ms: list[float] = []

    def _classify(self) -> StreamEvent:
        t0 = time.perf_counter()
        clip = AudioClip._of_finite(self._ring.window(), self.sample_rate)
        window = features.extract_window(clip, self.pipeline_cfg)
        probs = self.model.probabilities(window.matrix[None])[0]
        elapsed = time.perf_counter() - t0
        self.processing_seconds += elapsed
        latency_ms = elapsed * 1000.0
        self.latencies_ms.append(latency_ms)
        total, sr = self._ring.total, self.sample_rate
        return StreamEvent(t_start=(total - self.window_samples) / sr,
                           t_end=total / sr, probs=probs,
                           label=int(np.argmax(probs)), latency_ms=latency_ms)

    def push(self, chunk) -> list[StreamEvent]:
        """Feed new samples; returns the events they complete, in time order.
        A chunk holding NaN or infinity is a DataError and changes nothing."""
        chunk = np.asarray(chunk, dtype=np.float64)
        if not np.isfinite(chunk).all():
            raise DataError("stream chunk holds NaN or infinite samples")
        events = []
        pos = 0
        while pos < len(chunk):
            take = min(len(chunk) - pos, self._next_trigger - self._ring.total)
            self._ring.push(chunk[pos : pos + take])
            pos += take
            if self._ring.total == self._next_trigger:
                events.append(self._classify())
                self._next_trigger += self.hop_samples
        return events

    def summary(self) -> StreamSummary:
        lat = np.asarray(self.latencies_ms) if self.latencies_ms else np.zeros(1)
        return StreamSummary(
            n_events=len(self.latencies_ms),
            audio_seconds=self._ring.total / self.sample_rate,
            processing_seconds=self.processing_seconds,
            latency_p50_ms=float(np.percentile(lat, 50)),
            latency_p95_ms=float(np.percentile(lat, 95)),
            latency_max_ms=float(np.max(lat)))


def stream_infer(clip: AudioClip, model, pipeline_cfg: features.PipelineConfig,
                 stream_cfg: StreamConfig,
                 chunk_size: int = 4096) -> tuple[list[StreamEvent], StreamSummary]:
    """File-feed streaming: push the clip through in chunks.

    A D-second clip with window W and hop H yields floor((D-W)/H) + 1 events,
    the first at t_end = W; a clip shorter than W yields none and builds no
    ring.  chunk_size below 1 is a ConfigError.
    """
    if chunk_size < 1:
        raise ConfigError(f"chunk_size must be at least 1, got {chunk_size}")
    engine = StreamingClassifier(model, pipeline_cfg, stream_cfg,
                                 clip.sample_rate)
    if len(clip) < engine.window_samples:
        return [], replace(engine.summary(),
                           audio_seconds=len(clip) / clip.sample_rate)
    events = []
    for start in range(0, len(clip), chunk_size):
        events.extend(engine.push(clip.samples[start : start + chunk_size]))
    return events, engine.summary()


def events_csv(events) -> str:
    return csv_text(["t_start", "t_end"] + [f"p{i}" for i in range(N_CLASSES)]
                    + ["label"], (e.csv_row() for e in events))


def latency_csv(events) -> str:
    """Each event's end time and wall-clock latency."""
    return csv_text(["t_end", "latency_ms"],
                    ([repr(e.t_end), repr(e.latency_ms)] for e in events))
