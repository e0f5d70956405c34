"""WAV decoding/encoding and synthetic test signals.

All audio is held in memory as a mono float64 waveform with a sample rate
(``AudioClip``).  Supported on disk: RIFF/WAVE containers with PCM 16-bit or
IEEE float 32-bit samples, 1 or 2 channels.  Stereo is downmixed by channel
average.  16-bit samples are scaled by 1/32768, so -32768 maps to -1.0 and
+32767 to 32767/32768 (the usual asymmetric grid).

No resampling happens here; clips keep their native rate and downstream DSP
parameterizes on ``sample_rate``.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, UnsupportedFormatError

_PCM = 1
_IEEE_FLOAT = 3

INT16_SCALE = 32768.0


@dataclass
class AudioClip:
    """Mono waveform samples plus sample rate.

    samples : 1-D float64 array, nominal range [-1, 1]
    sample_rate : positive int, Hz
    source_id : optional provenance tag carried through the pipeline
    """

    samples: np.ndarray
    sample_rate: int
    source_id: str | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise ValueError("empty clip")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("clip contains non-finite samples")

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def _parse_wav(data: bytes):
    """Walk the RIFF chunks and check the format, without decoding samples.

    Returns (audio_format, n_channels, sample_rate, n_frames, payload), the
    payload cut to whole frames.  Raises as :func:`decode_wav` documents.
    """
    if len(data) < 12:
        raise FormatError("not a RIFF file: shorter than 12 bytes")
    if data[0:4] != b"RIFF":
        raise FormatError(f"bad RIFF magic {data[0:4]!r}")
    if data[8:12] != b"WAVE":
        raise FormatError(f"bad WAVE tag {data[8:12]!r}")

    view = memoryview(data)
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos : pos + 4]
        (chunk_size,) = struct.unpack_from("<I", data, pos + 4)
        body = view[pos + 8 : pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise FormatError(f"fmt chunk truncated ({len(body)} bytes)")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            if len(body) < chunk_size:
                raise FormatError("data chunk extends past end of file")
            payload = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise FormatError("missing fmt chunk")
    if payload is None:
        raise FormatError("missing data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if audio_format not in (_PCM, _IEEE_FLOAT):
        raise UnsupportedFormatError(f"audio format tag {audio_format} (only PCM=1 and IEEE float=3)")
    if n_channels not in (1, 2):
        raise UnsupportedFormatError(f"channel count {n_channels} (only mono/stereo)")
    if audio_format == _PCM and bits != 16:
        raise UnsupportedFormatError(f"bit depth {bits} for PCM (only 16)")
    if audio_format == _IEEE_FLOAT and bits != 32:
        raise UnsupportedFormatError(f"bit depth {bits} for IEEE float (only 32)")

    frame_size = bits // 8 * n_channels
    n_frames = len(payload) // frame_size
    if n_frames == 0:
        raise FormatError("data chunk holds no complete frame")
    return audio_format, n_channels, sample_rate, n_frames, payload[: n_frames * frame_size]


def wav_info(data: bytes) -> tuple[int, int]:
    """(n_frames, sample_rate) of a RIFF/WAVE byte string.

    Runs every container and format check of :func:`decode_wav` and raises
    the same errors, but decodes no samples; n_frames equals the length of
    the decoded clip.
    """
    _, _, sample_rate, n_frames, _ = _parse_wav(data)
    return n_frames, sample_rate


def decode_wav(data: bytes, source_id: str | None = None) -> AudioClip:
    """Decode a RIFF/WAVE byte string into a mono AudioClip.

    Accepts PCM 16-bit and IEEE float 32-bit, 1 or 2 channels.  Stereo is
    averaged down to mono.  Unknown chunks are skipped.

    Raises
    ------
    FormatError
        Container is structurally malformed.
    UnsupportedFormatError
        Valid container but unsupported codec, bit depth or channel count;
        the message names the offending field.
    """
    audio_format, n_channels, sample_rate, _, payload = _parse_wav(data)
    if audio_format == _PCM:
        raw = np.frombuffer(payload, dtype="<i2").astype(np.float64) / INT16_SCALE
    else:
        raw = np.frombuffer(payload, dtype="<f4").astype(np.float64)

    if n_channels == 2:
        raw = raw.reshape(-1, 2).mean(axis=1)

    return AudioClip(raw, sample_rate, source_id=source_id)


def encode_wav(clip: AudioClip) -> tuple[bytes, int]:
    """Encode a clip as PCM 16-bit mono WAV.

    Amplitudes are quantized as round(x * 32768) clamped to int16, so
    decode(encode(c)) recovers c up to 1/32768 per sample, exactly on the
    16-bit grid.  Samples outside [-1, 1] are clipped.

    Returns (wav_bytes, n_clipped) where n_clipped counts samples that fell
    outside [-1, 1] before quantization.
    """
    x = clip.samples
    n_clipped = int(np.count_nonzero((x < -1.0) | (x > 1.0)))
    q = np.clip(np.round(x * INT16_SCALE), -32768, 32767).astype("<i2")
    payload = q.tobytes()

    header = b"RIFF"
    header += struct.pack("<I", 36 + len(payload))
    header += b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, _PCM, 1, clip.sample_rate,
                                    clip.sample_rate * 2, 2, 16)
    header += b"data" + struct.pack("<I", len(payload))
    return header + payload, n_clipped


def synth_tone(freq: float, duration: float, sample_rate: int,
               amplitude: float = 1.0) -> AudioClip:
    """Pure sine: sample i = amplitude * sin(2*pi*freq*i/sample_rate).

    freq must sit strictly inside (0, sample_rate/2).
    """
    if not 0 < freq < sample_rate / 2:
        raise ValueError(f"freq {freq} outside (0, Nyquist={sample_rate / 2})")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = int(round(duration * sample_rate))
    i = np.arange(n, dtype=np.float64)
    return AudioClip(amplitude * np.sin(2.0 * math.pi * freq * i / sample_rate),
                     sample_rate, source_id=f"tone{freq:g}")


def synth_chirp(f0: float, f1: float, duration: float, sample_rate: int,
                amplitude: float = 1.0) -> AudioClip:
    """Linear chirp sweeping f0 -> f1; instantaneous phase integrated exactly."""
    for f in (f0, f1):
        if not 0 < f < sample_rate / 2:
            raise ValueError(f"freq {f} outside (0, Nyquist={sample_rate / 2})")
    if duration <= 0:
        raise ValueError(f"duration must be positive, got {duration}")
    n = int(round(duration * sample_rate))
    t = np.arange(n, dtype=np.float64) / sample_rate
    phase = 2.0 * math.pi * (f0 * t + (f1 - f0) / (2.0 * duration) * t * t)
    return AudioClip(amplitude * np.sin(phase), sample_rate,
                     source_id=f"chirp{f0:g}-{f1:g}")
