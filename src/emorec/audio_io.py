"""WAV decoding/encoding and synthetic test signals.

All audio is held in memory as a mono float64 waveform with a sample rate
(``AudioClip``).  Supported on disk: RIFF/WAVE containers with PCM 16-bit or
IEEE float 32-bit samples, 1 or 2 channels.  Stereo is downmixed by channel
average.  16-bit samples are scaled by 1/32768, so -32768 maps to -1.0 and
+32767 to 32767/32768 (the usual asymmetric grid).

No resampling happens here; clips keep their native rate and downstream DSP
parameterizes on ``sample_rate``; ``read_clips`` refuses mixed rates.

Finiteness is checked where it can fail: ``decode_wav`` rejects NaN or infinity
in a float payload (FormatError); PCM 16-bit cannot hold one, and decoded clips
skip ``AudioClip``'s own pass.  ``max_length`` reads only chunk headers, with
``decode_wav``'s chunk walker and checks.  ``read_clips`` decodes into one
buffer it owns: a clip's samples stay valid until the next clip is drawn.
"""

from __future__ import annotations

import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError, FormatError, UnsupportedFormatError

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

    def __post_init__(self, finite_checked=False):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {self.samples.shape}")
        if self.samples.size == 0:
            raise ValueError("empty clip")
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if not finite_checked and not np.all(np.isfinite(self.samples)):
            raise ValueError("clip contains non-finite samples")

    @classmethod
    def _of_finite(cls, samples, sample_rate, source_id=None) -> "AudioClip":
        """A clip over samples the caller found finite: every check but that."""
        clip = cls.__new__(cls)
        clip.samples, clip.sample_rate, clip.source_id = samples, sample_rate, source_id
        clip.__post_init__(finite_checked=True)
        return clip

    def __len__(self):
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


def _walk_chunks(fh):
    """Walk the RIFF chunks of the binary file fh and check the format,
    reading only chunk headers and the fmt body: other payloads are sought
    over, so a length scan never reads the samples.

    Returns (audio_format, n_channels, sample_rate, n_frames, offset), the
    data payload's whole frames starting at byte offset.  Raises as
    :func:`decode_wav` documents.
    """
    def take(n_bytes, what):   # a short read names the offset and the size
        pos, got = fh.tell(), fh.read(n_bytes)
        if len(got) < n_bytes:
            raise FormatError(f"WAV truncated at byte {pos}: {what} needs "
                              f"{n_bytes} bytes, {len(got)} left")
        return got

    size = fh.seek(0, io.SEEK_END)
    fh.seek(0)
    head = take(12, "RIFF header")
    if head[0:4] != b"RIFF":
        raise FormatError(f"bad RIFF magic {head[0:4]!r}")
    if head[8:12] != b"WAVE":
        raise FormatError(f"bad WAVE tag {head[8:12]!r}")

    fmt = data = None
    pos = 12
    while pos + 8 <= size:
        fh.seek(pos)
        chunk_id, chunk_size = struct.unpack("<4sI", take(8, "chunk header"))
        if chunk_id == b"fmt ":
            if chunk_size < 16:
                raise FormatError(f"fmt chunk of {chunk_size} bytes, needs 16")
            fmt = struct.unpack("<HHIIHH", take(16, "fmt chunk"))
        elif chunk_id == b"data":
            if pos + 8 + chunk_size > size:
                raise FormatError("data chunk extends past end of file")
            data = pos + 8, chunk_size
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None:
        raise FormatError("missing fmt chunk")
    if data is None:
        raise FormatError("missing data chunk")

    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if sample_rate == 0:
        raise FormatError("fmt chunk gives a sample rate of 0 Hz")
    if audio_format not in (_PCM, _IEEE_FLOAT):
        raise UnsupportedFormatError(f"audio format tag {audio_format} (only PCM=1 and IEEE float=3)")
    if n_channels not in (1, 2):
        raise UnsupportedFormatError(f"channel count {n_channels} (only mono/stereo)")
    if audio_format == _PCM and bits != 16:
        raise UnsupportedFormatError(f"bit depth {bits} for PCM (only 16)")
    if audio_format == _IEEE_FLOAT and bits != 32:
        raise UnsupportedFormatError(f"bit depth {bits} for IEEE float (only 32)")

    n_frames = data[1] // (bits // 8 * n_channels)
    if n_frames == 0:
        raise FormatError("data chunk holds no complete frame")
    return audio_format, n_channels, sample_rate, n_frames, data[0]


def decode_wav(data: bytes, source_id: str | None = None,
               out: np.ndarray | None = None) -> AudioClip:
    """Decode a RIFF/WAVE byte string into a mono AudioClip.

    Accepts PCM 16-bit and IEEE float 32-bit, 1 or 2 channels.  Stereo is
    averaged down to mono.  Unknown chunks are skipped.  The samples go into
    ``out[:n_frames]`` when the float64 array ``out`` holds them, else into a
    new array.

    Raises
    ------
    FormatError
        Container is structurally malformed or gives a sample rate of 0, or
        a float payload holds NaN or infinity (PCM 16-bit cannot).
    UnsupportedFormatError
        Valid container but unsupported codec, bit depth or channel count;
        the message names the offending field.
    """
    audio_format, n_channels, sample_rate, n, offset = _walk_chunks(io.BytesIO(data))
    pcm = audio_format == _PCM
    raw = np.frombuffer(data, "<i2" if pcm else "<f4", n * n_channels, offset)
    if not pcm and not np.isfinite(raw).all():
        raise FormatError("float payload holds NaN or infinite samples")
    samples = out[:n] if out is not None and len(out) >= n else np.empty(n)
    scale = 1 / INT16_SCALE if pcm else 1.0
    if n_channels == 1:
        np.multiply(raw, scale, out=samples, dtype=np.float64)
    else:   # the channel mean, (l*s + r*s) / 2 bit for bit: s/2 is exact
        np.add(raw[0::2], raw[1::2], out=samples, dtype=np.float64)
        samples *= scale / 2
    return AudioClip._of_finite(samples, sample_rate, source_id)


def _open(path):
    try:
        return open(path, "rb")
    except FileNotFoundError:
        raise DataError(f"audio file missing: {path}")


def read_file(path) -> bytes:
    """The bytes of an audio file; a missing file is a DataError."""
    with _open(path) as fh:
        return fh.read()


def max_length(records) -> int:
    """Longest clip of the records (anything with ``.path``) in samples, read
    from the chunk headers alone, with the container and format errors of
    :func:`decode_wav` (a non-finite float sample is found only by decoding)."""
    def n_frames(path):
        with _open(path) as fh:
            return _walk_chunks(fh)[3]
    return max(n_frames(r.path) for r in records)


def read_clips(records, longest: int = 0):
    """Decode the records (``.path``, ``.id``) lazily, one clip at a time;
    DataError on a missing file or a rate other than the first clip's.  The
    clips share one buffer of ``longest`` samples (a caller that ran
    :func:`max_length` passes it, so the buffer is allocated once), grown to
    any longer clip: a clip's samples stay valid until the next clip is
    drawn, so a caller keeping them copies them."""
    rate = None
    buf = np.empty(longest)
    for r in records:
        clip = decode_wav(read_file(r.path), source_id=r.id, out=buf)
        if len(clip) > len(buf):
            buf = clip.samples
        rate = rate or clip.sample_rate
        if clip.sample_rate != rate:
            raise DataError(f"{r.path}: sample rate {clip.sample_rate} Hz, but "
                            f"earlier clips are {rate} Hz")
        yield clip


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
