"""Deterministic signal-processing kernels: FFT, STFT, mel filterbank, DCT, MFCC.

Everything here is a pure function of its inputs.  The FFT (power-of-two
lengths; callers zero-pad) is one GEMM with the DFT matrix.  The STFT's
:func:`frame_magnitudes` splits a frame of N = A*B points in two stages
(Bailey's four-step algorithm, "FFTs in external or hierarchical memory",
J. Supercomputing 1990): a real matmul by the length-A DFT's half spectrum
(real input is Hermitian), twiddles, then :func:`fft` of length B, reading
|X[k]| for k <= N/2 off its output.  :func:`stft` is framing, then
:func:`frame_magnitudes` on the frame buffer; :func:`mfcc` is :func:`stft`,
then the mel -> log -> DCT tail :func:`mel_cepstrum`.  Callers that frame
their own way call the two kernels.  The cepstral transform is an
orthonormal DCT-II, and the mel scale is

    mel(f) = 2595 * log10(1 + f/700)

The 2595 constant is only consistent with a base-10 log, so log10 it is.

Conventions fixed here:
  * Hann window, periodic form w[n] = 0.5 - 0.5*cos(2*pi*n/N).
  * STFT frames are zero-padded to the next power of two before the FFT;
    magnitudes keep bins 0 .. frame_length//2.
  * Mel filters span [0, Nyquist].
  * Log floor eps = 1e-10 keeps silent frames finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import AudioClip
from .errors import ConfigError

LOG_FLOOR = 1e-10


# ---------------------------------------------------------------------------
# FFT
# ---------------------------------------------------------------------------

def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@functools.lru_cache(maxsize=64)
def _phases(rows: int, cols: int, n: int) -> np.ndarray:
    # T[r, c] = exp(-2i*pi*r*c/n), angles reduced mod n before scaling
    t = np.exp(-2j * math.pi * (np.outer(np.arange(rows), np.arange(cols)) % n) / n)
    t.setflags(write=False)
    return t


def fft(x) -> np.ndarray:
    """DFT over the last axis: X[k] = sum_n x[n] exp(-2i*pi*k*n/N).

    The last-axis length must be a power of two; callers zero-pad.  Leading
    axes are batched.  One GEMM with the N x N DFT matrix, which takes
    N^2 * 16 bytes and O(N^2) work per row: `src/` passes only
    :func:`frame_magnitudes`' stage-2 lengths, B <= 64 for frames up to
    8192 samples.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if not _is_pow2(n):
        raise ValueError(f"fft length {n} is not a power of two; zero-pad first")
    x = x.astype(np.complex128, copy=False)
    return (x.reshape(-1, n) @ _phases(n, n, n)).reshape(x.shape)


# ---------------------------------------------------------------------------
# Mel scale
# ---------------------------------------------------------------------------

def mel_scale(f):
    """Hz -> mel, 2595 * log10(1 + f/700).  f must be >= 0."""
    f = np.asarray(f, dtype=np.float64)
    if np.any(f < 0):
        raise ValueError("mel_scale domain is f >= 0")
    out = 2595.0 * np.log10(1.0 + f / 700.0)
    return float(out) if out.ndim == 0 else out


def inverse_mel_scale(m):
    """mel -> Hz, 700 * (10**(m/2595) - 1).  m must be >= 0."""
    m = np.asarray(m, dtype=np.float64)
    if np.any(m < 0):
        raise ValueError("inverse_mel_scale domain is m >= 0")
    out = 700.0 * (np.power(10.0, m / 2595.0) - 1.0)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# STFT
# ---------------------------------------------------------------------------

@dataclass
class Spectrogram:
    """Magnitude STFT: n_frames x n_bins, n_bins = frame_length//2 + 1.

    fft_length records the (power-of-two) transform size actually used, which
    fixes the bin center frequencies at k * sample_rate / fft_length.
    """

    magnitudes: np.ndarray
    frame_length: int
    hop_length: int
    sample_rate: int
    fft_length: int

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_bins(self) -> int:
        return self.magnitudes.shape[1]


@functools.lru_cache(maxsize=32)
def hann_window(n: int) -> np.ndarray:
    w = 0.5 - 0.5 * np.cos(2.0 * math.pi * np.arange(n) / n)
    w.setflags(write=False)
    return w


def next_pow2(n: int) -> int:
    return 1 << max(0, (n - 1).bit_length())


@functools.lru_cache(maxsize=32)
def _half_dft(n: int) -> np.ndarray:
    # columns k = 0 .. n/2 of the length-n DFT, each a real (cos, -sin) pair:
    # a real row times it is the row's half spectrum, read as complex128
    m = np.ascontiguousarray(_phases(n // 2 + 1, n, n).T).view(np.float64)
    m.setflags(write=False)
    return m


def frame_magnitudes(frames: np.ndarray, frame_length: int) -> np.ndarray:
    """|DFT| on bins 0 .. frame_length//2 of each row of a float64 F x N
    buffer of windowed frames zero-padded to N = next_pow2(frame_length).

    With N = A*B and input index B*a + b, a real matmul of each frame's
    B x A view by the length-A DFT's columns k1 = 0 .. A/2 (real input: the
    other columns give their conjugates) is stage 1; after the twiddles
    W_N^(k1*b), one :func:`fft` call of (A/2+1)*F rows of B points gives
    X[k1 + A*k2], and |X[k]| = |X[N-k]| gives k1 > A/2.  For N <= 64, A = N:
    the matmul is the whole real DFT and B = 1.  The result is column-major:
    the bits of a GEMM over it depend on that."""
    f, n = frames.shape
    a = n if n <= 64 else 1 << (n.bit_length() // 2)
    b, k = n // a, a // 2 + 1
    y = np.matmul(frames.reshape(f, a, b).transpose(0, 2, 1), _half_dft(a))
    z = np.multiply(y.view(np.complex128).transpose(2, 0, 1),
                    _phases(k, b, n)[:, None, :], out=np.empty((k, f, b), np.complex128))
    mag = np.abs(fft(z))
    half = b // 2 + 1   # bins up to N/2 have k2 <= B/2
    out = np.empty((half, a, f))
    out[:, :k] = mag[:, :, :half].transpose(2, 0, 1)
    out[:, k:] = mag[k - 2 : 0 : -1, :, ::-1][:, :, :half].transpose(2, 0, 1)
    return out.reshape(half * a, f)[: frame_length // 2 + 1].T


def stft(clip: AudioClip, frame_length: int, hop_length: int) -> Spectrogram:
    """Hann-windowed magnitude STFT: 1 + (len - frame_length) // hop_length
    frames, windowed and zero-padded in one buffer, then frame_magnitudes."""
    if hop_length < 1:
        raise ValueError(f"hop_length must be >= 1, got {hop_length}")
    if frame_length < 2:
        raise ValueError(f"frame_length must be >= 2, got {frame_length}")
    x = clip.samples
    if frame_length > len(x):
        raise ValueError(
            f"clip of {len(x)} samples shorter than one frame ({frame_length}); pad first")

    n_frames = 1 + (len(x) - frame_length) // hop_length
    frames = np.zeros((n_frames, next_pow2(frame_length)))
    np.multiply(sliding_window_view(x, frame_length)[::hop_length],
                hann_window(frame_length), out=frames[:, :frame_length])
    return Spectrogram(frame_magnitudes(frames, frame_length), frame_length,
                       hop_length, clip.sample_rate, frames.shape[1])


# ---------------------------------------------------------------------------
# Mel filterbank
# ---------------------------------------------------------------------------

@dataclass
class MelFilterbank:
    """Triangular filters on the mel axis, each row peak-normalized to 1.0."""

    weights: np.ndarray        # n_mels x n_bins, entries in [0, 1]
    centers_hz: np.ndarray     # n_mels center frequencies, strictly increasing

    @property
    def n_mels(self) -> int:
        return self.weights.shape[0]


@functools.lru_cache(maxsize=64)
def _filterbank_cached(n_mels, n_bins, sample_rate, fft_length):
    lo, hi = mel_scale(0.0), mel_scale(sample_rate / 2)
    breaks_hz = inverse_mel_scale(np.linspace(lo, hi, n_mels + 2))
    bin_freqs = np.arange(n_bins) * (sample_rate / fft_length)

    weights = np.zeros((n_mels, n_bins))
    for j in range(n_mels):
        left, center, right = breaks_hz[j], breaks_hz[j + 1], breaks_hz[j + 2]
        rising = (bin_freqs - left) / (center - left)
        falling = (right - bin_freqs) / (right - center)
        tri = np.minimum(rising, falling)
        weights[j] = np.maximum(0.0, tri)
        peak = weights[j].max()
        if peak <= 0.0:
            raise ConfigError(
                f"mel filter {j} has no support: {n_bins} bins cannot resolve "
                f"{n_mels} mel bands over [0, {sample_rate / 2}] Hz")
        weights[j] /= peak
    weights.setflags(write=False)
    centers = breaks_hz[1:-1].copy()
    centers.setflags(write=False)
    return weights, centers


def mel_filterbank(n_mels: int, n_fft_bins: int, sample_rate: int,
                   fft_length: int | None = None) -> MelFilterbank:
    """Build n_mels triangular filters over [0, Nyquist].

    n_mels + 2 break frequencies are spaced equally on the mel axis, mapped
    back to Hz; row j is the triangle over (break[j], break[j+1], break[j+2])
    sampled at bin center frequencies and peak-normalized.

    fft_length defaults to 2*(n_fft_bins - 1), the full-spectrum case; pass
    the true transform size when the bins are a truncated slice.
    """
    if n_mels < 1:
        raise ValueError(f"n_mels must be >= 1, got {n_mels}")
    if fft_length is None:
        fft_length = 2 * (n_fft_bins - 1)
    return MelFilterbank(*_filterbank_cached(n_mels, n_fft_bins, sample_rate,
                                             fft_length))


# ---------------------------------------------------------------------------
# DCT-II
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=32)
def _dct2_matrix(n: int) -> np.ndarray:
    # orthonormal DCT-II basis: D[k, m] = s(k) cos(pi k (2m+1) / (2n))
    k = np.arange(n)[:, None]
    m = np.arange(n)[None, :]
    d = np.cos(math.pi * k * (2 * m + 1) / (2 * n))
    d[0] *= math.sqrt(1.0 / n)
    d[1:] *= math.sqrt(2.0 / n)
    d.setflags(write=False)
    return d


def dct2(v, n_out: int | None = None) -> np.ndarray:
    """Orthonormal DCT-II of a vector, truncated to the first n_out coefficients."""
    v = np.asarray(v, dtype=np.float64)
    if v.size == 0:
        raise ValueError("dct2 of empty input")
    n = v.shape[-1]
    if n_out is None:
        n_out = n
    if n_out > n:
        raise ValueError(f"n_out {n_out} exceeds input length {n}")
    return v @ _dct2_matrix(n)[:n_out].T


# ---------------------------------------------------------------------------
# MFCC
# ---------------------------------------------------------------------------

@dataclass
class MfccMatrix:
    """n_mfcc x n_frames cepstral coefficients plus the config that made them."""

    coeffs: np.ndarray
    frame_length: int
    hop_length: int
    n_mels: int
    n_mfcc: int

    @property
    def n_frames(self) -> int:
        return self.coeffs.shape[1]


def mel_cepstrum(magnitudes: np.ndarray, sample_rate: int, fft_length: int,
                 n_mfcc: int, n_mels: int) -> np.ndarray:
    """Magnitude frames (n_frames x n_bins) -> mel filterbank -> log -> DCT-II,
    truncated to n_mfcc rows: an n_mfcc x n_frames coefficient matrix."""
    if n_mfcc > n_mels:
        raise ValueError(f"n_mfcc {n_mfcc} exceeds n_mels {n_mels}")
    fb = mel_filterbank(n_mels, magnitudes.shape[1], sample_rate,
                        fft_length=fft_length)
    log_energy = np.log(magnitudes @ fb.weights.T + LOG_FLOOR)  # frames x mels
    return dct2(log_energy, n_mfcc).T


def mfcc(clip: AudioClip, n_mfcc: int, frame_length: int, hop_length: int,
         n_mels: int = 26) -> MfccMatrix:
    """MFCCs: :func:`stft`, then :func:`mel_cepstrum` of its magnitudes."""
    spec = stft(clip, frame_length, hop_length)
    return MfccMatrix(mel_cepstrum(spec.magnitudes, clip.sample_rate,
                                   spec.fft_length, n_mfcc, n_mels),
                      frame_length, hop_length, n_mels, n_mfcc)
