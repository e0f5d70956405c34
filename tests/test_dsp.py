import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import audio_io, dsp
from emorec.audio_io import AudioClip
from emorec.errors import ConfigError


def naive_dft(x):
    """O(N^2) direct evaluation of the transform definition."""
    x = np.asarray(x, dtype=np.complex128)
    n = len(x)
    k = np.arange(n)
    W = np.exp(-2j * math.pi * np.outer(k, k) / n)
    return W @ x


def naive_dct2(v, n_out):
    """Direct cosine-sum evaluation of the orthonormal DCT-II."""
    v = np.asarray(v, dtype=np.float64)
    n = len(v)
    out = np.zeros(n_out)
    for k in range(n_out):
        s = math.sqrt(1.0 / n) if k == 0 else math.sqrt(2.0 / n)
        out[k] = s * sum(v[m] * math.cos(math.pi * k * (2 * m + 1) / (2 * n))
                         for m in range(n))
    return out


class TestFft:
    def test_impulse(self):
        np.testing.assert_allclose(dsp.fft([1, 0, 0, 0]), np.ones(4), atol=1e-15)

    def test_constant(self):
        np.testing.assert_allclose(dsp.fft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-15)

    def test_matches_naive_dft_length64(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        got, want = dsp.fft(x), naive_dft(x)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-9

    def test_matches_naive_all_pow2_lengths(self):
        rng = np.random.default_rng(1)
        for n in (2, 4, 8, 16, 32, 64, 128, 256):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            got, want = dsp.fft(x), naive_dft(x)
            assert np.abs(got - want).max() / np.abs(want).max() < 1e-9, n

    def test_matches_naive_smallest_and_stft_lengths(self):
        # n = 1 is the trivial transform; n = 2048 is the default frame
        # length, a 64 MB DFT matrix
        rng = np.random.default_rng(5)
        for n in (1, 2048):
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            got, want = dsp.fft(x), naive_dft(x)
            assert got.shape == (n,)
            assert np.abs(got - want).max() / np.abs(want).max() < 1e-9, n

    def test_non_pow2_rejected(self):
        with pytest.raises(ValueError):
            dsp.fft(np.zeros(12))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(3)
        xs = rng.normal(size=(5, 32))
        batched = dsp.fft(xs)
        for i in range(5):
            np.testing.assert_allclose(batched[i], dsp.fft(xs[i]), rtol=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=32) + 1j * rng.normal(size=32)
        y = rng.normal(size=32) + 1j * rng.normal(size=32)
        a, b = rng.normal(), rng.normal()
        lhs = dsp.fft(a * x + b * y)
        rhs = a * dsp.fft(x) + b * dsp.fft(y)
        assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=64) + 1j * rng.normal(size=64)
        X = dsp.fft(x)
        time_e = np.sum(np.abs(x) ** 2)
        freq_e = np.sum(np.abs(X) ** 2) / len(x)
        assert abs(time_e - freq_e) / time_e < 1e-9

    def test_negation_is_exact(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=256)
        np.testing.assert_array_equal(dsp.fft(-x), -dsp.fft(x))


class TestMelScale:
    def test_zero(self):
        assert dsp.mel_scale(0.0) == 0.0
        assert dsp.inverse_mel_scale(0.0) == 0.0

    def test_700hz(self):
        assert abs(dsp.mel_scale(700.0) - 2595 * math.log10(2)) < 1e-3

    def test_1000hz_near_1000mel(self):
        assert abs(dsp.mel_scale(1000.0) - 999.99) < 0.1

    def test_inverse_of_known_point(self):
        assert abs(dsp.inverse_mel_scale(781.177) - 700.0) < 0.01

    def test_roundtrip_grid(self):
        f = np.linspace(0.0, 8000.0, 100)
        back = dsp.inverse_mel_scale(dsp.mel_scale(f))
        rel = np.abs(back - f) / np.maximum(f, 1e-9)
        assert rel[1:].max() < 1e-6
        assert back[0] == 0.0

    def test_strictly_increasing(self):
        f = np.linspace(0.0, 8000.0, 500)
        assert np.all(np.diff(dsp.mel_scale(f)) > 0)

    def test_domains(self):
        with pytest.raises(ValueError):
            dsp.mel_scale(-1.0)
        with pytest.raises(ValueError):
            dsp.inverse_mel_scale(-0.5)


class TestStft:
    def test_frame_count(self):
        spec = dsp.stft(AudioClip(np.ones(4000), 8000), 1024, 512)
        assert spec.n_frames == 6
        assert spec.n_bins == 513

    def test_tone_peak_bin(self):
        clip = audio_io.synth_tone(1000, 0.5, 16000)
        spec = dsp.stft(clip, 1024, 512)
        expected = round(1000 * spec.fft_length / 16000)
        assert np.all(spec.magnitudes.argmax(axis=1) == expected)

    def test_all_zero_clip(self):
        spec = dsp.stft(AudioClip(np.full(2048, 0.0), 8000), 512, 256)
        assert np.all(spec.magnitudes == 0.0)

    def test_short_clip_rejected(self):
        with pytest.raises(ValueError, match="shorter than one frame"):
            dsp.stft(AudioClip(np.ones(100), 8000), 512, 256)

    def test_magnitudes_nonnegative_finite(self):
        clip = audio_io.synth_chirp(50, 1900, 0.7, 4000)
        spec = dsp.stft(clip, 400, 100)  # non-pow2 frame, padded to 512
        assert spec.fft_length == 512
        assert spec.n_bins == 201
        assert np.all(spec.magnitudes >= 0)
        assert np.all(np.isfinite(spec.magnitudes))

    def test_one_sample_frame_rejected(self):
        with pytest.raises(ValueError, match="frame_length must be >= 2"):
            dsp.stft(AudioClip(np.ones(100), 8000), 1, 1)

    @given(st.sampled_from([2, 64, 256, 400, 512]), st.integers(1, 300),
           st.integers(0, 700), st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_naive_dft_of_windowed_frames(self, frame_length, hop,
                                                  extra, seed):
        x = np.random.default_rng(seed).normal(size=frame_length + extra)
        spec = dsp.stft(AudioClip(x, 8000), frame_length, hop)
        n_fft = 1 << (frame_length - 1).bit_length()
        window = 0.5 - 0.5 * np.cos(2 * math.pi * np.arange(frame_length)
                                    / frame_length)
        rows = []
        for start in range(0, len(x) - frame_length + 1, hop):
            frame = np.zeros(n_fft)
            frame[:frame_length] = x[start : start + frame_length] * window
            rows.append(np.abs(naive_dft(frame))[: frame_length // 2 + 1])
        want = np.array(rows)
        assert spec.fft_length == n_fft
        assert spec.magnitudes.shape == want.shape
        assert np.abs(spec.magnitudes - want).max() <= 1e-9 * want.max()


class TestMelFilterbank:
    def test_peaks_are_one(self):
        fb = dsp.mel_filterbank(26, 1025, 16000)
        np.testing.assert_allclose(fb.weights.max(axis=1), 1.0)

    def test_centers_increase(self):
        fb = dsp.mel_filterbank(40, 1025, 16000)
        assert np.all(np.diff(fb.centers_hz) > 0)

    def test_first_center_matches_break_construction(self):
        fb = dsp.mel_filterbank(26, 1025, 16000)
        delta = (dsp.mel_scale(8000.0) - dsp.mel_scale(0.0)) / 27
        expected = dsp.inverse_mel_scale(dsp.mel_scale(0.0) + delta)
        bin_width = 16000 / 2048
        assert abs(fb.centers_hz[0] - expected) < bin_width

    def test_rows_unimodal_and_banded(self):
        fb = dsp.mel_filterbank(20, 513, 8000)
        for row in fb.weights:
            support = np.flatnonzero(row)
            assert support.size > 0
            peak = row.argmax()
            assert np.all(np.diff(row[support[0]:peak + 1]) >= 0)
            assert np.all(np.diff(row[peak:support[-1] + 1]) <= 0)

    def test_support_partition(self):
        # every bin strictly inside (0, Nyquist) touched by some filter
        fb = dsp.mel_filterbank(26, 513, 8000)
        freqs = np.arange(513) * (8000 / 1024)
        inside = (freqs > 0) & (freqs < 4000)
        covered = fb.weights.sum(axis=0) > 0
        assert np.all(covered[inside])

    def test_too_many_bands_for_resolution(self):
        with pytest.raises(ConfigError):
            dsp.mel_filterbank(120, 17, 8000)


class TestDct:
    def test_constant_vector(self):
        np.testing.assert_allclose(dsp.dct2([1, 1, 1, 1]), [2, 0, 0, 0],
                                   atol=1e-12)

    def test_orthonormal_roundtrip(self):
        # dct2 of the identity is the transposed basis B: B B^T = I, and
        # multiplying by B^T undoes dct2
        basis = dsp.dct2(np.eye(32))
        np.testing.assert_allclose(basis @ basis.T, np.eye(32), atol=1e-12)
        v = np.random.default_rng(5).normal(size=32)
        np.testing.assert_allclose(dsp.dct2(v) @ basis.T, v, atol=1e-9)

    def test_matches_naive_cosine_sum(self):
        rng = np.random.default_rng(6)
        v = rng.normal(size=16)
        np.testing.assert_allclose(dsp.dct2(v, 16), naive_dct2(v, 16),
                                   atol=1e-9)

    def test_truncation(self):
        rng = np.random.default_rng(7)
        v = rng.normal(size=20)
        np.testing.assert_allclose(dsp.dct2(v, 5), dsp.dct2(v)[:5], rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dsp.dct2([])
        with pytest.raises(ValueError):
            dsp.dct2([1.0, 2.0], 3)


class TestMfcc:
    def test_row_count(self):
        clip = audio_io.synth_tone(440, 1.0, 8000)
        m = dsp.mfcc(clip, 13, 1024, 256)
        assert m.coeffs.shape[0] == 13
        assert m.n_frames == 1 + (8000 - 1024) // 256

    def test_polarity_invariance_exact(self):
        clip = audio_io.synth_chirp(100, 1900, 1.0, 8000, 0.5)
        neg = AudioClip(-clip.samples, 8000)
        m1 = dsp.mfcc(clip, 13, 1024, 256)
        m2 = dsp.mfcc(neg, 13, 1024, 256)
        np.testing.assert_array_equal(m1.coeffs, m2.coeffs)

    def test_time_reversal_changes_coeffs(self):
        clip = audio_io.synth_chirp(100, 1900, 1.0, 8000, 0.5)
        rev = AudioClip(clip.samples[::-1].copy(), 8000)
        m1 = dsp.mfcc(clip, 13, 1024, 256)
        m2 = dsp.mfcc(rev, 13, 1024, 256)
        assert not np.array_equal(m1.coeffs, m2.coeffs)

    def test_silent_clip_constant_frames(self):
        clip = AudioClip(np.full(4096, 0.0), 8000)
        m = dsp.mfcc(clip, 13, 1024, 512, n_mels=26)
        # every frame identical; coefficient 0 is the DCT of a constant
        # ln(eps) vector, higher coefficients vanish
        for j in range(1, m.n_frames):
            np.testing.assert_array_equal(m.coeffs[:, j], m.coeffs[:, 0])
        expected_c0 = math.log(dsp.LOG_FLOOR) * math.sqrt(26)
        assert abs(m.coeffs[0, 0] - expected_c0) < 1e-9
        np.testing.assert_allclose(m.coeffs[1:, 0], 0.0, atol=1e-9)

    def test_n_mfcc_capped_by_n_mels(self):
        clip = audio_io.synth_tone(440, 1.0, 8000)
        with pytest.raises(ValueError):
            dsp.mfcc(clip, 30, 1024, 256, n_mels=26)


def hann_frames(frame_length, n_frames):
    """n_frames random Hann-windowed frames, zero-padded to next_pow2."""
    frames = np.zeros((n_frames, dsp.next_pow2(frame_length)))
    rng = np.random.default_rng(frame_length + n_frames)
    frames[:, :frame_length] = (rng.normal(size=(n_frames, frame_length))
                                * dsp.hann_window(frame_length))
    return frames


class TestFrameMagnitudes:
    """frame_magnitudes against the direct DFT, in the column-major layout
    the mel GEMM's bits depend on; its read-off of the half-spectrum rows
    must give the index-gather form's bits."""

    @pytest.mark.parametrize("frame_length",
                             [2, 3, 5, 16, 63, 64, 65, 400, 512, 1000, 2048, 4096])
    @pytest.mark.parametrize("n_frames", [1, 11, 26])
    def test_matches_naive_dft(self, frame_length, n_frames):
        frames = hann_frames(frame_length, n_frames)
        got = dsp.frame_magnitudes(frames, frame_length)
        want = np.abs(naive_dft(frames.T).T)[:, : frame_length // 2 + 1]
        assert got.shape == want.shape == (n_frames, frame_length // 2 + 1)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
        assert got.strides == (8, 8 * n_frames)

    @pytest.mark.parametrize("frame_length", [400, 512, 1000, 2048])
    @pytest.mark.parametrize("n_frames", [1, 11, 26])
    def test_equals_gather_form(self, frame_length, n_frames, monkeypatch):
        # bin k = k1 + A*k2 is row k1 of the fft output at point k2, or for
        # k1 > A/2 its mirror |X[N-k]|: row A-k1 at point B-1-k2
        outputs = []
        fft = dsp.fft
        monkeypatch.setattr(dsp, "fft", lambda x: outputs.append(fft(x)) or outputs[-1])
        got = dsp.frame_magnitudes(hann_frames(frame_length, n_frames), frame_length)
        mag = np.abs(outputs[0])             # (A/2 + 1, F, B)
        a, b = 2 * (len(mag) - 1), mag.shape[2]
        k1, k2 = np.divmod(np.arange(frame_length // 2 + 1), a)[::-1]
        mirror = k1 > a // 2
        want = mag[np.where(mirror, a - k1, k1), :, np.where(mirror, b - 1 - k2, k2)].T
        assert np.array_equal(got, want)
        assert got.strides == (8, 8 * n_frames)

    @pytest.mark.parametrize("frame_length, a", [(16, 16), (64, 64), (65, 16),
                                                 (512, 32), (2048, 64), (4096, 64)])
    def test_one_fft_call_of_the_half_spectrum_rows(self, frame_length, a,
                                                    monkeypatch):
        # N = A * B: (A/2 + 1) * F rows of B points, through the module global
        n_fft, n_frames = dsp.next_pow2(frame_length), 11
        calls = []
        fft = dsp.fft

        def spy(x):
            calls.append(np.shape(x))
            return fft(x)

        monkeypatch.setattr(dsp, "fft", spy)
        dsp.frame_magnitudes(hann_frames(frame_length, n_frames), frame_length)
        assert [(math.prod(s[:-1]), s[-1]) for s in calls] == [
            ((a // 2 + 1) * n_frames, n_fft // a)]
