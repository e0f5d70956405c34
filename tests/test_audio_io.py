import io
import math
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import audio_io
from emorec.audio_io import AudioClip, decode_wav, encode_wav, synth_tone
from emorec.errors import FormatError, UnsupportedFormatError


def stdlib_wav_bytes(samples_int16, sample_rate, n_channels=1):
    """Independent writer: python's wave module."""
    buf = io.BytesIO()
    w = wave.open(buf, "wb")
    w.setnchannels(n_channels)
    w.setsampwidth(2)
    w.setframerate(sample_rate)
    w.writeframes(np.asarray(samples_int16, dtype="<i2").tobytes())
    w.close()
    return buf.getvalue()


class TestDecode:
    def test_one_second_mono_16bit(self):
        data = stdlib_wav_bytes(np.zeros(48000, dtype=np.int16), 48000)
        clip = decode_wav(data)
        assert len(clip) == 48000
        assert clip.sample_rate == 48000

    def test_stereo_downmix_cancels(self):
        # L = +0.5, R = -0.5 everywhere -> silence
        frames = np.empty(200, dtype=np.int16)
        frames[0::2] = 16384
        frames[1::2] = -16384
        clip = decode_wav(stdlib_wav_bytes(frames, 8000, n_channels=2))
        assert np.all(clip.samples == 0.0)

    def test_int16_min_is_minus_one(self):
        clip = decode_wav(stdlib_wav_bytes([-32768, 0, 32767], 8000))
        assert clip.samples[0] == -1.0
        assert clip.samples[1] == 0.0
        assert clip.samples[2] == 32767 / 32768

    def test_float32_payload(self):
        samples = np.array([0.25, -0.75, 1.0], dtype="<f4")
        payload = samples.tobytes()
        data = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 16000, 64000, 4, 32)
                + b"data" + struct.pack("<I", len(payload)) + payload)
        clip = decode_wav(data)
        assert np.allclose(clip.samples, [0.25, -0.75, 1.0])

    def test_downmix_is_linear(self):
        rng = np.random.default_rng(0)
        left = rng.integers(-2000, 2000, 64).astype(np.int16)
        right = rng.integers(-2000, 2000, 64).astype(np.int16)
        stereo = np.empty(128, dtype=np.int16)
        stereo[0::2] = left
        stereo[1::2] = right
        mixed = decode_wav(stdlib_wav_bytes(stereo, 8000, n_channels=2))
        l_only = decode_wav(stdlib_wav_bytes(left, 8000))
        r_only = decode_wav(stdlib_wav_bytes(right, 8000))
        np.testing.assert_array_equal(
            mixed.samples, (l_only.samples + r_only.samples) / 2)

    def test_skips_unknown_chunks(self):
        payload = np.array([100, -100], dtype="<i2").tobytes()
        extra = b"LIST" + struct.pack("<I", 4) + b"info"
        data = (b"RIFF" + struct.pack("<I", 48 + len(payload)) + b"WAVE"
                + extra
                + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 16000, 2, 16)
                + b"data" + struct.pack("<I", len(payload)) + payload)
        clip = decode_wav(data)
        assert len(clip) == 2

    def test_malformed_magic(self):
        with pytest.raises(FormatError):
            decode_wav(b"RIFX" + b"\x00" * 40)
        with pytest.raises(FormatError):
            decode_wav(b"RIFF" + b"\x00" * 4 + b"WAV?" + b"\x00" * 30)

    def test_unsupported_bit_depth_names_field(self):
        payload = b"\x00" * 8
        data = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 8000, 1, 8)
                + b"data" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(UnsupportedFormatError, match="bit depth 8"):
            decode_wav(data)

    def test_unsupported_codec_names_field(self):
        payload = b"\x00" * 8
        data = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<IHHIIHH", 16, 7, 1, 8000, 8000, 2, 16)
                + b"data" + struct.pack("<I", len(payload)) + payload)
        with pytest.raises(UnsupportedFormatError, match="format tag 7"):
            decode_wav(data)


def float32_wav_bytes(samples, sample_rate, n_channels=1):
    payload = np.asarray(samples, dtype="<f4").tobytes()
    block = 4 * n_channels
    return (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 3, n_channels, sample_rate,
                                    sample_rate * block, block, 32)
            + b"data" + struct.pack("<I", len(payload)) + payload)


class TestWavInfo:
    @pytest.mark.parametrize("data", [
        stdlib_wav_bytes(np.arange(-500, 501, dtype=np.int16), 16000),
        stdlib_wav_bytes(np.arange(-500, 500, dtype=np.int16), 8000,
                         n_channels=2),
        float32_wav_bytes(np.linspace(-1, 1, 777), 48000),
        float32_wav_bytes(np.linspace(-1, 1, 10), 44100, n_channels=2),
    ], ids=["mono_pcm16", "stereo_pcm16", "float32", "float32_stereo"])
    def test_matches_decoded_length(self, data):
        clip = decode_wav(data)
        assert audio_io.wav_info(data) == (len(clip), clip.sample_rate)

    def test_same_errors_as_decode(self):
        payload = b"\x00" * 12
        data = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 24000, 3, 24)
                + b"data" + struct.pack("<I", len(payload)) + payload)
        for parse in (decode_wav, audio_io.wav_info):
            with pytest.raises(UnsupportedFormatError, match="bit depth 24"):
                parse(data)
            with pytest.raises(FormatError, match="missing data chunk"):
                parse(data[:36])  # RIFF header and fmt chunk only


class TestEncode:
    def test_roundtrip_on_grid_is_exact(self):
        rng = np.random.default_rng(1)
        grid = rng.integers(-32768, 32768, 500) / 32768.0
        clip = AudioClip(grid, 16000)
        data, clipped = encode_wav(clip)
        assert clipped == 0
        back = decode_wav(data)
        np.testing.assert_array_equal(back.samples, grid)
        assert back.sample_rate == 16000

    def test_header_matches_stdlib_writer(self):
        clip = AudioClip(np.array([0.0, 0.5, -0.5]), 16000)
        data, _ = encode_wav(clip)
        expected = stdlib_wav_bytes(
            np.round(np.array([0.0, 0.5, -0.5]) * 32768).astype(np.int16), 16000)
        assert len(data) == 44 + 6
        assert data == expected

    def test_clipping_count(self):
        clip = AudioClip(np.array([1.5, 0.0, -2.0]), 8000)
        data, clipped = encode_wav(clip)
        assert clipped == 2
        back = decode_wav(data)
        assert back.samples[0] == 32767 / 32768
        assert back.samples[2] == -1.0

    @given(st.lists(st.integers(-32768, 32767), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_quantization_fixpoint(self, ints):
        samples = np.array(ints) / 32768.0
        data, clipped = encode_wav(AudioClip(samples, 8000))
        assert clipped == 0
        np.testing.assert_array_equal(decode_wav(data).samples, samples)


class TestSynth:
    def test_tone_length_and_phase(self):
        clip = synth_tone(440, 1.0, 16000, 1.0)
        assert len(clip) == 16000
        assert clip.samples[0] == 0.0

    def test_quarter_period_cycle(self):
        clip = synth_tone(4000, 1.0, 16000, 1.0)
        np.testing.assert_allclose(clip.samples[:4], [0, 1, 0, -1], atol=1e-12)

    def test_rms(self):
        clip = synth_tone(440, 2.0, 16000, 0.8)
        rms = float(np.sqrt((clip.samples ** 2).mean()))
        assert abs(rms - 0.8 / math.sqrt(2)) < 1e-3

    def test_nyquist_rejected(self):
        with pytest.raises(ValueError):
            synth_tone(8000, 1.0, 16000)
        with pytest.raises(ValueError):
            synth_tone(9000, 1.0, 16000)

    def test_clip_invariants(self):
        with pytest.raises(ValueError):
            AudioClip(np.array([]), 8000)
        with pytest.raises(ValueError):
            AudioClip(np.array([0.0, np.nan]), 8000)
        with pytest.raises(ValueError):
            AudioClip(np.zeros(4), 0)


@given(st.integers(1, 400), st.sampled_from([8000, 16000, 44100]),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_decode_fuzz_valid_headers(n_frames, rate, stereo):
    rng = np.random.default_rng(n_frames)
    n = n_frames * (2 if stereo else 1)
    ints = rng.integers(-32768, 32768, n).astype(np.int16)
    clip = decode_wav(stdlib_wav_bytes(ints, rate, 2 if stereo else 1))
    assert len(clip) == n_frames
    assert clip.sample_rate == rate
    assert np.all(np.isfinite(clip.samples))
    assert np.all(np.abs(clip.samples) <= 1.0)
