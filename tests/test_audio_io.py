import io
import math
import struct
import wave
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import audio_io, features
from emorec.audio_io import AudioClip, decode_wav, encode_wav, synth_tone
from emorec.errors import DataError, FormatError, UnsupportedFormatError


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


def length_scan(tmp_path, data):
    """max_length over one file holding data."""
    path = tmp_path / "a.wav"
    path.write_bytes(data)
    return audio_io.max_length([SimpleNamespace(path=str(path))])


class TestWavInfo:
    """The header-only length scan: the decoded length, decode's errors."""

    @pytest.mark.parametrize("data", [
        stdlib_wav_bytes(np.arange(-500, 501, dtype=np.int16), 16000),
        stdlib_wav_bytes(np.arange(-500, 500, dtype=np.int16), 8000,
                         n_channels=2),
        float32_wav_bytes(np.linspace(-1, 1, 777), 48000),
        float32_wav_bytes(np.linspace(-1, 1, 10), 44100, n_channels=2),
    ], ids=["mono_pcm16", "stereo_pcm16", "float32", "float32_stereo"])
    def test_matches_decoded_length(self, tmp_path, data):
        assert length_scan(tmp_path, data) == len(decode_wav(data))

    def test_same_errors_as_decode(self, tmp_path):
        payload = b"\x00" * 12
        data = (b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
                + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 24000, 3, 24)
                + b"data" + struct.pack("<I", len(payload)) + payload)
        for parse in (decode_wav, lambda data: length_scan(tmp_path, data)):
            with pytest.raises(UnsupportedFormatError, match="bit depth 24"):
                parse(data)
            with pytest.raises(FormatError, match="missing data chunk"):
                parse(data[:36])  # RIFF header and fmt chunk only


def riff(*chunks):
    """A RIFF/WAVE byte string of (id, body) chunks, odd bodies padded."""
    body = b"WAVE" + b"".join(cid + struct.pack("<I", len(b)) + b + b"\x00" * (len(b) & 1)
                              for cid, b in chunks)
    return b"RIFF" + struct.pack("<I", len(body)) + body


FMT_MONO_16K = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("n_channels", [1, 2])
def test_non_finite_float_payload_is_format_error(bad, n_channels):
    samples = np.full(8 * n_channels, 0.25)
    samples[5] = bad
    with pytest.raises(FormatError, match="NaN or infinite"):
        decode_wav(float32_wav_bytes(samples, 8000, n_channels))


class TestReadClips:
    @staticmethod
    def records(tmp_path, rates):
        out = []
        for i, rate in enumerate(rates):
            path = tmp_path / f"c{i}.wav"
            if rate:
                path.write_bytes(encode_wav(synth_tone(440, 0.25 + i / 100, rate))[0])
            out.append(SimpleNamespace(path=str(path)))
        return out

    def test_yields_one_clip_at_a_time(self, tmp_path):
        # the third file is missing: the first two still come out, in order
        # (clip i lasts 0.25 + i/100 s)
        clips = audio_io.read_clips(self.records(tmp_path, [8000, 8000, None]))
        assert [len(next(clips)), len(next(clips))] == [2000, 2080]
        with pytest.raises(DataError, match="audio file missing"):
            next(clips)

    def test_mixed_rates_rejected(self, tmp_path):
        records = self.records(tmp_path, [16000, 16000, 8000])
        with pytest.raises(DataError, match="8000 Hz, but earlier clips are 16000 Hz"):
            list(audio_io.read_clips(records))

    def test_max_length_from_headers(self, tmp_path):
        records = self.records(tmp_path, [8000, 16000, 8000])
        assert audio_io.max_length(records) == 4160   # 0.26 s at 16 kHz

    @pytest.mark.parametrize("chunks", [
        [(b"fmt ", FMT_MONO_16K), (b"LIST", b"INFOabcde"),
         (b"data", b"\x01\x00" * 301)],
        [(b"fmt ", FMT_MONO_16K), (b"data", b"\x01\x00" * 300),
         (b"LIST", b"INFOab")],
        [(b"fmt ", FMT_MONO_16K), (b"data", b"\x01\x00" * 300 + b"\x07"),
         (b"LIST", b"INFOabc")],
        [(b"LIST", b"x"), (b"fmt ", FMT_MONO_16K + b"\x00\x00"),
         (b"junk", b"123"), (b"data", b"\x02\x00" * 299)],
    ], ids=["list_before_data", "list_after_data", "odd_data_then_list",
            "odd_chunks_and_fmt_extension"])
    def test_max_length_walks_chunks_as_decode_does(self, tmp_path, chunks):
        data = riff(*chunks)
        assert length_scan(tmp_path, data) == len(decode_wav(data))

    def test_data_past_end_fails_in_length_pass(self, tmp_path):
        data = riff((b"fmt ", FMT_MONO_16K), (b"data", b"\x01\x00" * 100))
        with pytest.raises(FormatError, match="data chunk extends past end of file"):
            length_scan(tmp_path, data[:-10])   # the chunk still declares 200 bytes

    @pytest.mark.parametrize("kind", ["mono_pcm16", "stereo_pcm16",
                                      "float32", "float32_stereo"])
    def test_windows_match_decode_wav(self, tmp_path, kind):
        """Clips decoded into the reader's buffer, which is reused and
        regrown (long, shorter, longest), give the windows of a fresh
        decode_wav bit for bit; float32 stereo is the float64 channel mean."""
        rng = np.random.default_rng(3)
        channels = 2 if "stereo" in kind else 1
        records, expected = [], []
        for i, n in enumerate([5000, 4300, 5600]):
            x = 0.3 * rng.standard_normal(n * channels)
            if kind.startswith("float32"):
                data = float32_wav_bytes(x, 8000, channels)
                want = x.astype("<f4").astype(np.float64)
                if channels == 2:
                    want = want.reshape(-1, 2).mean(axis=1)
                assert np.array_equal(decode_wav(data).samples, want)
            else:
                ints = np.clip(np.round(x * 32768), -32768, 32767)
                data = stdlib_wav_bytes(ints, 8000, channels)
            path = tmp_path / f"c{i}.wav"
            path.write_bytes(data)
            records.append(SimpleNamespace(path=str(path)))
        cfg = features.PipelineConfig(n_mfcc=13, target_length=5600,
                                      frame_length=512, n_mels=26)
        assert audio_io.max_length(records) == 5600
        for r, clip in zip(records, audio_io.read_clips(records)):
            fresh = decode_wav(audio_io.read_file(r.path))
            assert np.array_equal(clip.samples, fresh.samples)
            assert np.array_equal(features.extract_window(clip, cfg).matrix,
                                  features.extract_window(fresh, cfg).matrix)


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


@pytest.mark.parametrize("n_channels", [1, 2])
def test_pcm16_scaling_is_exact(n_channels):
    """One-pass scaling gives astype(float64) / 32768 bit for bit, extremes
    included; stereo is the mean of the scaled channels."""
    ints = np.array([-32768, 32767, 0, 1, -1, 12345, -32767, 32766] * 3,
                    dtype=np.int16)
    clip = decode_wav(stdlib_wav_bytes(ints, 8000, n_channels))
    want = ints.astype(np.float64) / 32768.0
    if n_channels == 2:
        want = want.reshape(-1, 2).mean(axis=1)
    assert clip.samples.dtype == np.float64
    assert np.array_equal(clip.samples, want)
    if n_channels == 1:
        assert clip.samples[0] == -1.0 and clip.samples[1] == 32767 / 32768
