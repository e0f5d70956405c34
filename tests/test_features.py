import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import audio_io, dsp, features
from emorec.audio_io import AudioClip
from emorec.errors import ConfigError, FormatError
import oracles
from conftest import rewrite_header


class TestNormalizeLoudness:
    def test_already_normalized(self):
        clip = AudioClip(np.array([1.0, -1.0, 1.0, -1.0]), 8000)
        out = oracles.normalize_loudness(clip)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_constant_goes_to_zero(self):
        out = oracles.normalize_loudness(AudioClip(np.full(100, 0.5), 8000))
        assert np.all(out.samples == 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 500))
    @settings(max_examples=40, deadline=None)
    def test_zero_mean_unit_std(self, seed, n):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1, 1, n)
        if samples.std() < 1e-6:
            samples[0] += 0.5
        out = oracles.normalize_loudness(AudioClip(samples, 8000))
        assert abs(out.samples.mean()) < 1e-9
        assert abs(out.samples.std() - 1.0) < 1e-9


class TestPadTruncate:
    def test_identity_when_at_target(self):
        clip = AudioClip(np.arange(10, dtype=float), 8000)
        np.testing.assert_array_equal(
            oracles.pad_to_length(clip, 10).samples, clip.samples)

    def test_even_split(self):
        clip = AudioClip(np.ones(8), 8000)
        out = oracles.pad_to_length(clip, 12)
        np.testing.assert_array_equal(out.samples[:2], 0)
        np.testing.assert_array_equal(out.samples[2:10], 1)
        np.testing.assert_array_equal(out.samples[10:], 0)

    def test_odd_split_head_heavy(self):
        clip = AudioClip(np.ones(8), 8000)
        out = oracles.pad_to_length(clip, 13)
        assert np.all(out.samples[:3] == 0)
        assert np.all(out.samples[3:11] == 1)
        assert np.all(out.samples[11:] == 0)

    def test_overlong_rejected(self):
        with pytest.raises(ValueError, match="truncate explicitly"):
            oracles.pad_to_length(AudioClip(np.ones(20), 8000), 10)

    def test_truncate_inverts_pad(self):
        clip = AudioClip(np.arange(1, 9, dtype=float), 8000)
        for target in (9, 12, 13):
            padded = oracles.pad_to_length(clip, target)
            back = oracles.truncate_to_length(padded, 8)
            np.testing.assert_array_equal(back.samples, clip.samples)


class TestAugmentations:
    def test_reverse(self):
        clip = AudioClip(np.array([1.0, 2.0, 3.0]) / 10, 8000)
        out = features.augment_reverse(clip)
        np.testing.assert_array_equal(out.samples, [0.3, 0.2, 0.1])

    def test_reverse_involution(self):
        rng = np.random.default_rng(0)
        clip = AudioClip(rng.uniform(-1, 1, 77), 8000)
        twice = features.augment_reverse(features.augment_reverse(clip))
        np.testing.assert_array_equal(twice.samples, clip.samples)

    def test_palindrome_unchanged(self):
        clip = AudioClip(np.array([0.1, 0.2, 0.1]), 8000)
        np.testing.assert_array_equal(
            features.augment_reverse(clip).samples, clip.samples)


class TestPipelineConfig:
    def test_hop_derivation_yields_26_frames(self, pipeline_cfg):
        assert pipeline_cfg.hop_length == (4200 - 512) // 25
        n_frames = 1 + (4200 - 512) // pipeline_cfg.hop_length
        assert n_frames >= features.N_FRAMES

    def test_too_short_target_rejected(self):
        with pytest.raises(ConfigError):
            features.PipelineConfig(target_length=512, frame_length=512)

    @pytest.mark.parametrize("frame_length", [1, 0, -5])
    def test_frame_length_below_2_rejected(self, frame_length):
        with pytest.raises(ConfigError, match=rf"frame_length {frame_length} outside \[2,"):
            features.PipelineConfig(target_length=4200, frame_length=frame_length)

    def test_n_mels_must_cover_n_mfcc(self):
        with pytest.raises(ConfigError):
            features.PipelineConfig(n_mfcc=30, n_mels=26, target_length=4200,
                                    frame_length=512)

    @pytest.mark.parametrize("n_mfcc,n_mels", [(1, 26), (13, 26), (26, 26),
                                               (40, 40)])
    def test_n_mels_defaults_to_cover_n_mfcc(self, n_mfcc, n_mels):
        cfg = features.PipelineConfig(n_mfcc=n_mfcc, target_length=4200,
                                      frame_length=512)
        assert cfg.n_mels == cfg.to_dict()["n_mels"] == n_mels

    @pytest.mark.parametrize("band", [{"f_min": 0.0}, {"f_max": None}])
    def test_band_of_older_containers_refused(self, tmp_path, pipeline_cfg,
                                              band):
        # the filterbank spans [0, Nyquist]; records that still name the band
        # come from before it was fixed and are refused by field name
        path = tmp_path / "cache.bin"
        tiny_cache(path, {"pipeline": dict(pipeline_cfg.to_dict(), **band),
                          "sample_rate": 4000})
        [field] = band
        for read in (features.load_feature_cache, features.cache_pipeline):
            with pytest.raises(FormatError, match="unknown field "
                               f"pipeline_config.pipeline.{field}"):
                read(path)

    def test_dict_roundtrip(self, pipeline_cfg):
        again = features.PipelineConfig.from_dict(pipeline_cfg.to_dict())
        assert again == pipeline_cfg

    def test_dict_from_older_containers(self, tmp_path, pipeline_cfg):
        # older containers carried an augmentations list; it is refused by name
        path = tmp_path / "cache.bin"
        for augmentations in ([], ["invert"]):
            tiny_cache(path, {"pipeline": dict(pipeline_cfg.to_dict(),
                                               augmentations=augmentations),
                              "sample_rate": 4000})
            for read in (features.load_feature_cache, features.cache_pipeline):
                with pytest.raises(FormatError, match="unknown field "
                                   "pipeline_config.pipeline.augmentations"):
                    read(path)


class TestFeatureWindow:
    def test_shape_13x26(self, pipeline_cfg):
        clip = audio_io.synth_tone(440, 1.0, 4000)
        w = features.extract_window(clip, pipeline_cfg)
        assert w.matrix.shape == (13, features.N_FRAMES)

    def test_standardized(self, pipeline_cfg):
        clip = audio_io.synth_chirp(100, 1500, 1.0, 4000)
        w = features.extract_window(clip, pipeline_cfg)
        assert abs(w.matrix.mean()) < 1e-6
        assert abs(w.matrix.std() - 1.0) < 1e-6

    def test_deterministic(self, pipeline_cfg):
        clip = audio_io.synth_chirp(80, 1200, 0.9, 4000)
        w1 = features.extract_window(clip, pipeline_cfg)
        w2 = features.extract_window(clip, pipeline_cfg)
        np.testing.assert_array_equal(w1.matrix, w2.matrix)

    def test_polarity_flip_bit_identical(self, pipeline_cfg):
        clip = audio_io.synth_chirp(90, 1700, 1.02, 4000, 0.7)
        w1 = features.extract_window(clip, pipeline_cfg)
        w2 = features.extract_window(AudioClip(-clip.samples, clip.sample_rate),
                                     pipeline_cfg)
        np.testing.assert_array_equal(w1.matrix, w2.matrix)

    def test_time_reversal_differs(self, pipeline_cfg):
        clip = audio_io.synth_chirp(90, 1700, 1.02, 4000, 0.7)
        w1 = features.extract_window(clip, pipeline_cfg)
        w2 = features.extract_window(features.augment_reverse(clip), pipeline_cfg)
        assert not np.array_equal(w1.matrix, w2.matrix)

    def test_leading_silence_keeps_shape(self, pipeline_cfg):
        clip = audio_io.synth_tone(300, 0.9, 4000)
        shifted = AudioClip(np.concatenate([np.zeros(150), clip.samples]), 4000)
        w1 = features.extract_window(clip, pipeline_cfg)
        w2 = features.extract_window(shifted, pipeline_cfg)
        assert w1.matrix.shape == w2.matrix.shape

    def test_overlong_clip_truncated(self, pipeline_cfg):
        clip = audio_io.synth_tone(300, 1.5, 4000)  # 6000 > 4200
        w = features.extract_window(clip, pipeline_cfg)
        assert w.matrix.shape == (13, 26)


def whole_clip_steps(clip, cfg):
    """z-score, truncate if over-long and pad the whole clip."""
    clip = oracles.normalize_loudness(clip)
    if len(clip) > cfg.target_length:
        clip = oracles.truncate_to_length(clip, cfg.target_length)
    return oracles.pad_to_length(clip, cfg.target_length)


def mfcc_window(clip, cfg):
    """The window of a padded clip framed by dsp.stft (through dsp.mfcc)."""
    if not np.any(clip.samples):
        return np.zeros((cfg.n_mfcc, features.N_FRAMES))
    w = dsp.mfcc(clip, cfg.n_mfcc, cfg.frame_length, cfg.hop_length,
                 n_mels=cfg.n_mels).coeffs[:, :features.N_FRAMES]
    mu, sigma = w.mean(), w.std()
    return np.zeros_like(w) if sigma < 1e-12 else (w - mu) / sigma


def assert_same_window(clip, cfg):
    """extract_window and the dsp.mfcc window of the whole-clip steps agree
    bit for bit."""
    fused = features.extract_window(clip, cfg).matrix
    assert np.array_equal(fused, mfcc_window(whole_clip_steps(clip, cfg), cfg))
    return fused


class TestFusedEqualsComposed:
    """extract_window frames the raw clip; it must match the whole-clip
    steps bit for bit."""

    @pytest.mark.parametrize("delta", [-101, -100, 0, 101, 100])
    def test_pad_exact_and_truncate(self, pipeline_cfg, delta):
        rng = np.random.default_rng(500 + delta)
        n = pipeline_cfg.target_length + delta
        tone = audio_io.synth_tone(310, n / 4000, 4000).samples[:n]
        clip = AudioClip(0.3 * tone + 0.05 * rng.normal(size=n), 4000)
        assert len(clip) == n
        assert np.any(assert_same_window(clip, pipeline_cfg))

    @pytest.mark.parametrize("value", [0.4, 0.0])
    def test_constant_and_zero_clips(self, pipeline_cfg, value):
        clip = AudioClip(np.full(3000, value), 4000)
        assert not np.any(assert_same_window(clip, pipeline_cfg))

    def test_sound_only_after_last_frame(self, pipeline_cfg):
        hop, fl = pipeline_cfg.hop_length, pipeline_cfg.frame_length
        last_end = (features.N_FRAMES - 1) * hop + fl
        tail = pipeline_cfg.target_length - last_end
        assert 0 < tail < hop
        samples = np.zeros(pipeline_cfg.target_length)
        samples[last_end : last_end + tail // 2 * 2] = [0.5, -0.5] * (tail // 2)
        # zero mean, so the z-scored frames are all zeros; the clip is not silent
        assert np.any(assert_same_window(AudioClip(samples, 4000), pipeline_cfg))

    def test_sound_only_in_truncated_excess(self, pipeline_cfg):
        samples = np.zeros(pipeline_cfg.target_length + 8)
        samples[:4] = samples[-4:] = [0.5, -0.5, 0.5, -0.5]
        # truncation drops both ends, so what is kept is silence
        assert not np.any(assert_same_window(AudioClip(samples, 4000), pipeline_cfg))

    def test_polarity_inverted(self, pipeline_cfg):
        clip = audio_io.synth_chirp(90, 1700, 0.9, 4000, 0.7)
        inverted = AudioClip(-clip.samples, clip.sample_rate)
        assert np.array_equal(assert_same_window(inverted, pipeline_cfg),
                              features.extract_window(clip, pipeline_cfg).matrix)

    @pytest.mark.parametrize("frame_length,extra", [(512, 40), (2048, 49)])
    def test_hop_below_25_keeps_every_stft_frame(self, frame_length, extra):
        cfg = features.PipelineConfig(n_mfcc=13, target_length=frame_length + extra,
                                      frame_length=frame_length)
        assert 1 + extra // cfg.hop_length > features.N_FRAMES
        rng = np.random.default_rng(extra)
        assert_same_window(AudioClip(rng.normal(size=cfg.target_length), 16000), cfg)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([512, 1024, 2048]),
           st.integers(25, 20000), st.floats(0.05, 2.0))
    @settings(max_examples=40, deadline=None)
    def test_random_lengths(self, seed, frame_length, extra, scale):
        rng = np.random.default_rng(seed)
        target = frame_length + extra
        cfg = features.PipelineConfig(n_mfcc=13, target_length=target,
                                      frame_length=frame_length)
        n = int(rng.integers(1, 2 * target))
        assert_same_window(AudioClip(scale * rng.normal(size=n), 16000), cfg)


class TestClipStats:
    @pytest.mark.parametrize("n", [1, 7, 128, 129, 16384, 16385, 16392,
                                   100_003, 254_400, 1_000_001])
    def test_sum_of_squares_gives_std_bit_for_bit(self, n):
        x = np.random.default_rng(n).normal(size=n) * 0.3 + 0.07
        mu = x.mean()
        for piece in (129, 1000, 1 << 14):
            buf = np.empty(min(n, piece))
            assert np.sqrt(features._sum_sq_dev(x, mu, buf) / n) == x.std()


class TestPaddingFramesSkipped:
    """Frames that hold no clip sample are not transformed; their +0.0
    magnitudes are what transforming them gives, so the window is still
    dsp.mfcc's over the whole padded clip, bit for bit."""

    @pytest.mark.parametrize("n", [3000, 3001, 512, 2])
    def test_head_and_tail_padding(self, n, monkeypatch):
        cfg = features.PipelineConfig(n_mfcc=13, target_length=512 + 25 * 400,
                                      frame_length=512)
        head = (cfg.target_length - n + 1) // 2
        starts = [r * cfg.hop_length for r in range(features.N_FRAMES)]
        live = [s for s in starts if s < head + n and head < s + 512]
        assert 0 < len(live) < features.N_FRAMES
        assert live[0] > 0 and live[-1] < starts[-1]   # dead head and tail
        rows = []
        frame_magnitudes = features.frame_magnitudes

        def spy(frames, frame_length):
            rows.append(len(frames))
            return frame_magnitudes(frames, frame_length)

        monkeypatch.setattr(features, "frame_magnitudes", spy)
        rng = np.random.default_rng(n)
        clip = AudioClip(0.2 * rng.normal(size=n) + 0.01, 16000)
        fused = features.extract_window(clip, cfg).matrix
        assert rows == [len(live)]
        monkeypatch.undo()
        assert np.array_equal(fused, mfcc_window(whole_clip_steps(clip, cfg), cfg))
        assert np.any(fused)

    def test_clip_between_frames_transforms_nothing(self, monkeypatch):
        cfg = features.PipelineConfig(n_mfcc=13, target_length=512 + 25 * 1000,
                                      frame_length=512)
        # padded to [12706, 12806), between the frames at 12000 and 13000
        clip = AudioClip(np.random.default_rng(5).normal(size=100), 16000)
        calls = []
        monkeypatch.setattr(features, "frame_magnitudes",
                            lambda *args: calls.append(args))
        window = features.extract_window(clip, cfg).matrix
        assert calls == []
        monkeypatch.undo()
        assert np.array_equal(window, mfcc_window(whole_clip_steps(clip, cfg), cfg))


SWEEP_POINTS = (10, 13, 20, 40, 120)   # the first three share n_mels 26
TARGET = 2048 + 25 * 300


class TestExtractClip:
    """extract_clip frames and transforms a clip once for several configs;
    each window must equal that config's window alone, bit for bit."""

    @staticmethod
    def configs():
        return [features.PipelineConfig(n_mfcc=p, target_length=TARGET,
                                        frame_length=2048, n_mels=max(26, p))
                for p in SWEEP_POINTS]

    @pytest.mark.parametrize("n,kind", [(TARGET + 1001, "sound"),   # over-long
                                        (TARGET - 778, "sound"),    # even pad
                                        (TARGET - 101, "sound"),    # odd pad
                                        (TARGET - 101, "constant"),
                                        (TARGET + 1001, "zeros"),
                                        (TARGET + 8, "cut_away")])
    def test_each_window_equals_extract_window(self, n, kind):
        samples = np.zeros(n)
        if kind == "sound":
            rng = np.random.default_rng(n)
            tone = audio_io.synth_tone(310, n / 16000, 16000).samples[:n]
            samples = 0.3 * tone + 0.05 * rng.normal(size=n)
        elif kind == "constant":
            samples[:] = 0.4
        elif kind == "cut_away":   # sound only where truncation cuts
            samples[:4] = samples[-4:] = [0.5, -0.5, 0.5, -0.5]
        clip = AudioClip(samples, 16000)
        cfgs = self.configs()
        windows = features.extract_clip(clip, cfgs)
        assert [w.n_mfcc for w in windows] == list(SWEEP_POINTS)
        for cfg, w in zip(cfgs, windows):
            assert np.array_equal(w.matrix, assert_same_window(clip, cfg))
            assert np.any(w.matrix) == (kind == "sound")

    @pytest.mark.parametrize("other", [
        {"target_length": TARGET + 1}, {"frame_length": 1024}])
    def test_configs_must_share_frames_and_band(self, other):
        cfgs = self.configs()
        cfgs[-1] = replace(cfgs[-1], **other)
        clip = audio_io.synth_tone(310, 1.0, 16000)
        with pytest.raises(ConfigError, match="must share"):
            features.extract_clip(clip, cfgs)
        with pytest.raises(ConfigError, match="must share"):
            features.extract_clip(clip, [])


class TestFlatten:
    def test_length(self, pipeline_cfg):
        clip = audio_io.synth_tone(440, 1.0, 4000)
        w = features.extract_window(clip, pipeline_cfg)
        assert features.flatten(w).shape == (13 * 26,)

    def test_row_major_index_map(self):
        m = np.arange(13 * 26, dtype=float).reshape(13, 26)
        m = (m - m.mean()) / m.std()
        w = features.FeatureWindow(m, 13)
        flat = features.flatten(w)
        for i, j in [(0, 0), (3, 7), (12, 25), (5, 0)]:
            assert flat[i * 26 + j] == m[i, j]

    def test_preserves_multiset(self):
        rng = np.random.default_rng(2)
        m = rng.normal(size=(13, 26))
        w = features.FeatureWindow(m, 13)
        assert sorted(features.flatten(w)) == sorted(m.reshape(-1))


def tiny_cache(path, pipeline_config=None):
    rng = np.random.default_rng(3)
    recs = [(f"id{k}", k % 8, rng.normal(size=(2, 26)).astype(np.float32)
             .astype(np.float64)) for k in range(3)]
    features.save_feature_cache(path, recs, pipeline_config)
    return recs


class TestFeatureCache:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "cache.bin"
        cfg = features.PipelineConfig(n_mfcc=2, target_length=4200,
                                      frame_length=512)
        record = {"pipeline": cfg.to_dict(), "sample_rate": 4000}
        recs = tiny_cache(path, record)
        back = features.load_feature_cache(path)
        assert len(back) == 3
        for (i1, l1, m1), (i2, l2, m2) in zip(recs, back):
            assert (i1, l1) == (i2, l2)
            np.testing.assert_array_equal(m1, m2)
        assert features.cache_pipeline(path) == record

    def test_header_layout(self, tmp_path):
        # the models' container layout; an empty cache round-trips
        path = tmp_path / "cache.bin"
        features.save_feature_cache(path, [])
        data = path.read_bytes()
        assert data[:8] == b"EMOFEATC"
        version, blob_len = struct.unpack_from("<II", data, 8)
        assert version == 2 and len(data) == 16 + blob_len
        assert json.loads(data[16:]) == {"pipeline_config": None, "ids": [],
                                         "labels": [], "shape": [0, 0, 26]}
        assert features.load_feature_cache(path) == []

    def test_version_1_rejected(self, tmp_path):
        # the old 16-byte header: magic, u32 version 1, u32 record count
        path = tmp_path / "cache.bin"
        path.write_bytes(b"EMOFEATC" + struct.pack("<II", 1, 0))
        with pytest.raises(FormatError, match="version 1, expected 2"):
            features.load_feature_cache(path)

    @pytest.mark.parametrize("fields", [
        {"ids": ["id0", "id1"]}, {"labels": [0, 1]}, {"shape": [2, 2, 26]},
        {"shape": [3, 2]}, {"shape": [3, 2, 26.0]}, {"shape": [3.0, 2, 26]},
        {"shape": [3, -2, 26]}, {"shape": [3, 4, 13]}, {"ids": "abc"},
        {"ids": [0, 1, 2]}, {"labels": [0, 1, 8]}, {"labels": [0, 1, -1]},
        {"labels": [0, 1, 2.0]}, {"labels": [0, 1, "2"]}, {"shape": None},
        {"ids": None}])
    def test_header_disagreeing_with_tensor_rejected(self, tmp_path, fields):
        # [3, 4, 13]: as many bytes as the 3 x 2 x 26 tensor, but 13 wide
        path = tmp_path / "cache.bin"
        tiny_cache(path)
        rewrite_header(path, **fields)
        with pytest.raises(FormatError, match="header needs"):
            features.load_feature_cache(path)

    @pytest.mark.parametrize("blob", [b"[]", b"{}", b'"ids"'])
    def test_header_without_fields_rejected(self, tmp_path, blob):
        path = tmp_path / "cache.bin"
        tiny_cache(path)
        data = path.read_bytes()
        blob_len = struct.unpack_from("<I", data, 12)[0]
        path.write_bytes(data[:12] + struct.pack("<I", len(blob)) + blob
                         + data[16 + blob_len:])
        with pytest.raises(FormatError, match="header needs"):
            features.load_feature_cache(path)

    def test_truncated_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        tiny_cache(path)
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(FormatError):
                features.load_feature_cache(cut)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        tiny_cache(path)
        path.write_bytes(path.read_bytes() + bytes(4))
        with pytest.raises(FormatError, match="4 trailing bytes"):
            features.load_feature_cache(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACACH" + b"\x00" * 8)
        with pytest.raises(FormatError):
            features.load_feature_cache(path)
