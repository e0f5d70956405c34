import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import audio_io, features
from emorec.audio_io import AudioClip
from emorec.errors import ConfigError, FormatError


class TestNormalizeLoudness:
    def test_already_normalized(self):
        clip = AudioClip(np.array([1.0, -1.0, 1.0, -1.0]), 8000)
        out = features.normalize_loudness(clip)
        np.testing.assert_array_equal(out.samples, clip.samples)

    def test_constant_goes_to_zero(self):
        out = features.normalize_loudness(AudioClip(np.full(100, 0.5), 8000))
        assert np.all(out.samples == 0.0)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 500))
    @settings(max_examples=40, deadline=None)
    def test_zero_mean_unit_std(self, seed, n):
        rng = np.random.default_rng(seed)
        samples = rng.uniform(-1, 1, n)
        if samples.std() < 1e-6:
            samples[0] += 0.5
        out = features.normalize_loudness(AudioClip(samples, 8000))
        assert abs(out.samples.mean()) < 1e-9
        assert abs(out.samples.std() - 1.0) < 1e-9


class TestPadTruncate:
    def test_identity_when_at_target(self):
        clip = AudioClip(np.arange(10, dtype=float), 8000)
        np.testing.assert_array_equal(
            features.pad_to_length(clip, 10).samples, clip.samples)

    def test_even_split(self):
        clip = AudioClip(np.ones(8), 8000)
        out = features.pad_to_length(clip, 12)
        np.testing.assert_array_equal(out.samples[:2], 0)
        np.testing.assert_array_equal(out.samples[2:10], 1)
        np.testing.assert_array_equal(out.samples[10:], 0)

    def test_odd_split_head_heavy(self):
        clip = AudioClip(np.ones(8), 8000)
        out = features.pad_to_length(clip, 13)
        assert np.all(out.samples[:3] == 0)
        assert np.all(out.samples[3:11] == 1)
        assert np.all(out.samples[11:] == 0)

    def test_overlong_rejected(self):
        with pytest.raises(ValueError, match="truncate explicitly"):
            features.pad_to_length(AudioClip(np.ones(20), 8000), 10)

    def test_truncate_inverts_pad(self):
        clip = AudioClip(np.arange(1, 9, dtype=float), 8000)
        for target in (9, 12, 13):
            padded = features.pad_to_length(clip, target)
            back = features.truncate_to_length(padded, 8)
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

    def test_invert(self):
        clip = AudioClip(np.array([0.5, -0.25]), 8000)
        np.testing.assert_array_equal(
            features.augment_invert(clip).samples, [-0.5, 0.25])

    def test_invert_involution(self):
        rng = np.random.default_rng(1)
        clip = AudioClip(rng.uniform(-1, 1, 50), 8000)
        twice = features.augment_invert(features.augment_invert(clip))
        np.testing.assert_array_equal(twice.samples, clip.samples)


class TestPipelineConfig:
    def test_hop_derivation_yields_26_frames(self, pipeline_cfg):
        assert pipeline_cfg.hop_length == (4200 - 512) // 25
        n_frames = 1 + (4200 - 512) // pipeline_cfg.hop_length
        assert n_frames >= features.N_FRAMES

    def test_too_short_target_rejected(self):
        with pytest.raises(ConfigError):
            features.PipelineConfig(target_length=512, frame_length=512)

    def test_n_mels_must_cover_n_mfcc(self):
        with pytest.raises(ConfigError):
            features.PipelineConfig(n_mfcc=30, n_mels=26, target_length=4200,
                                    frame_length=512)

    def test_dict_roundtrip(self, pipeline_cfg):
        again = features.PipelineConfig.from_dict(pipeline_cfg.to_dict())
        assert again == pipeline_cfg

    def test_dict_from_older_containers(self, pipeline_cfg):
        # older containers carry an always-empty augmentations list
        old = dict(pipeline_cfg.to_dict(), augmentations=[])
        assert features.PipelineConfig.from_dict(old) == pipeline_cfg
        with pytest.raises(ConfigError):
            features.PipelineConfig.from_dict(dict(old, augmentations=["invert"]))


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

    def test_silent_clip_all_zero(self, pipeline_cfg):
        clip = AudioClip(np.full(4200, 0.0), 4000)
        w = features.make_feature_window(clip, pipeline_cfg)
        assert np.all(w.matrix == 0.0)

    def test_wrong_length_rejected(self, pipeline_cfg):
        with pytest.raises(ValueError, match="not padded"):
            features.make_feature_window(AudioClip(np.ones(100), 4000),
                                         pipeline_cfg)

    def test_deterministic(self, pipeline_cfg):
        clip = audio_io.synth_chirp(80, 1200, 0.9, 4000)
        w1 = features.extract_window(clip, pipeline_cfg)
        w2 = features.extract_window(clip, pipeline_cfg)
        np.testing.assert_array_equal(w1.matrix, w2.matrix)

    def test_polarity_flip_bit_identical(self, pipeline_cfg):
        clip = audio_io.synth_chirp(90, 1700, 1.02, 4000, 0.7)
        w1 = features.extract_window(clip, pipeline_cfg)
        w2 = features.extract_window(features.augment_invert(clip), pipeline_cfg)
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
        w = features.FeatureWindow(m, 13, standardized=False)
        assert sorted(features.flatten(w)) == sorted(m.reshape(-1))


class TestFeatureCache:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        recs = [(f"id{k}", k % 8, rng.normal(size=(13, 26)).astype(np.float32)
                 .astype(np.float64)) for k in range(5)]
        path = tmp_path / "cache.bin"
        features.save_feature_cache(path, recs)
        back = features.load_feature_cache(path)
        assert len(back) == 5
        for (i1, l1, m1), (i2, l2, m2) in zip(recs, back):
            assert (i1, l1) == (i2, l2)
            np.testing.assert_array_equal(m1, m2)

    def test_header_layout(self, tmp_path):
        path = tmp_path / "cache.bin"
        features.save_feature_cache(path, [])
        data = path.read_bytes()
        assert len(data) == 16
        assert data[:8] == b"EMOFEATC"

    def test_truncated_at_every_offset_rejected(self, tmp_path):
        path = tmp_path / "cache.bin"
        features.save_feature_cache(path, [("a01", 3, np.ones((2, 3))),
                                           ("b2", 5, np.zeros((1, 2)))])
        data = path.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            with pytest.raises(FormatError):
                features.load_feature_cache(cut)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTACACH" + b"\x00" * 8)
        with pytest.raises(FormatError):
            features.load_feature_cache(path)
