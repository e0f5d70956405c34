import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emorec import audio_io, dsp, features
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


def whole_clip_steps(clip, cfg):
    """z-score, truncate if over-long and pad the whole clip."""
    clip = features.normalize_loudness(clip)
    if len(clip) > cfg.target_length:
        clip = features.truncate_to_length(clip, cfg.target_length)
    return features.pad_to_length(clip, cfg.target_length)


def mfcc_window(clip, cfg):
    """The window of a padded clip framed by dsp.stft (through dsp.mfcc)."""
    if not np.any(clip.samples):
        return np.zeros((cfg.n_mfcc, features.N_FRAMES))
    w = dsp.mfcc(clip, cfg.n_mfcc, cfg.frame_length, cfg.hop_length,
                 n_mels=cfg.n_mels, f_min=cfg.f_min,
                 f_max=cfg.f_max).coeffs[:, :features.N_FRAMES]
    mu, sigma = w.mean(), w.std()
    return np.zeros_like(w) if sigma < 1e-12 else (w - mu) / sigma


def assert_same_window(clip, cfg):
    """extract_window, make_feature_window of the whole-clip steps and the
    dsp.mfcc window of them agree bit for bit."""
    fused = features.extract_window(clip, cfg).matrix
    padded = whole_clip_steps(clip, cfg)
    assert np.array_equal(fused, features.make_feature_window(padded, cfg).matrix)
    assert np.array_equal(fused, mfcc_window(padded, cfg))
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
        inverted = features.augment_invert(clip)
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
