import numpy as np
import pytest

from emorec import audio_io, features, nn, streaming, svm
from emorec.errors import ConfigError
from emorec.streaming import StreamConfig, StreamingClassifier, stream_infer
from conftest import class_tone_clip, overfit_windows


@pytest.fixture(scope="module")
def trained_cnn():
    x, labels = overfit_windows()
    model = nn.build_emotion_cnn(seed=0)
    nn.train(model, x, labels, nn.TrainConfig(epochs=30, batch_size=8, seed=0))
    return model


@pytest.fixture(scope="module")
def stream_pipeline_cfg():
    return features.PipelineConfig(n_mfcc=13, target_length=4200,
                                   frame_length=512, n_mels=26)


def ten_second_clip(sample_rate=4000):
    return audio_io.synth_chirp(100, 1500, 10.0, sample_rate, 0.6)


class TestEventSchedule:
    def test_ten_second_file_fifteen_events(self, trained_cnn,
                                            stream_pipeline_cfg):
        cfg = StreamConfig(window_seconds=3.0, hop_seconds=0.5)
        events, summary = stream_infer(ten_second_clip(), trained_cnn,
                                       stream_pipeline_cfg, cfg)
        assert len(events) == 15
        assert events[0].t_end == pytest.approx(3.0)
        assert events[-1].t_end == pytest.approx(10.0)
        assert summary.n_events == 15

    def test_event_ordering_and_spacing(self, trained_cnn,
                                        stream_pipeline_cfg):
        cfg = StreamConfig(window_seconds=2.0, hop_seconds=0.25)
        events, _ = stream_infer(ten_second_clip(), trained_cnn,
                                 stream_pipeline_cfg, cfg)
        ends = [e.t_end for e in events]
        assert ends == sorted(ends)
        np.testing.assert_allclose(np.diff(ends), 0.25, atol=1e-9)
        for e in events:
            assert e.t_end - e.t_start == pytest.approx(2.0)

    def test_short_clip_no_events(self, trained_cnn, stream_pipeline_cfg):
        clip = audio_io.synth_tone(300, 1.0, 4000)
        events, _ = stream_infer(clip, trained_cnn, stream_pipeline_cfg,
                                 StreamConfig(3.0, 0.5))
        assert events == []


class TestDeterminism:
    def test_chunk_size_independence(self, trained_cnn, stream_pipeline_cfg):
        clip = ten_second_clip()
        cfg = StreamConfig(3.0, 0.5)
        small, _ = stream_infer(clip, trained_cnn, stream_pipeline_cfg, cfg,
                                chunk_size=64)
        large, _ = stream_infer(clip, trained_cnn, stream_pipeline_cfg, cfg,
                                chunk_size=4096)
        assert len(small) == len(large)
        for a, b in zip(small, large):
            assert a.t_start == b.t_start and a.t_end == b.t_end
            np.testing.assert_array_equal(a.probs, b.probs)
            assert a.label == b.label

    def test_repeat_run_identical_excluding_latency(self, trained_cnn,
                                                    stream_pipeline_cfg):
        clip = ten_second_clip()
        cfg = StreamConfig(3.0, 0.5)
        e1, _ = stream_infer(clip, trained_cnn, stream_pipeline_cfg, cfg)
        e2, _ = stream_infer(clip, trained_cnn, stream_pipeline_cfg, cfg)
        for a, b in zip(e1, e2):
            np.testing.assert_array_equal(a.probs, b.probs)
            assert (a.t_start, a.t_end, a.label) == (b.t_start, b.t_end, b.label)

    def test_silent_input_constant_probs(self, trained_cnn,
                                         stream_pipeline_cfg):
        clip = audio_io.AudioClip(np.full(40000, 0.0), 4000)
        events, _ = stream_infer(clip, trained_cnn, stream_pipeline_cfg,
                                 StreamConfig(3.0, 0.5))
        assert len(events) == 15
        for e in events[1:]:
            np.testing.assert_array_equal(e.probs, events[0].probs)


class TestEventContents:
    def test_probs_sum_to_one(self, trained_cnn, stream_pipeline_cfg):
        events, _ = stream_infer(ten_second_clip(), trained_cnn,
                                 stream_pipeline_cfg, StreamConfig(3.0, 0.5))
        for e in events:
            assert abs(e.probs.sum() - 1.0) < 1e-6
            assert e.label == int(np.argmax(e.probs))
            assert e.latency_ms >= 0.0

    def test_svm_stream_probs_sum_to_one(self, pipeline_cfg):
        clips = [class_tone_clip(c, seed=c * 5 + k) for c in range(2)
                 for k in range(6)]
        labels = np.repeat([0, 1], 6)
        windows = [features.extract_window(c, pipeline_cfg) for c in clips]
        X = np.stack([features.flatten(w) for w in windows])
        model = svm.train_multiclass(X, labels, svm.KernelSpec(C=10.0))
        events, _ = stream_infer(ten_second_clip(), model, pipeline_cfg,
                                 StreamConfig(3.0, 0.5))
        assert len(events) == 15
        for e in events:
            assert abs(e.probs.sum() - 1.0) < 1e-6

    def test_csv_format(self, trained_cnn, stream_pipeline_cfg):
        events, _ = stream_infer(ten_second_clip(), trained_cnn,
                                 stream_pipeline_cfg, StreamConfig(3.0, 0.5))
        text = streaming.events_csv(events)
        lines = text.strip().split("\n")
        assert lines[0] == ("t_start,t_end,p0,p1,p2,p3,p4,p5,p6,p7,"
                            "label,latency_ms")
        assert len(lines) == 16


class TestSummary:
    def test_rtf_and_percentiles_reported(self, trained_cnn,
                                          stream_pipeline_cfg):
        _, summary = stream_infer(ten_second_clip(), trained_cnn,
                                  stream_pipeline_cfg, StreamConfig(3.0, 0.5))
        assert summary.audio_seconds == pytest.approx(10.0)
        assert summary.processing_seconds > 0
        assert summary.latency_p50_ms <= summary.latency_p95_ms
        assert summary.latency_p95_ms <= summary.latency_max_ms
        text = summary.to_text()
        assert "RTF" in text and "p95" in text


class TestGuards:
    def test_mismatched_cnn_rejected(self, stream_pipeline_cfg):
        model = nn.build_emotion_cnn(n_mfcc=20, n_frames=26)
        with pytest.raises(ConfigError, match="coefficients"):
            StreamingClassifier(model, stream_pipeline_cfg,
                                StreamConfig(3.0, 0.5), 4000)

    def test_mismatched_svm_rejected(self, stream_pipeline_cfg):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 10))
        model = svm.train_multiclass(X, [0, 0, 0, 0, 1, 1, 1, 1],
                                     svm.KernelSpec(C=10.0))
        with pytest.raises(ConfigError, match="features"):
            StreamingClassifier(model, stream_pipeline_cfg,
                                StreamConfig(3.0, 0.5), 4000)

    def test_bad_stream_config(self):
        with pytest.raises(ConfigError):
            StreamConfig(window_seconds=1.0, hop_seconds=2.0)


class TestRingBuffer:
    def test_keeps_most_recent(self):
        rb = streaming._RingBuffer(5)
        rb.push(np.arange(3, dtype=float))
        np.testing.assert_array_equal(rb.window(), [0, 0, 0, 1, 2])
        rb.push(np.arange(3, 7, dtype=float))
        np.testing.assert_array_equal(rb.window(), [2, 3, 4, 5, 6])
        rb.push(np.arange(10, 22, dtype=float))  # longer than capacity
        np.testing.assert_array_equal(rb.window(), [17, 18, 19, 20, 21])
        assert rb.total == 19
