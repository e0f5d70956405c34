import tracemalloc

import numpy as np
import pytest

from emorec import audio_io, features, nn, streaming, svm
from emorec.errors import ConfigError, DataError
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

    @pytest.mark.parametrize("window", [0.7, 2.99999])
    def test_t_start_from_sample_counts(self, trained_cnn,
                                        stream_pipeline_cfg, window):
        # the window classified is round(window * sr) samples long, so at
        # 4 kHz and a 2,000-sample hop every start is a multiple of 0.5 s;
        # end - window_seconds gave 1.7500000000000002 and 1e-05
        events, _ = stream_infer(ten_second_clip(), trained_cnn,
                                 stream_pipeline_cfg, StreamConfig(window, 0.5))
        assert [e.t_start for e in events] == [0.5 * k for k in range(len(events))]
        assert {round((e.t_end - e.t_start) * 4000) for e in events} == {
            round(window * 4000)}

    def test_short_clip_no_events(self, trained_cnn, stream_pipeline_cfg):
        clip = audio_io.synth_tone(300, 1.0, 4000)
        events, _ = stream_infer(clip, trained_cnn, stream_pipeline_cfg,
                                 StreamConfig(3.0, 0.5))
        assert events == []

    def test_window_longer_than_clip_builds_no_ring(self, trained_cnn,
                                                    stream_pipeline_cfg):
        # a 60 s window's ring is 2 x 60 s x 48 kHz float64 = 46 MB
        clip = audio_io.synth_tone(300, 1.0, 48000)
        cfg = StreamConfig(streaming.MAX_WINDOW_SECONDS, 0.5)
        tracemalloc.start()
        try:
            events, summary = stream_infer(clip, trained_cnn,
                                           stream_pipeline_cfg, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert events == [] and peak < 2 << 20
        assert (summary.n_events, summary.audio_seconds) == (0, 1.0)
        # the model and pipeline are checked first, as for any clip
        with pytest.raises(ConfigError, match="coefficients"):
            stream_infer(clip, nn.build_emotion_cnn(n_mfcc=20, n_frames=26),
                         stream_pipeline_cfg, cfg)


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


class _Uniform:
    """A 13 x 26 model whose every window scores 1/8 per class."""

    window_size = 13 * 26

    def probabilities(self, windows):
        return np.full((len(windows), 8), 1 / 8)


def windows_and_stats(monkeypatch, samples, rate, window, hop):
    """Each event's window, the (mean, std) the stream gave it, and the
    feature window built from them."""
    seen = []
    extract = features.extract_window

    def spy(clip, cfg, stats=None):
        out = extract(clip, cfg, stats)
        seen.append((clip.samples.copy(), stats, out.matrix))
        return out

    monkeypatch.setattr(features, "extract_window", spy)
    cfg = features.PipelineConfig(target_length=round(window * rate),
                                  frame_length=256)
    stream_infer(audio_io.AudioClip(samples, rate), _Uniform(), cfg,
                 StreamConfig(window, hop))
    return seen


class TestSegmentStatistics:
    @pytest.mark.parametrize("rate,window,hop,offset", [
        (48000, 3.0, 0.5, 0.0),     # whole hops, the benchmark's geometry
        (4000, 0.7, 0.15, 0.0),     # 2,800 samples are not whole 600s
        (4000, 0.7, 0.15, 0.7),     # DC offset: std 1e-3 under a 0.7 mean
        (48000, 3.0, 0.5, 0.7)])
    def test_equal_to_whole_window_mean_and_std(self, monkeypatch, rate,
                                                window, hop, offset):
        noise = np.random.default_rng(3).normal(size=round(6.1 * rate))
        samples = offset + (1e-3 if offset else 1.0) * noise
        seen = windows_and_stats(monkeypatch, samples, rate, window, hop)
        assert len(seen) == int((6.1 - window) / hop + 1e-9) + 1
        for x, (mu, sigma), _ in seen:
            assert len(x) == round(window * rate)
            assert mu == pytest.approx(x.mean(), rel=1e-13)
            assert sigma == pytest.approx(x.std(), rel=1e-13)

    def test_constant_stream_gives_the_silent_window(self, monkeypatch):
        seen = windows_and_stats(monkeypatch, np.full(20000, 0.7), 4000,
                                 0.7, 0.15)
        assert len(seen) == 29
        for _, (mu, sigma), matrix in seen:
            assert mu == pytest.approx(0.7, rel=1e-15) and sigma < 1e-12
            assert not matrix.any()

    def test_events_identical_for_any_chunking(self, trained_cnn,
                                               stream_pipeline_cfg):
        # 0.7 s is not a whole number of 0.15 s hops: the cuts at
        # 2,800 + k * 600 samples fall inside hops
        clip = ten_second_clip()
        cfg = StreamConfig(0.7, 0.15)
        runs = [stream_infer(clip, trained_cnn, stream_pipeline_cfg, cfg,
                             chunk_size=size)[0]
                for size in (1, 7, 4096, len(clip))]
        assert len(runs[0]) == 63
        for events in runs[1:]:
            assert streaming.events_csv(events) == streaming.events_csv(runs[0])


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

    def test_svm_without_a_class_labels_by_class_code(self, pipeline_cfg):
        # a model that never saw calm (1), as one trained on TESS: a happy (2)
        # tone streams as happy, not as the model's second column
        clips = [class_tone_clip(c, seed=c * 5 + k) for c in (0, 2)
                 for k in range(6)]
        X = np.stack([features.flatten(features.extract_window(c, pipeline_cfg))
                      for c in clips])
        model = svm.train_multiclass(X, np.repeat([0, 2], 6),
                                     svm.KernelSpec(kind="linear"))
        events, _ = stream_infer(class_tone_clip(2, seed=99, duration=3.0),
                                 model, pipeline_cfg, StreamConfig(1.0, 0.5))
        assert len(events) == 5
        for e in events:
            assert e.label == 2 and e.probs[1] == 0.0
        assert streaming.events_csv(events).startswith(
            "t_start,t_end,p0,p1,p2,p3,p4,p5,p6,p7,label\n")

    def test_csv_format(self, trained_cnn, stream_pipeline_cfg):
        events, _ = stream_infer(ten_second_clip(), trained_cnn,
                                 stream_pipeline_cfg, StreamConfig(3.0, 0.5))
        text = streaming.events_csv(events)
        lines = text.strip().split("\n")
        assert lines[0] == "t_start,t_end,p0,p1,p2,p3,p4,p5,p6,p7,label"
        assert len(lines) == 16
        latency = streaming.latency_csv(events).strip().split("\n")
        assert latency[0] == "t_end,latency_ms,cpu_ms" and len(latency) == 16
        assert [float(line.split(",")[0]) for line in latency[1:]] == \
            [e.t_end for e in events]

    def test_csv_depends_only_on_audio_and_model(self, trained_cnn,
                                                 stream_pipeline_cfg):
        # no wall-clock column: two runs give the same text
        runs = [streaming.events_csv(stream_infer(
            ten_second_clip(), trained_cnn, stream_pipeline_cfg,
            StreamConfig(3.0, 0.5))[0]) for _ in range(2)]
        assert runs[0] == runs[1]


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_chunk_rejected_before_ring(self, trained_cnn,
                                                   stream_pipeline_cfg, bad):
        """A rejected chunk changes nothing: the events equal those of a run
        that never saw it."""
        samples = ten_second_clip().samples
        cfg = StreamConfig(3.0, 0.5)
        clean = StreamingClassifier(trained_cnn, stream_pipeline_cfg, cfg, 4000)
        hit = StreamingClassifier(trained_cnn, stream_pipeline_cfg, cfg, 4000)
        want, got = [], []
        for k, pos in enumerate(range(0, len(samples), 1000)):
            chunk = samples[pos:pos + 1000]
            want += clean.push(chunk)
            if k == 14:   # mid-stream, with the ring full
                poisoned = chunk.copy()
                poisoned[500] = bad
                with pytest.raises(DataError, match="NaN or infinite"):
                    hit.push(poisoned)
            got += hit.push(chunk)
        assert len(got) == len(want) == 15
        for a, b in zip(got, want):
            assert (a.t_start, a.t_end, a.label) == (b.t_start, b.t_end, b.label)
            np.testing.assert_array_equal(a.probs, b.probs)

    def test_bad_stream_config(self):
        with pytest.raises(ConfigError):
            StreamConfig(window_seconds=1.0, hop_seconds=2.0)

    @pytest.mark.parametrize("window, hop, field", [
        (float("inf"), 0.5, "window_seconds"),
        (float("nan"), 0.5, "window_seconds"),
        (3.0, float("inf"), "hop_seconds"),
        (float("inf"), float("inf"), "window_seconds")])
    def test_non_finite_window_or_hop_rejected(self, window, hop, field):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            StreamConfig(window_seconds=window, hop_seconds=hop)

    def test_window_above_limit_refused_before_any_buffer(
            self, trained_cnn, stream_pipeline_cfg):
        # a 1e9 s window's ring would be 58.2 TiB at 4 kHz
        clip = ten_second_clip()
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=r"window_seconds 1e\+09 is "
                               "above the 60 s limit"):
                stream_infer(clip, trained_cnn, stream_pipeline_cfg,
                             StreamConfig(1e9, 0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert StreamConfig(streaming.MAX_WINDOW_SECONDS, 0.5)
        with pytest.raises(ConfigError, match="window_seconds"):
            StreamConfig(np.nextafter(streaming.MAX_WINDOW_SECONDS, np.inf), 0.5)

    @pytest.mark.parametrize("chunk_size", [0, -5])
    def test_chunk_size_below_one_rejected(self, trained_cnn,
                                           stream_pipeline_cfg, chunk_size):
        with pytest.raises(ConfigError, match="chunk_size"):
            stream_infer(ten_second_clip(), trained_cnn, stream_pipeline_cfg,
                         StreamConfig(), chunk_size=chunk_size)


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

    def test_window_is_last_samples_for_any_chunking(self):
        rng = np.random.default_rng(0)
        rb = streaming._RingBuffer(7)
        seen = np.zeros(7)
        for n in rng.integers(0, 10, 60):
            chunk = rng.standard_normal(n)
            rb.push(chunk)
            seen = np.concatenate([seen, chunk])
            np.testing.assert_array_equal(rb.window(), seen[-7:])
