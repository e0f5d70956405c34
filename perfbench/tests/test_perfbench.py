"""Tests of the benchmark itself: span arithmetic, open-loop bookkeeping,
the reference MFCC, and a tiny-size run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from emorec import audio_io, dsp, features  # noqa: E402
from perfbench import refmfcc, run, trace, workloads  # noqa: E402


class FakeClock:
    def __init__(self, t=100.0):
        self.t = t

    def __call__(self):
        return self.t

    def sleep(self, seconds):
        self.t += seconds


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------

class TestSelfTime:
    def test_nested_spans(self):
        clock = FakeClock(0.0)
        rec = trace.Recorder(clock)
        with rec.span("a"):
            clock.t = 1.0
            with rec.span("b"):
                clock.t = 2.0
                with rec.span("c"):
                    clock.t = 3.0
                clock.t = 4.0
            clock.t = 5.0
            with rec.span("d"):
                clock.t = 7.0
            clock.t = 10.0
        assert [s["parent"] for s in rec.spans] == [None, 0, 1, 0]
        assert trace.self_times(rec.spans) == pytest.approx([5.0, 2.0, 1.0, 2.0])

    def test_overlapping_children_counted_once(self):
        spans = [{"name": "p", "start": 0.0, "end": 10.0, "parent": None},
                 {"name": "x", "start": 1.0, "end": 5.0, "parent": 0},
                 {"name": "y", "start": 3.0, "end": 6.0, "parent": 0}]
        assert trace.self_times(spans)[0] == pytest.approx(5.0)

    def test_since_renumbers_parents(self):
        clock = FakeClock(0.0)
        rec = trace.Recorder(clock)
        with rec.span("before"):
            clock.t = 1.0
        mark = rec.mark()
        with rec.span("outer"):
            with rec.span("inner"):
                clock.t = 2.0
        spans = rec.since(mark)
        assert [s["parent"] for s in spans] == [None, 0]

    def test_layer_metrics_from_spans(self):
        spans = [
            {"name": "audio_io.decode", "start": 0.0, "end": 0.002,
             "parent": None, "attrs": {"bytes": 2_000_000}},
            {"name": "audio_io.decode", "start": 0.002, "end": 0.004,
             "parent": None, "attrs": {"bytes": 2_000_000}},
            {"name": "dsp.stft", "start": 0.004, "end": 0.010,
             "parent": None, "attrs": {}},
            {"name": "dsp.fft", "start": 0.005, "end": 0.009,
             "parent": 2, "attrs": {"n": 2048, "frames": 26}},
        ]
        m = trace.layer_metrics(spans, clips=2)
        assert m["audio_io.decodes_per_clip"] == 1.0
        assert m["audio_io.mb_per_s"] == pytest.approx(1000.0)
        assert m["dsp.stft_self_ms"] == pytest.approx(2.0)
        assert m["dsp.fft_ms"] == pytest.approx(4.0)
        assert m["dsp.fft_mflop"] == pytest.approx(5 * 2048 * 11 * 26 / 1e6)
        assert set(m) == set(trace.LAYER_UNITS)


class TestWrapping:
    def test_wraps_records_and_restores(self):
        def fft(x):
            return np.asarray(x, dtype=complex)

        ns = types.SimpleNamespace(fft=fft)
        rec = trace.Recorder()
        with trace.traced({"dsp": ns}, rec) as missing:
            assert ns.fft is not fft
            ns.fft(np.zeros((3, 8)))
        assert ns.fft is fft
        assert [s["name"] for s in rec.spans] == ["dsp.fft"]
        assert rec.spans[0]["attrs"] == {"n": 8, "frames": 3}
        assert "dsp.fft" not in missing and "dsp.stft" in missing

    def test_renamed_target_drops_its_metric(self):
        names = trace.available(["svm.train_binary"])
        assert "svm.passes.linear" not in names
        assert "svm.fit_s.linear" in names
        assert set(trace.available([])) == set(trace.LAYER_UNITS)

    def test_changed_arguments_do_not_crash(self):
        def conv2d_backward(dout, cache):  # cache no longer holds W at [3]
            return dout

        ns = types.SimpleNamespace(conv2d_backward=conv2d_backward)
        rec = trace.Recorder()
        with trace.traced({"nn": ns}, rec):
            assert ns.conv2d_backward(1.0, ()) == 1.0
        assert rec.broken == {"nn.conv2d_backward"}
        assert rec.spans[0]["name"] == "nn.conv2d_backward"

    def test_restores_after_error(self):
        def boom():
            raise ValueError("x")

        ns = types.SimpleNamespace(dct2=boom)
        with pytest.raises(ValueError):
            with trace.traced({"dsp": ns}, trace.Recorder()):
                ns.dct2()
        assert ns.dct2 is boom


# ---------------------------------------------------------------------------
# open loop
# ---------------------------------------------------------------------------

class FakeEngine:
    """Emits one event every `every` pushes; those pushes cost `cost` s."""

    def __init__(self, clock, every, cost):
        self.clock, self.every, self.cost, self.pushes = clock, every, cost, 0

    def push(self, chunk):
        self.pushes += 1
        if self.pushes % self.every:
            return []
        self.clock.t += self.cost
        return [self.pushes]


class TestOpenLoop:
    def loop(self, clock):
        # 10-sample chunks at 100 Hz and 10x real time: one due per 10 ms
        return workloads.OpenLoop(chunk=10, rate=100, speed=10.0,
                                  clock=clock, sleep=clock.sleep)

    def test_latency_from_due_time(self):
        clock = FakeClock()
        res = self.loop(clock).run(FakeEngine(clock, every=5, cost=0.025),
                                   np.zeros(100))
        assert res.events == [5, 10]
        # chunk 4 due at +50 ms and done at +75 ms, chunk 9 likewise
        assert res.latencies_ms == pytest.approx([25.0, 25.0])
        assert res.work_ms == pytest.approx([25.0, 25.0])
        assert res.busy == pytest.approx(0.05)
        # chunk 5 was due at +60 ms but could only start at +75 ms
        assert res.late_ms == pytest.approx(15.0)

    def test_stall_delays_later_events(self):
        clock = FakeClock()
        engine = FakeEngine(clock, every=5, cost=0.06)
        res = self.loop(clock).run(engine, np.zeros(100))
        # the first event ends at +110 ms, after chunk 9 was due (+100 ms);
        # the second starts late and ends at +170 ms
        assert res.latencies_ms == pytest.approx([60.0, 70.0])
        assert res.work_ms == pytest.approx([60.0, 60.0])
        assert res.late_ms == pytest.approx(50.0)

    def test_sleeps_until_due(self):
        clock = FakeClock()
        self.loop(clock).run(FakeEngine(clock, every=100, cost=0.0),
                             np.zeros(100))
        assert clock.t == pytest.approx(100.1)


# ---------------------------------------------------------------------------
# reference MFCC
# ---------------------------------------------------------------------------

class TestReferenceMfcc:
    def test_matches_dsp_mfcc_on_a_tone(self):
        clip = audio_io.synth_tone(440.0, 1.0, 48_000, amplitude=0.5)
        got = dsp.mfcc(clip, 13, 2048, 512, n_mels=26).coeffs
        ref = refmfcc.mfcc(clip.samples, 48_000, 13, 2048, 512, n_mels=26)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-7)

    def test_matches_dsp_mfcc_when_frames_are_zero_padded(self):
        clip = audio_io.synth_tone(300.0, 0.5, 16_000, amplitude=0.5)
        got = dsp.mfcc(clip, 13, 400, 160, n_mels=20).coeffs
        ref = refmfcc.mfcc(clip.samples, 16_000, 13, 400, 160, n_mels=20)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("target", [60_000, 40_000])
    def test_window_matches_extract_window(self, target):
        clip = audio_io.synth_chirp(200.0, 3000.0, 1.0, 48_000, amplitude=0.5)
        cfg = features.PipelineConfig(target_length=target)
        got = features.extract_window(clip, cfg).matrix
        ref = refmfcc.reference_window(clip.samples, 48_000, target)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# tiny-size runs
# ---------------------------------------------------------------------------

def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


@pytest.mark.parametrize("workload", declared()[2])
@pytest.mark.parametrize("traced", [False, True])
def test_tiny_run_emits_every_metric(workload, traced):
    end_to_end, per_layer, _ = declared()
    lines = []
    result = run.run(workload, seed=3, seconds=0.5, trace=traced,
                     size="tiny", out=lines.append)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = per_layer if traced else end_to_end
    assert {k: m["unit"] for k, m in result["metrics"].items()} == wanted
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())
    if not traced:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    if traced and workload == "svm_sweep":
        assert result["metrics"]["svm.passes.linear"]["value"] > 0
    assert any(line.startswith("env ") for line in lines)


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "extract",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
