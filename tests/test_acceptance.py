"""Acceptance suite: one test per binding criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.  Criterion 11 (corpus count validation) only runs when the
real corpora are available via EMOREC_RAVDESS_DIR / EMOREC_TESS_DIR; the full
non-binding reproduction protocol lives in scripts/reproduce.py.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from emorec import audio_io, dataset, dsp, features, metrics, nn, streaming, svm, sweep
from emorec.cli import main as cli_main
from conftest import class_tone_clip, overfit_windows
from test_dsp import naive_dft
from test_nn import naive_conv2d
from test_svm import TOY_PROBLEMS, dual_grid_search

PIPE_CFG = features.PipelineConfig(n_mfcc=13, target_length=4200,
                                   frame_length=512, n_mels=26)


def ok(n, message):
    print(f"\n[acceptance] criterion {n:02d}: PASS - {message}")


def test_criterion_01_architecture_audit(capsys, tmp_path):
    t0 = time.perf_counter()
    model = nn.build_emotion_cnn(13, 26)
    counts = nn.parameter_counts(model.specs, model.input_shape)
    assert [c for c in counts if c > 0] == [320, 9248, 18496, 36928, 164352, 4104]
    assert sum(counts) == 233448
    assert nn.layer_shapes(model.specs, model.input_shape) == [
        (13, 26, 32), (11, 24, 32), (5, 12, 32), (5, 12, 32),
        (5, 12, 64), (3, 10, 64), (1, 5, 64), (1, 5, 64),
        (320,), (512,), (512,), (8,)]
    assert cli_main(["audit-params", "--out-dir", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out.strip().endswith("Total params: 233448")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    ok(1, f"per-layer counts and shapes match exactly ({elapsed:.2f}s)")


def test_criterion_02_gradient_correctness():
    t0 = time.perf_counter()
    model = nn.build_emotion_cnn(conv_filters=(8, 8, 8, 8), dense_units=16,
                                 seed=0)
    rng = np.random.default_rng(100)
    x = rng.normal(size=(2, 13, 26, 1))
    worst, per_tensor = nn.gradient_check(model, x, np.array([1, 5]))
    assert all(err < 1e-4 for err in per_tensor.values()), per_tensor
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(2, f"max relative error {worst:.2e} over {len(per_tensor)} tensors "
          f"({elapsed:.1f}s)")


def test_criterion_03_dsp_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(2 ** rng.integers(1, 9))
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        got, want = dsp.fft(x), naive_dft(x)
        assert np.abs(got - want).max() / np.abs(want).max() < 1e-9
    for _ in range(100):
        h, w = int(rng.integers(3, 8)), int(rng.integers(3, 9))
        cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        x = rng.normal(size=(1, h, w, cin))
        W = rng.normal(size=(3, 3, cin, cout))
        b = rng.normal(size=cout)
        padding = "same" if rng.random() < 0.5 else "valid"
        got, _ = nn.conv2d_forward(x, W, b, padding)
        want = naive_conv2d(x, W, b, padding)
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    ok(3, f"100 FFT and 100 conv2d instances match oracles ({elapsed:.1f}s)")


def test_criterion_04_mel_formula():
    assert dsp.mel_scale(0.0) == 0.0
    assert abs(dsp.mel_scale(700.0) - 2595.0 * math.log10(2.0)) < 1e-3
    grid = np.linspace(0.0, 8000.0, 100)
    back = dsp.inverse_mel_scale(dsp.mel_scale(grid))
    assert back[0] == 0.0
    rel = np.abs(back[1:] - grid[1:]) / grid[1:]
    assert rel.max() < 1e-6
    ok(4, "mel(0)=0, mel(700) matches, 100-point round-trip < 1e-6")


def test_criterion_05_polarity_invariance():
    rng = np.random.default_rng(5)
    for k in range(50):
        n = int(rng.integers(600, 4200))
        samples = rng.uniform(-0.9, 0.9, n)
        clip = audio_io.AudioClip(samples, 4000)
        neg = audio_io.AudioClip(-clip.samples, clip.sample_rate)
        w1 = features.extract_window(clip, PIPE_CFG)
        w2 = features.extract_window(neg, PIPE_CFG)
        assert np.array_equal(w1.matrix, w2.matrix), f"clip {k} differs"
    chirp = audio_io.synth_chirp(80, 1800, 1.05, 4000, 0.7)
    w_fwd = features.extract_window(chirp, PIPE_CFG)
    w_rev = features.extract_window(features.augment_reverse(chirp), PIPE_CFG)
    assert not np.array_equal(w_fwd.matrix, w_rev.matrix)
    ok(5, "50 random clips bit-identical under polarity flip; "
          "time reversal differs on the chirp")


def test_criterion_06_svm_correctness():
    t0 = time.perf_counter()
    # XOR at 100% with C=10 rbf
    X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    labels = np.array([0, 0, 1, 1])
    model = svm.train_multiclass(X, labels, svm.KernelSpec(kind="rbf", C=10.0))
    assert np.array_equal(svm.predict(model, X), labels)
    # KKT feasibility + oracle agreement over the documented toy grid
    for points, labs, kind, gamma in TOY_PROBLEMS:
        Xp = np.array(points, dtype=np.float64)
        y = np.array(labs, dtype=np.float64)
        spec = svm.KernelSpec(kind=kind, C=10.0)
        binary = svm.train_binary(Xp, y, spec, gamma=gamma)
        assert binary.converged
        alpha = np.abs(binary.dual_coef)
        assert np.all(alpha >= 0) and np.all(alpha <= spec.C + 1e-9)
        assert abs(binary.dual_coef.sum()) < 1e-6
        K = svm.kernel_matrix(Xp, Xp, spec, gamma)
        _, w_oracle = dual_grid_search(K, y, spec.C)
        assert abs(binary.objective - w_oracle) < 1e-2
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    ok(6, f"XOR 100%, KKT feasible, {len(TOY_PROBLEMS)} oracle gaps < 1e-2 "
          f"({elapsed:.1f}s)")


def test_criterion_07_overfit_fixture():
    t0 = time.perf_counter()
    x, labels = overfit_windows()
    model = nn.build_emotion_cnn(seed=0)
    cfg = nn.TrainConfig(lr=1e-4, epochs=500, batch_size=8, seed=0)
    history = nn.train(model, x, labels, cfg)
    assert abs(history[0].train_loss - math.log(8)) < 0.05
    _, acc = nn.evaluate(model, x, labels)
    assert acc == 1.0
    assert all(math.isfinite(h.train_loss) for h in history)
    for p in model.params:
        if p is not None:
            assert np.all(np.isfinite(p["W"])) and np.all(np.isfinite(p["b"]))
    for k in range(1, len(model.specs) + 1):   # every layer's output
        head = replace(model, specs=model.specs[:k], params=model.params[:k])
        out, _ = nn.forward(head, x)
        assert np.all(np.isfinite(out)), model.specs[k - 1]
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    ok(7, f"100% train accuracy, initial loss {history[0].train_loss:.4f} "
          f"vs ln8={math.log(8):.4f}, all finite ({elapsed:.0f}s/500 epochs)")


def test_criterion_08_harness_identities():
    rng = np.random.default_rng(8)
    scores = rng.dirichlet(np.ones(8), size=400)
    labels = rng.integers(0, 8, 400)
    report = metrics.metrics_report(labels, scores, ks=tuple(range(1, 9)))
    assert report.accuracy == np.trace(report.confusion) / 400
    micro_recall = np.diag(report.confusion).sum() / report.confusion.sum()
    assert micro_recall == report.accuracy
    accs = [report.top_k[k] for k in range(1, 9)]
    assert all(a <= b + 1e-12 for a, b in zip(accs, accs[1:]))
    assert accs[-1] == 1.0
    p, r, f1 = metrics.precision_recall_f1(np.array([[8, 2], [4, 6]]))
    assert abs(p[0] - 0.667) < 1e-3
    assert abs(r[0] - 0.8) < 1e-3
    assert abs(f1[0] - 0.727) < 1e-3
    ok(8, "trace/N = top-1, micro-recall = accuracy, top-k monotone, "
          "hand values match")


def test_criterion_09_determinism():
    # split assignments
    records = []
    for label in dataset.EmotionLabel:
        records += [dataset.SampleRecord(id=f"{label.name}{k}", path="",
                                         label=label, corpus="synthetic")
                    for k in range(12)]
    s1 = dataset.stratified_split(records, seed=11)
    s2 = dataset.stratified_split(records, seed=11)
    assert s1.assignment == s2.assignment
    # training history, in the float32 default and the float64 oracle
    x, labels = overfit_windows()
    for dtype in ("float32", "float64"):
        hists = []
        for _ in range(2):
            model = nn.build_emotion_cnn(seed=2)
            h = nn.train(model, x, labels, nn.TrainConfig(
                epochs=5, batch_size=4, seed=2, dtype=dtype))
            hists.append([(e.train_loss, e.train_acc) for e in h])
        assert hists[0] == hists[1]
    # sweep CSVs
    clips = [class_tone_clip(c, seed=c * 10 + k) for c in range(2)
             for k in range(6)]
    lab = np.repeat([0, 1], 6)
    cfg = features.PipelineConfig(n_mfcc=10, target_length=4200,
                                  frame_length=512, n_mels=26)
    r1 = sweep.run_svm_sweep(clips, lab, cfg, kernels=("rbf",), points=(10,),
                             runs=2, base_seed=3)
    r2 = sweep.run_svm_sweep(clips, lab, cfg, kernels=("rbf",), points=(10,),
                             runs=2, base_seed=3)
    assert r1.raw_csv() == r2.raw_csv()
    # stream events
    model = nn.build_emotion_cnn(seed=0)
    nn.train(model, x, labels, nn.TrainConfig(epochs=10, batch_size=8, seed=0))
    clip = audio_io.synth_chirp(100, 1500, 6.0, 4000, 0.6)
    scfg = streaming.StreamConfig(3.0, 0.5)
    e1, _ = streaming.stream_infer(clip, model, PIPE_CFG, scfg)
    e2, _ = streaming.stream_infer(clip, model, PIPE_CFG, scfg)
    assert [(e.t_start, e.t_end, e.label) for e in e1] == \
           [(e.t_start, e.t_end, e.label) for e in e2]
    for a, b in zip(e1, e2):
        assert np.array_equal(a.probs, b.probs)
    ok(9, "splits, float32 and float64 histories, sweep CSVs and stream "
          "events reproduce bit-identically")


def test_criterion_10_streaming():
    x, labels = overfit_windows()
    model = nn.build_emotion_cnn(seed=0)
    nn.train(model, x, labels, nn.TrainConfig(epochs=10, batch_size=8, seed=0))
    clip = audio_io.synth_chirp(100, 1500, 10.0, 4000, 0.6)
    scfg = streaming.StreamConfig(window_seconds=3.0, hop_seconds=0.5)
    events, summary = streaming.stream_infer(clip, model, PIPE_CFG, scfg,
                                             chunk_size=4096)
    assert len(events) == 15
    small, _ = streaming.stream_infer(clip, model, PIPE_CFG, scfg,
                                      chunk_size=64)
    assert [(e.t_start, e.t_end, e.label) for e in small] == \
           [(e.t_start, e.t_end, e.label) for e in events]
    for a, b in zip(small, events):
        assert np.array_equal(a.probs, b.probs)
    assert summary.latency_p50_ms <= summary.latency_p95_ms <= summary.latency_max_ms
    assert summary.rtf > 0
    assert summary.rtf < 0.25  # artifact service target on a desktop CPU
    ok(10, f"15 events, chunk-size independent, RTF {summary.rtf:.4f}, "
           f"p50/p95/max = {summary.latency_p50_ms:.1f}/"
           f"{summary.latency_p95_ms:.1f}/{summary.latency_max_ms:.1f} ms")


@pytest.mark.skipif("EMOREC_RAVDESS_DIR" not in os.environ,
                    reason="RAVDESS corpus not available")
def test_criterion_11_ravdess_counts():
    records = dataset.scan_corpus(os.environ["EMOREC_RAVDESS_DIR"], "ravdess")
    report = dataset.validate_manifest(records, "ravdess")
    assert report.passed, report.to_text()
    assert sum(report.counts.values()) == 1440
    ok(11, "RAVDESS distribution matches 96 + 7x192 = 1440")


@pytest.mark.skipif("EMOREC_TESS_DIR" not in os.environ,
                    reason="TESS corpus not available")
def test_criterion_11_tess_counts():
    records = dataset.scan_corpus(os.environ["EMOREC_TESS_DIR"], "tess")
    report = dataset.validate_manifest(records, "tess")
    assert report.passed, report.to_text()
    assert sum(report.counts.values()) == 2800
    ok(11, "TESS distribution matches 7x400 = 2800")
