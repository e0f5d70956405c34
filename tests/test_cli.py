import os

import numpy as np
import pytest

from emorec import audio_io, dataset
from emorec.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Full CLI workflow over the synthetic corpus: split, extract, train."""
    from emorec.dataset import scan_corpus
    from emorec import features as feat
    import conftest

    ws = tmp_path_factory.mktemp("cli_ws")
    corpus = ws / "corpus"
    corpus.mkdir()
    for emotion in range(1, 9):
        for actor in range(1, 7):
            clip = conftest.class_tone_clip(emotion - 1,
                                            seed=emotion * 100 + actor,
                                            duration=1.0 + 0.01 * actor)
            data, _ = audio_io.encode_wav(clip)
            name = f"03-01-{emotion:02d}-01-01-01-{actor:02d}.wav"
            (corpus / name).write_bytes(data)

    manifest = ws / "manifest.csv"
    dataset.write_manifest(manifest, scan_corpus(str(corpus), "ravdess"))

    split_manifest = ws / "manifest_split.csv"
    assert main(["split", "--manifest", str(manifest), "--seed", "0",
                 "--out", str(split_manifest),
                 "--out-dir", str(ws / "run_split")]) == 0

    cache = ws / "features.bin"
    assert main(["extract", "--manifest", str(split_manifest),
                 "--out", str(cache), "--frame-length", "512",
                 "--out-dir", str(ws / "run_extract")]) == 0

    svm_model = ws / "svm.bin"
    assert main(["train-svm", "--features", str(cache),
                 "--manifest", str(split_manifest), "--kernel", "rbf",
                 "--out", str(svm_model), "--seed", "0",
                 "--out-dir", str(ws / "run_tsvm")]) == 0

    cnn_model = ws / "cnn.bin"
    assert main(["train-cnn", "--features", str(cache),
                 "--manifest", str(split_manifest), "--epochs", "8",
                 "--batch-size", "8", "--out", str(cnn_model), "--seed", "0",
                 "--out-dir", str(ws / "run_tcnn")]) == 0

    return dict(ws=ws, corpus=corpus, manifest=manifest,
                split_manifest=split_manifest, cache=cache,
                svm_model=svm_model, cnn_model=cnn_model)


class TestAuditParams:
    def test_exact_table(self, capsys, tmp_path):
        assert main(["audit-params", "--out-dir", str(tmp_path / "r")]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[-1] == "Total params: 233448"
        for count in (320, 9248, 18496, 36928, 164352, 4104):
            assert any(line.endswith(str(count)) for line in lines)

    def test_runs_fast(self, tmp_path):
        import time
        t0 = time.perf_counter()
        assert main(["audit-params", "--out-dir", str(tmp_path / "r")]) == 0
        assert time.perf_counter() - t0 < 1.0


class TestGradientCheckCmd:
    def test_passes_and_prints(self, capsys, tmp_path):
        assert main(["gradient-check", "--seed", "0",
                     "--out-dir", str(tmp_path / "r")]) == 0
        out = capsys.readouterr().out
        assert "max relative error" in out

    def test_exit_3_when_over_threshold(self, capsys, tmp_path, monkeypatch):
        from emorec import nn
        monkeypatch.setattr(nn, "gradient_check",
                            lambda *a, **k: (2e-4, {"conv0.W": 2e-4}))
        code = main(["gradient-check", "--seed", "0",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 3
        assert "2.000e-04 > 0.0001" in capsys.readouterr().err


class TestValidateDataset:
    def test_tiny_corpus_fails_distribution(self, workspace, capsys, tmp_path):
        # 6 per class is not the published distribution -> exit 2
        code = main(["validate-dataset", "--data-root",
                     str(workspace["corpus"]), "--corpus", "ravdess",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert (tmp_path / "r" / "class_counts.csv").exists()
        # a run that returns, exit 2 included, lists what it wrote
        listed = (tmp_path / "r" / "artifacts.csv").read_text().splitlines()
        assert listed == ["file", "class_counts.csv"]

    @pytest.mark.parametrize("corpus", ["ravdess", "tess"])
    def test_missing_root_exits_2_naming_it(self, tmp_path, capsys, corpus):
        root = str(tmp_path / "missing")
        code = main(["validate-dataset", "--data-root", root, "--corpus",
                     corpus, "--out-dir", str(tmp_path / "r")])
        assert code == 2
        captured = capsys.readouterr()
        assert root in captured.err and "not a directory" in captured.err
        assert "result:" not in captured.out
        assert not (tmp_path / "r" / "class_counts.csv").exists()
        # a run that raised is not listed as one that wrote nothing
        assert not (tmp_path / "r" / "artifacts.csv").exists()


class TestSplitCmd:
    def test_split_is_seeded_and_reproducible(self, workspace, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        for out in (out1, out2):
            assert main(["split", "--manifest", str(workspace["manifest"]),
                         "--seed", "7", "--out", str(out),
                         "--out-dir", str(tmp_path / "r")]) == 0
        assert out1.read_text() == out2.read_text()

    def test_split_proportions(self, workspace):
        records = dataset.read_manifest(workspace["split_manifest"])
        counts = {}
        for r in records:
            counts[r.split] = counts.get(r.split, 0) + 1
        # 6 per class: 4/1/1 by largest remainder with ties toward test
        assert counts == {"train": 8 * 4, "val": 8, "test": 8}


def mixed_rate_manifest(tmp_path, n_clips=2):
    """A manifest of n_clips clips of one class, the last at 24 kHz and the
    others at 48 kHz."""
    for actor in range(1, n_clips + 1):
        rate = 24000 if actor == n_clips else 48000
        data, _ = audio_io.encode_wav(audio_io.synth_tone(440, 0.5, rate))
        (tmp_path / f"03-01-01-01-01-01-{actor:02d}.wav").write_bytes(data)
    manifest = tmp_path / "manifest.csv"
    dataset.write_manifest(manifest,
                           dataset.scan_corpus(str(tmp_path), "ravdess"))
    return manifest


class TestExtract:
    def test_cache_carries_its_pipeline(self, workspace):
        from emorec import features as feat
        cache = feat.load_feature_cache(workspace["cache"])
        assert len(cache) == 48
        record = feat.cache_pipeline(workspace["cache"])
        assert record["pipeline"]["n_mfcc"] == 13
        assert record["pipeline"]["frame_length"] == 512
        assert record["sample_rate"] == 4000
        assert not (workspace["ws"] / "features.bin.json").exists()
        for _id, label, matrix in cache:
            assert matrix.shape == (13, 26)
            assert 0 <= label < 8

    def test_one_decode_per_clip(self, workspace, tmp_path, monkeypatch):
        from emorec import features as feat
        calls = []
        decode = audio_io.decode_wav

        def counting_decode(data, **kwargs):
            calls.append(data)
            return decode(data, **kwargs)

        monkeypatch.setattr(audio_io, "decode_wav", counting_decode)
        out = tmp_path / "features.bin"
        assert main(["extract", "--manifest", str(workspace["split_manifest"]),
                     "--out", str(out), "--frame-length", "512",
                     "--out-dir", str(tmp_path / "run")]) == 0
        wavs = [audio_io.read_file(r.path)
                for r in dataset.read_manifest(workspace["split_manifest"])]
        assert sorted(calls) == sorted(wavs)
        # the header-only length pass finds the same target_length
        assert (feat.cache_pipeline(out)
                == feat.cache_pipeline(workspace["cache"]))
        for (i1, l1, m1), (i2, l2, m2) in zip(
                feat.load_feature_cache(out),
                feat.load_feature_cache(workspace["cache"])):
            assert (i1, l1) == (i2, l2)
            np.testing.assert_array_equal(m1, m2)

    def test_unsupported_wav_fails_in_length_pass(self, tmp_path, capsys,
                                                   monkeypatch):
        import struct
        payload = b"\x00" * 3000
        wav = tmp_path / "03-01-01-01-01-01-01.wav"
        wav.write_bytes(
            b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, 8000, 24000, 3, 24)
            + b"data" + struct.pack("<I", len(payload)) + payload)
        manifest = tmp_path / "manifest.csv"
        dataset.write_manifest(manifest,
                               dataset.scan_corpus(str(tmp_path), "ravdess"))
        calls = []
        monkeypatch.setattr(audio_io, "decode_wav",
                            lambda *a, **k: calls.append(a))
        assert main(["extract", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "run")]) == 2
        assert "bit depth 24 for PCM (only 16)" in capsys.readouterr().err
        assert calls == []

    def test_non_finite_float_wav_exits_2(self, tmp_path, capsys):
        import struct
        samples = np.full(3000, 0.1, dtype="<f4")
        samples[1234] = np.nan
        payload = samples.tobytes()
        wav = tmp_path / "03-01-01-01-01-01-01.wav"
        wav.write_bytes(
            b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
            + b"fmt " + struct.pack("<IHHIIHH", 16, 3, 1, 8000, 32000, 4, 32)
            + b"data" + struct.pack("<I", len(payload)) + payload)
        manifest = tmp_path / "manifest.csv"
        dataset.write_manifest(manifest,
                               dataset.scan_corpus(str(tmp_path), "ravdess"))
        assert main(["extract", "--manifest", str(manifest),
                     "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "NaN or infinite" in err and "Traceback" not in err

    def test_mixed_sample_rates_fail_closed(self, tmp_path, capsys):
        manifest = mixed_rate_manifest(tmp_path)
        out = tmp_path / "features.bin"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out),
                     "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "24000 Hz" in err and "48000 Hz" in err
        assert not out.exists()


class TestReproduceScript:
    @pytest.mark.parametrize("sweep_args", [[], ["--sweep"]])
    def test_mixed_sample_rates_exit_2(self, tmp_path, capsys, monkeypatch,
                                       sweep_args):
        import runpy
        mixed_rate_manifest(tmp_path, n_clips=5)   # a split needs 5 per class
        script = os.path.join(os.path.dirname(__file__), "..", "scripts",
                              "reproduce.py")
        monkeypatch.setattr("sys.argv", [script, "--ravdess-dir", str(tmp_path),
                                         "--out", str(tmp_path / "out"),
                                         *sweep_args])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(script, run_name="__main__")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "24000 Hz" in err and "48000 Hz" in err


class TestTrainAndEval:
    def test_eval_svm(self, workspace, capsys, tmp_path):
        run = tmp_path / "r"
        assert main(["eval", "--model", str(workspace["svm_model"]),
                     "--features", str(workspace["cache"]),
                     "--manifest", str(workspace["split_manifest"]),
                     "--split", "test", "--out-dir", str(run)]) == 0
        out = capsys.readouterr().out
        assert "accuracy:" in out
        assert (run / "confusion.csv").exists()
        assert (run / "per_class.csv").exists()
        assert (run / "artifacts.csv").exists()

    def test_eval_cnn_with_roc_and_reference(self, workspace, capsys, tmp_path):
        run = tmp_path / "r"
        assert main(["eval", "--model", str(workspace["cnn_model"]),
                     "--features", str(workspace["cache"]),
                     "--manifest", str(workspace["split_manifest"]),
                     "--split", "val", "--roc", "--compare-reference",
                     "--out-dir", str(run)]) == 0
        out = capsys.readouterr().out
        assert "reference" in out
        assert "cnn_top1" in out
        assert (run / "roc_auc.csv").exists()

    def test_eval_cnn_on_windows_of_other_height_exits_2(self, workspace,
                                                         capsys, tmp_path):
        # 12 of the cache's 13 rows: pooling would drop the odd row and the
        # 13-row model would score these windows without complaint
        from emorec import features as feat
        cache = tmp_path / "features12.bin"
        feat.save_feature_cache(cache, [
            (rid, label, matrix[:12])
            for rid, label, matrix in feat.load_feature_cache(workspace["cache"])])
        assert main(["eval", "--model", str(workspace["cnn_model"]),
                     "--features", str(cache),
                     "--manifest", str(workspace["split_manifest"]),
                     "--split", "test", "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "(13, 26, 1)" in err and "(12, 26, 1)" in err

    def test_eval_on_cache_of_other_geometry_exits_2(self, workspace, capsys,
                                                      tmp_path):
        # the models were trained on --frame-length 512 windows
        cache = tmp_path / "features2048.bin"
        assert main(["extract", "--manifest", str(workspace["split_manifest"]),
                     "--out", str(cache), "--frame-length", "2048",
                     "--out-dir", str(tmp_path / "x")]) == 0
        capsys.readouterr()
        assert main(["eval", "--model", str(workspace["svm_model"]),
                     "--features", str(cache),
                     "--manifest", str(workspace["split_manifest"]),
                     "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "'frame_length': 512" in err and "'frame_length': 2048" in err
        assert not (tmp_path / "r" / "confusion.csv").exists()

    def test_eval_skips_geometry_check_for_cache_without_record(
            self, workspace, tmp_path):
        from emorec import features as feat
        cache = tmp_path / "features.bin"   # written through the API
        feat.save_feature_cache(cache, feat.load_feature_cache(workspace["cache"]))
        assert main(["eval", "--model", str(workspace["svm_model"]),
                     "--features", str(cache),
                     "--manifest", str(workspace["split_manifest"]),
                     "--out-dir", str(tmp_path / "r")]) == 0

    def test_eval_skips_geometry_check_for_model_without_record(
            self, workspace, tmp_path):
        from emorec import svm
        model = svm.load_svm(workspace["svm_model"])
        model.pipeline_config = None
        path = tmp_path / "svm.bin"
        svm.save_svm(path, model)
        assert main(["eval", "--model", str(path),
                     "--features", str(workspace["cache"]),
                     "--manifest", str(workspace["split_manifest"]),
                     "--out-dir", str(tmp_path / "r")]) == 0

    def test_history_csv_written(self, workspace):
        history = (workspace["ws"] / "run_tcnn" / "history.csv").read_text()
        assert history.splitlines()[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(history.splitlines()) == 9  # header + 8 epochs

    @pytest.mark.parametrize("flag,value,field", [
        ("--batch-size", "0", "batch_size"),
        ("--batch-size", "-4", "batch_size"),
        ("--epochs", "0", "epochs"),
    ])
    def test_bad_training_sizes_exit_2(self, workspace, capsys, tmp_path,
                                       flag, value, field):
        run = tmp_path / "r"
        model = tmp_path / "cnn.bin"
        assert main(["train-cnn", "--features", str(workspace["cache"]),
                     "--manifest", str(workspace["split_manifest"]),
                     flag, value, "--out", str(model),
                     "--out-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err
        assert "Traceback" not in err
        assert not model.exists()
        assert not (run / "history.csv").exists()

    def test_val_ids_missing_from_cache_exit_2(self, workspace, capsys,
                                               tmp_path):
        from emorec import features as feat
        manifest = workspace["split_manifest"]
        val_ids = {r.id for r in dataset.read_manifest(manifest)
                   if r.split == "val"}
        cache = tmp_path / "features.bin"
        feat.save_feature_cache(cache, [
            entry for entry in feat.load_feature_cache(workspace["cache"])
            if entry[0] not in val_ids])
        run = tmp_path / "r"
        assert main(["train-cnn", "--features", str(cache),
                     "--manifest", str(manifest), "--epochs", "1",
                     "--out-dir", str(run)]) == 2
        assert "ids missing from cache" in capsys.readouterr().err
        assert not (run / "history.csv").exists()

    def test_manifest_without_val_trains_unvalidated(self, workspace,
                                                     tmp_path):
        records = dataset.read_manifest(workspace["split_manifest"])
        for r in records:
            r.split = "test" if r.split == "val" else r.split
        manifest = tmp_path / "no_val.csv"
        dataset.write_manifest(manifest, records)
        run = tmp_path / "r"
        assert main(["train-cnn", "--features", str(workspace["cache"]),
                     "--manifest", str(manifest), "--epochs", "1",
                     "--batch-size", "8", "--out-dir", str(run)]) == 0
        rows = (run / "history.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].endswith(",,")


class TestSweepCmd:
    def test_small_sweep_row_count(self, workspace, tmp_path, capsys):
        run = tmp_path / "r"
        assert main(["sweep-svm", "--manifest", str(workspace["split_manifest"]),
                     "--range", "10:20:10", "--extra-points", "13",
                     "--runs", "2", "--kernels", "rbf", "--seed", "0",
                     "--out-dir", str(run)]) == 0
        raw = (run / "sweep_raw.csv").read_text().strip().splitlines()
        assert len(raw) == 1 + 1 * 3 * 2  # header + kernels*points*runs
        mean = (run / "sweep_mean.csv").read_text().strip().splitlines()
        assert len(mean) == 1 + 3

    def test_mixed_sample_rates_fail_closed(self, tmp_path, capsys):
        manifest = mixed_rate_manifest(tmp_path)
        run = tmp_path / "run"
        assert main(["sweep-svm", "--manifest", str(manifest),
                     "--out-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert "24000 Hz" in err and "48000 Hz" in err
        assert not (run / "sweep_raw.csv").exists()

    def test_empty_manifest_fails_closed(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        dataset.write_manifest(manifest, [])
        run = tmp_path / "run"
        assert main(["sweep-svm", "--manifest", str(manifest),
                     "--out-dir", str(run)]) == 2
        assert "empty manifest" in capsys.readouterr().err
        assert not (run / "sweep_raw.csv").exists()

    def test_golden_cardinality_formula(self):
        # the documented full sweep: 2 kernels x 13 points x 10 runs
        points = set(range(10, 121, 10)) | {13, 100}
        assert len(points) == 13
        assert 2 * len(points) * 10 == 260


class TestAugmentCmd:
    def augment(self, workspace, tmp_path):
        run, out = tmp_path / "r", tmp_path / "aug.csv"
        assert main(["augment", "--manifest", str(workspace["manifest"]),
                     "--out", str(out), "--out-dir", str(run)]) == 0
        return run, dataset.read_manifest(out)

    def test_doubles_with_reversed_clips(self, workspace, tmp_path, capsys):
        run, records = self.augment(workspace, tmp_path)
        assert "wrote 48 augmented clips" in capsys.readouterr().out
        base = dataset.read_manifest(workspace["manifest"])
        assert len(records) == 2 * len(base) == 96
        assert [r.id for r in records[:48]] == [r.id for r in base]
        aug = records[48:]
        assert [(r.id, r.augmented_from) for r in aug] == [
            (f"{r.id}_rev", r.id) for r in base]
        assert {r.augmentation for r in aug} == {"reverse"}
        listed = (run / "artifacts.csv").read_text().splitlines()[1:]
        assert [p for p in listed if p.startswith("wavs")] == [
            os.path.join("wavs", r.id + ".wav") for r in aug]

    def test_augmented_features_match_expectation(self, workspace, tmp_path):
        # each _rev.wav is its source reversed, bit for bit (the PCM16 grid is
        # closed under reversal), so its window is the reversed clip's, which
        # is not the source's
        from emorec import features as feat
        _, records = self.augment(workspace, tmp_path)
        by_id = {r.id: r for r in records}
        cfg = feat.PipelineConfig(n_mfcc=13, target_length=4200,
                                  frame_length=512, n_mels=26)
        for r in records[48:]:
            src = audio_io.decode_wav(audio_io.read_file(by_id[r.augmented_from].path))
            rev = audio_io.decode_wav(audio_io.read_file(r.path))
            np.testing.assert_array_equal(rev.samples, src.samples[::-1])
            w_src, w_rev = (feat.extract_window(c, cfg).matrix for c in (src, rev))
            np.testing.assert_array_equal(
                w_rev, feat.extract_window(feat.augment_reverse(src), cfg).matrix)
            assert not np.array_equal(w_rev, w_src)


class TestStreamCmd:
    def test_stream_text_and_csv(self, workspace, tmp_path, capsys):
        wav = tmp_path / "long.wav"
        clip = audio_io.synth_chirp(100, 1500, 10.0, 4000, 0.6)
        wav.write_bytes(audio_io.encode_wav(clip)[0])
        run = tmp_path / "r"
        assert main(["stream", "--model", str(workspace["cnn_model"]),
                     "--wav", str(wav), "--window", "3.0", "--hop", "0.5",
                     "--out-dir", str(run)]) == 0
        out = capsys.readouterr().out
        assert "RTF" in out
        events = (run / "stream_events.csv").read_text().strip().splitlines()
        assert len(events) == 1 + 15
        assert events[0].endswith(",label")
        latency = (run / "stream_latency.csv").read_text().strip().splitlines()
        assert latency[0] == "t_end,latency_ms,cpu_ms" and len(latency) == 1 + 15
        assert (run / "artifacts.csv").read_text().splitlines()[1:] == [
            "stream_events.csv", "stream_latency.csv"]

    def test_stream_svm_model(self, workspace, tmp_path, capsys):
        wav = tmp_path / "long.wav"
        clip = audio_io.synth_chirp(100, 1500, 5.0, 4000, 0.6)
        wav.write_bytes(audio_io.encode_wav(clip)[0])
        run = tmp_path / "r"
        assert main(["stream", "--model", str(workspace["svm_model"]),
                     "--wav", str(wav), "--out-dir", str(run)]) == 0

    @pytest.mark.parametrize("model", ["cnn_model", "svm_model"])
    def test_stream_rate_mismatch_exits_2(self, workspace, tmp_path, capsys,
                                          model):
        # both models were trained on 4 kHz clips
        wav = tmp_path / "fast.wav"
        clip = audio_io.synth_chirp(100, 1500, 4.0, 8000, 0.6)
        wav.write_bytes(audio_io.encode_wav(clip)[0])
        assert main(["stream", "--model", str(workspace[model]),
                     "--wav", str(wav), "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "8000" in err and "4000" in err


class TestStreamWindowExit2:
    """A window that cannot fit the WAV exits 2, naming the option, before
    any buffer is built and with no stream_events.csv."""

    @pytest.mark.parametrize("window, says", [
        ("inf", "window_seconds must be finite"),
        ("nan", "window_seconds must be finite"),
        ("1e9", "--window 1e+09 s is longer than the 1.01 s"),
        ("3", "--window 3 s is longer than the 1.01 s")])
    def test_window_refused(self, workspace, tmp_path, capsys, window, says):
        wav = sorted(workspace["corpus"].glob("*.wav"))[0]   # 1.01 s
        run = tmp_path / "r"
        assert main(["stream", "--model", str(workspace["cnn_model"]),
                     "--wav", str(wav), "--window", window,
                     "--out-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert says in err
        assert "Traceback" not in err
        assert not (run / "stream_events.csv").exists()

    def test_window_above_limit_refused(self, workspace, tmp_path, capsys):
        wav = tmp_path / "long.wav"   # 62 s, so the window fits it
        wav.write_bytes(audio_io.encode_wav(audio_io.synth_tone(300, 62.0, 4000))[0])
        run = tmp_path / "r"
        assert main(["stream", "--model", str(workspace["cnn_model"]),
                     "--wav", str(wav), "--window", "61",
                     "--out-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert "window_seconds 61 is above the 60 s limit" in err
        assert "Traceback" not in err
        assert not (run / "stream_events.csv").exists()

    def test_window_equal_to_wav_streams_one_event(self, workspace, tmp_path):
        wav = sorted(workspace["corpus"].glob("*.wav"))[0]
        run = tmp_path / "r"
        assert main(["stream", "--model", str(workspace["cnn_model"]),
                     "--wav", str(wav), "--window", "1.01", "--hop", "0.5",
                     "--out-dir", str(run)]) == 0
        assert len((run / "stream_events.csv").read_text().splitlines()) == 2


class TestDamagedInputsExit2:
    """A damaged model or WAV exits 2, naming the field, with no traceback."""

    def damaged(self, workspace, tmp_path, model, edit):
        import conftest
        path = tmp_path / "model.bin"
        path.write_bytes(workspace[model].read_bytes())
        conftest.edit_header(path, edit)
        return str(path)

    def test_eval_svm_without_kernel(self, workspace, tmp_path, capsys):
        model = self.damaged(workspace, tmp_path, "svm_model",
                             lambda meta: meta.pop("kernel"))
        assert main(["eval", "--model", model,
                     "--features", str(workspace["cache"]),
                     "--manifest", str(workspace["split_manifest"]),
                     "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "SVM container header needs field kernel" in err
        assert "Traceback" not in err

    def test_stream_cnn_layer_without_filters(self, workspace, tmp_path, capsys):
        model = self.damaged(workspace, tmp_path, "cnn_model",
                             lambda meta: meta["specs"][0].pop("filters"))
        wav = sorted(workspace["corpus"].glob("*.wav"))[0]
        assert main(["stream", "--model", model, "--wav", str(wav),
                     "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "CNN checkpoint header needs field specs[0].filters" in err
        assert "Traceback" not in err

    def test_stream_wav_with_sample_rate_0(self, workspace, tmp_path, capsys):
        data = bytearray(sorted(workspace["corpus"].glob("*.wav"))[0].read_bytes())
        data[24:28] = bytes(4)   # the fmt chunk's sample rate
        wav = tmp_path / "zero_rate.wav"
        wav.write_bytes(data)
        assert main(["stream", "--model", str(workspace["cnn_model"]),
                     "--wav", str(wav), "--out-dir", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "sample rate of 0 Hz" in err
        assert "Traceback" not in err


class TestConfigFileAndExitCodes:
    def test_unknown_flag_exits_1(self, capsys):
        assert main(["audit-params", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_successive_calls_share_no_state(self, workspace, tmp_path, capsys,
                                             monkeypatch):
        from emorec import cli, nn
        assert cli.build_parser() is cli.build_parser()
        split = ["split", "--manifest", str(workspace["manifest"])]
        assert main(split + ["--seed", "5",
                             "--out-dir", str(tmp_path / "r1")]) == 0
        assert "split seed=5" in capsys.readouterr().out
        with monkeypatch.context() as m:
            m.setattr(nn, "gradient_check", lambda *a, **k: (1.0, {}))
            assert main(["gradient-check", "--seed", "7",
                         "--out-dir", str(tmp_path / "r2")]) == 3
        assert main(["audit-params", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["split", "--out-dir", str(tmp_path / "r6")]) == 1
        assert "--manifest" in capsys.readouterr().err
        # defaults come back after a run that set them, or that failed
        assert main(split + ["--out-dir", str(tmp_path / "r3")]) == 0
        assert "split seed=0" in capsys.readouterr().out
        assert main(["audit-params", "--out-dir", str(tmp_path / "r4")]) == 0
        assert "Total params: 233448" in capsys.readouterr().out
        assert main(["gradient-check", "--out-dir", str(tmp_path / "r5")]) == 0

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["extract", "--manifest", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "r")]) == 2

    def test_truncated_feature_cache_exits_2(self, tmp_path, capsys):
        from emorec import features
        cache = tmp_path / "features.bin"
        features.save_feature_cache(cache, [("03-01-01-01-01-01-01", 0,
                                             np.ones((2, 26)))])
        data = cache.read_bytes()
        cut = tmp_path / "cut.bin"
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            assert main(["train-cnn", "--features", str(cut),
                         "--manifest", str(tmp_path / "m.csv"),
                         "--out-dir", str(tmp_path / "r")]) == 2
            assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_exits_1(self, tmp_path, capsys):
        assert main(["train-svm", "--out-dir", str(tmp_path / "r")]) == 1

    def test_artifacts_manifest_lists_files(self, workspace):
        # one name a line, LF-terminated like every other CSV, so `grep -x` finds it
        artifacts = (workspace["ws"] / "run_tcnn" / "artifacts.csv").read_bytes()
        assert artifacts.split(b"\n") == [b"file", b"history.csv", b""]


class TestSweepOptionsFailClosed:
    """Bad sweep options exit 2 naming the option, before any clip is read
    or any CSV is written."""

    @pytest.mark.parametrize("args,option", [
        (["--runs", "0"], "--runs"),
        (["--range", "13:13:0"], "--range"),
        (["--range", "13:13"], "--range"),
        (["--range", "13:40:-1", "--extra-points", ""], "--range"),
        (["--range", "0:10:10", "--extra-points", ""], "--range"),
        (["--extra-points", "a"], "--extra-points"),
        (["--extra-points", "13,1e2"], "--extra-points"),
        (["--kernels", "rbf,poly"], "--kernels"),
        (["--kernels", ","], "--kernels"),
        (["--kernels", ""], "--kernels"),
        (["--kernels", "linear,linear"], "--kernels"),
    ])
    def test_exit_2_naming_option(self, workspace, tmp_path, capsys,
                                  monkeypatch, args, option):
        reads = []
        monkeypatch.setattr(audio_io, "read_file",
                            lambda path: reads.append(path))
        run = tmp_path / "run"
        assert main(["sweep-svm", "--manifest", str(workspace["split_manifest"]),
                     *args, "--out-dir", str(run)]) == 2
        err = capsys.readouterr().err
        assert option in err
        assert "Traceback" not in err and "unpack" not in err
        assert reads == []
        assert not (run / "sweep_raw.csv").exists()
        assert not (run / "sweep_mean.csv").exists()


class TestFrameLengthFailsClosed:
    @pytest.mark.parametrize("value", ["1", "0", "-5"])
    def test_extract_exits_2_naming_field(self, workspace, tmp_path, capsys,
                                          value):
        out = tmp_path / "features.bin"
        assert main(["extract", "--manifest", str(workspace["split_manifest"]),
                     "--out", str(out), "--frame-length", value,
                     "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert f"frame_length {value} outside [2, target_length" in err
        assert not out.exists()
