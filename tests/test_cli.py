import json
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

    def test_exit_3_when_over_threshold(self, capsys, tmp_path):
        code = main(["gradient-check", "--seed", "0", "--threshold", "1e-12",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 3


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

    def test_validates_manifest_file(self, workspace, capsys, tmp_path):
        code = main(["validate-dataset", "--manifest",
                     str(workspace["manifest"]), "--corpus", "ravdess",
                     "--out-dir", str(tmp_path / "r")])
        assert code == 2  # still not the full corpus
        assert "MISMATCH" in capsys.readouterr().out


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


class TestExtract:
    def test_cache_and_sidecar(self, workspace):
        from emorec import features as feat
        cache = feat.load_feature_cache(workspace["cache"])
        assert len(cache) == 48
        sidecar = json.loads((workspace["ws"] / "features.bin.json").read_text())
        assert sidecar["pipeline"]["n_mfcc"] == 13
        assert sidecar["pipeline"]["frame_length"] == 512
        assert sidecar["sample_rate"] == 4000
        for _id, label, matrix in cache:
            assert matrix.shape == (13, 26)
            assert 0 <= label < 8

    def test_one_decode_per_clip(self, workspace, tmp_path, monkeypatch):
        from emorec import features as feat
        calls = []
        decode = audio_io.decode_wav

        def counting_decode(data, source_id=None):
            calls.append(source_id)
            return decode(data, source_id=source_id)

        monkeypatch.setattr(audio_io, "decode_wav", counting_decode)
        out = tmp_path / "features.bin"
        assert main(["extract", "--manifest", str(workspace["split_manifest"]),
                     "--out", str(out), "--frame-length", "512",
                     "--out-dir", str(tmp_path / "run")]) == 0
        ids = [r.id for r in dataset.read_manifest(workspace["split_manifest"])]
        assert sorted(calls) == sorted(ids)
        # the header-only length pass finds the same target_length
        assert ((tmp_path / "features.bin.json").read_text()
                == (workspace["ws"] / "features.bin.json").read_text())
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

    @pytest.mark.parametrize("target_args", [[], ["--target-length", "30000"]])
    def test_mixed_sample_rates_fail_closed(self, tmp_path, capsys, target_args):
        for actor, rate in ((1, 48000), (2, 24000)):
            data, _ = audio_io.encode_wav(audio_io.synth_tone(440, 0.5, rate))
            (tmp_path / f"03-01-01-01-01-01-{actor:02d}.wav").write_bytes(data)
        manifest = tmp_path / "manifest.csv"
        dataset.write_manifest(manifest,
                               dataset.scan_corpus(str(tmp_path), "ravdess"))
        out = tmp_path / "features.bin"
        assert main(["extract", "--manifest", str(manifest), "--out", str(out),
                     *target_args, "--out-dir", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert "24000 Hz" in err and "48000 Hz" in err
        assert not out.exists()


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

    def test_history_csv_written(self, workspace):
        history = (workspace["ws"] / "run_tcnn" / "history.csv").read_text()
        assert history.splitlines()[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
        assert len(history.splitlines()) == 9  # header + 8 epochs


class TestSweepCmd:
    def test_small_sweep_row_count(self, workspace, tmp_path, capsys):
        run = tmp_path / "r"
        assert main(["sweep-svm", "--manifest", str(workspace["split_manifest"]),
                     "--range", "10:20:10", "--extra-points", "13",
                     "--runs", "2", "--kernels", "rbf",
                     "--frame-length", "512", "--seed", "0",
                     "--out-dir", str(run)]) == 0
        raw = (run / "sweep_raw.csv").read_text().strip().splitlines()
        assert len(raw) == 1 + 1 * 3 * 2  # header + kernels*points*runs
        mean = (run / "sweep_mean.csv").read_text().strip().splitlines()
        assert len(mean) == 1 + 3

    def test_golden_cardinality_formula(self):
        # the documented full sweep: 2 kernels x 13 points x 10 runs
        points = set(range(10, 121, 10)) | {13, 100}
        assert len(points) == 13
        assert 2 * len(points) * 10 == 260


class TestAugmentCmd:
    def test_triples_and_flags_duplicates(self, workspace, tmp_path, capsys):
        run = tmp_path / "r"
        out_manifest = tmp_path / "aug.csv"
        assert main(["augment", "--manifest", str(workspace["manifest"]),
                     "--out", str(out_manifest), "--out-dir", str(run)]) == 0
        out = capsys.readouterr().out
        assert "identical" in out  # the invert-duplicates note
        records = dataset.read_manifest(out_manifest)
        assert len(records) == 48 * 3
        aug = [r for r in records if r.augmented_from]
        assert len(aug) == 96
        for r in aug[:4]:
            assert os.path.exists(r.path)

    def test_augmented_features_match_expectation(self, workspace, tmp_path):
        # decode one inverted file and check bit-identical feature window
        from emorec import features as feat
        run = tmp_path / "r"
        out_manifest = tmp_path / "aug.csv"
        main(["augment", "--manifest", str(workspace["manifest"]),
              "--augmentations", "invert", "--out", str(out_manifest),
              "--out-dir", str(run)])
        records = dataset.read_manifest(out_manifest)
        by_id = {r.id: r for r in records}
        aug = next(r for r in records if r.augmented_from)
        src = by_id[aug.augmented_from]
        cfg = feat.PipelineConfig(n_mfcc=13, target_length=4200,
                                  frame_length=512, n_mels=26)
        with open(src.path, "rb") as fh:
            w1 = feat.extract_window(audio_io.decode_wav(fh.read()), cfg)
        with open(aug.path, "rb") as fh:
            w2 = feat.extract_window(audio_io.decode_wav(fh.read()), cfg)
        np.testing.assert_allclose(w1.matrix, w2.matrix, atol=1e-9)


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

    def test_stream_svm_model(self, workspace, tmp_path, capsys):
        wav = tmp_path / "long.wav"
        clip = audio_io.synth_chirp(100, 1500, 5.0, 4000, 0.6)
        wav.write_bytes(audio_io.encode_wav(clip)[0])
        run = tmp_path / "r"
        assert main(["stream", "--model", str(workspace["svm_model"]),
                     "--wav", str(wav), "--emit", "csv",
                     "--out-dir", str(run)]) == 0

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


class TestConfigFileAndExitCodes:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "n_mfcc": 13, "n_frames": 26}))
        assert main(["audit-params", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r1")]) == 0
        out1 = capsys.readouterr().out
        assert "Total params: 233448" in out1
        # flag overrides config: 20 rows changes the flatten width and total
        assert main(["audit-params", "--config", str(cfg), "--n-mfcc", "20",
                     "--out-dir", str(tmp_path / "r2")]) == 0
        out2 = capsys.readouterr().out
        assert "Total params: 233448" not in out2

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "bogus_key": 5}))
        assert main(["audit-params", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 2

    def test_wrong_config_version(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 99}))
        assert main(["audit-params", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "r")]) == 2

    def test_unknown_flag_exits_1(self, capsys):
        assert main(["audit-params", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_successive_calls_share_no_state(self, tmp_path, capsys):
        from emorec import cli
        assert cli.build_parser() is cli.build_parser()
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"version": 1, "n_frames": 30}))
        assert main(["audit-params", "--config", str(cfg), "--n-mfcc", "20",
                     "--out-dir", str(tmp_path / "r1")]) == 0
        assert "(20, 30, 32)" in capsys.readouterr().out
        small = ["gradient-check", "--filters", "2", "--dense-units", "4",
                 "--batch", "1"]
        assert main(small + ["--threshold", "0",
                             "--out-dir", str(tmp_path / "r2")]) == 3
        assert main(["audit-params", "--bogus"]) == 1
        assert "usage error" in capsys.readouterr().err
        assert main(["audit-params", "--out-dir", str(tmp_path / "r3")]) == 0
        out = capsys.readouterr().out
        assert "(13, 26, 32)" in out and "Total params: 233448" in out
        assert main(small + ["--out-dir", str(tmp_path / "r4")]) == 0

    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["extract", "--manifest", str(tmp_path / "nope.csv"),
                     "--out-dir", str(tmp_path / "r")]) == 2

    def test_truncated_feature_cache_exits_2(self, tmp_path, capsys):
        from emorec import features
        cache = tmp_path / "features.bin"
        features.save_feature_cache(cache, [("03-01-01-01-01-01-01", 0,
                                             np.ones((2, 3)))])
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
        artifacts = (workspace["ws"] / "run_tcnn" / "artifacts.csv").read_text()
        assert "history.csv" in artifacts
