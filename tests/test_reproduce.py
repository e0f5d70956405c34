import importlib.util
import os
import runpy
import sys

import numpy as np
import pytest

from emorec import audio_io, dataset, features, nn, sweep
from emorec.cli import main

SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


def run_script(name, argv, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name] + [str(a) for a in argv])
    assert module.main() == 0


def test_sweep_run_decodes_each_clip_once(tmp_path, monkeypatch, capsys):
    """`reproduce.py --sweep` builds the CNN windows and every sweep point's
    windows in one pass, and its sweep equals run_svm_sweep's."""
    demo, out = tmp_path / "demo", tmp_path / "out"
    run_script("make_demo_data", ["--out", demo, "--per-class", 5], monkeypatch)
    calls = []
    decode = audio_io.decode_wav

    def counting_decode(data, **kwargs):
        calls.append(data)
        return decode(data, **kwargs)

    monkeypatch.setattr(audio_io, "decode_wav", counting_decode)
    run_script("reproduce", ["--ravdess-dir", demo, "--out", out, "--epochs", 1,
                             "--sweep", "--sweep-runs", 1], monkeypatch)
    records = dataset.read_manifest(out / "manifest.csv")
    assert sorted(calls) == sorted(audio_io.read_file(r.path) for r in records)
    # the out dir is a run directory that lists what it holds
    listed = (out / "artifacts.csv").read_text().splitlines()
    assert listed[0] == "file"
    assert sorted(listed[1:]) == sorted(p.name for p in out.iterdir()
                                        if p.name != "artifacts.csv")
    report = (out / "report.txt").read_text()
    assert "corpus: ravdess" in report and "sweep best:" in report
    assert "deltas are informational" in report

    monkeypatch.setattr(audio_io, "decode_wav", decode)
    cfg = features.PipelineConfig(n_mfcc=13,
                                  target_length=audio_io.max_length(records),
                                  frame_length=2048, n_mels=26)
    want = sweep.run_svm_sweep(audio_io.read_clips(records),
                               [int(r.label) for r in records], cfg, runs=1,
                               base_seed=0, records=records)
    assert (out / "sweep_raw.csv").read_text() == want.raw_csv()
    assert (out / "sweep_mean.csv").read_text() == want.mean_csv()
    # the CNN carries the geometry its windows were made with, so it streams
    rate = next(audio_io.read_clips(records)).sample_rate
    assert nn.load_cnn(out / "cnn_model.bin").pipeline_config == {
        "pipeline": cfg.to_dict(), "sample_rate": rate}
    assert main(["stream", "--model", str(out / "cnn_model.bin"),
                 "--wav", records[0].path, "--window", "0.5", "--hop", "0.25",
                 "--out-dir", str(out / "stream")]) == 0


def test_augment_adds_each_train_clips_reversed_window(tmp_path, monkeypatch,
                                                      capsys):
    """`reproduce.py --augment` trains on each train clip's window followed
    by its time-reversed clip's: twice the train clips' windows."""
    demo, out = tmp_path / "demo", tmp_path / "out"
    run_script("make_demo_data", ["--out", demo, "--per-class", 5], monkeypatch)
    seen = []
    train = nn.train

    def spy(model, x, labels, *args, **kwargs):
        seen.append((x.copy(), labels.copy()))
        return train(model, x, labels, *args, **kwargs)

    monkeypatch.setattr(nn, "train", spy)
    run_script("reproduce", ["--ravdess-dir", demo, "--out", out, "--epochs", 1,
                             "--augment"], monkeypatch)
    [(x, labels)] = seen
    records = dataset.read_manifest(out / "manifest.csv")
    train_records = [r for r in records if r.split == "train"]
    assert (f"train split augmented to {2 * len(train_records)} windows"
            in capsys.readouterr().out)
    assert x.shape == (2 * len(train_records), 13, 26, 1)
    cfg = features.PipelineConfig(target_length=audio_io.max_length(records))
    for k, (r, clip) in enumerate(zip(train_records,
                                      audio_io.read_clips(train_records))):
        want = [features.extract_clip(c, [cfg])[0].matrix
                for c in (clip, features.augment_reverse(clip))]
        np.testing.assert_array_equal(x[2 * k : 2 * k + 2, ..., 0], want)
        assert list(labels[2 * k : 2 * k + 2]) == [int(r.label)] * 2


@pytest.mark.parametrize("which", ["ravdess", "tess"])
def test_missing_corpus_dir_exits_2(tmp_path, monkeypatch, capsys, which):
    """A mistyped --ravdess-dir or --tess-dir exits 2 naming the directory,
    with no traceback and before any training."""
    demo, missing = tmp_path / "demo", str(tmp_path / "missing")
    run_script("make_demo_data", ["--out", demo, "--per-class", 5], monkeypatch)
    dirs = {"ravdess": ["--ravdess-dir", missing],
            "tess": ["--ravdess-dir", str(demo), "--tess-dir", missing]}[which]
    monkeypatch.setattr(sys, "argv", ["reproduce.py", *dirs, "--out",
                                      str(tmp_path / "out"), "--epochs", "1"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(os.path.join(SCRIPTS, "reproduce.py"),
                       run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"{which} root {missing!r} is not a directory" in err
    assert not (tmp_path / "out" / "cnn_model.bin").exists()
    # a run that raised is not listed as one that wrote nothing
    assert not (tmp_path / "out" / "artifacts.csv").exists()


@pytest.mark.parametrize("args,field", [
    (["--epochs", "0"], "epochs must be at least 1, got 0"),
    (["--batch-size", "-1"], "batch_size must be at least 1, got -1"),
    (["--sweep", "--sweep-runs", "0"], "--sweep-runs must be at least 1, got 0"),
])
def test_bad_count_exits_2_before_the_corpus_is_scanned(tmp_path, monkeypatch,
                                                        capsys, args, field):
    """A count below 1 exits 2 naming it, with no traceback, before any
    directory is read or made: the corpus root here does not exist."""
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "argv", ["reproduce.py", "--ravdess-dir",
                                      str(tmp_path / "missing"), "--out",
                                      str(out), *args])
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(os.path.join(SCRIPTS, "reproduce.py"),
                       run_name="__main__")
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not out.exists()
