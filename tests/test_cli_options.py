"""The CLI's option table, pinned per subcommand: its flags, the ones it
requires, each parsed default, and the type a flag's value parses to.

The options a subcommand works with are the namespace `parse_args` returns,
which `main` hands to its `cmd_*` function as it is.
"""

import argparse

import pytest

from emorec import cli

# subcommand -> option -> (resolved default, sample flag value, value it
# parses to); a sample value of None marks a switch
OPTION_TABLE = {
    "extract": dict(
        manifest=(None, "m.csv", "m.csv"), out=(None, "f.bin", "f.bin"),
        n_mfcc=(13, "20", 20), frame_length=(2048, "512", 512)),
    "validate-dataset": dict(
        data_root=(None, "d", "d"), corpus=("ravdess", "tess", "tess")),
    "split": dict(
        manifest=(None, "m.csv", "m.csv"), out=(None, "s.csv", "s.csv")),
    "train-svm": dict(
        features=(None, "f.bin", "f.bin"), manifest=(None, "m.csv", "m.csv"),
        kernel=("rbf", "linear", "linear"), out=(None, "s.bin", "s.bin")),
    "train-cnn": dict(
        features=(None, "f.bin", "f.bin"), manifest=(None, "m.csv", "m.csv"),
        epochs=(10, "3", 3), batch_size=(32, "8", 8),
        out=(None, "c.bin", "c.bin")),
    "eval": dict(
        model=(None, "c.bin", "c.bin"), features=(None, "f.bin", "f.bin"),
        manifest=(None, "m.csv", "m.csv"), split=("test", "val", "val"),
        roc=(False, None, True), compare_reference=(False, None, True)),
    "sweep-svm": dict(
        manifest=(None, "m.csv", "m.csv"),
        range=("10:120:10", "10:20:10", "10:20:10"),
        extra_points=("13,100", "13", "13"), runs=(10, "2", 2),
        kernels=("rbf,linear", "rbf", "rbf")),
    "augment": dict(
        manifest=(None, "m.csv", "m.csv"), out=(None, "a.csv", "a.csv")),
    "stream": dict(
        model=(None, "c.bin", "c.bin"), wav=(None, "x.wav", "x.wav"),
        window=(3.0, "2", 2.0), hop=(0.5, "1", 1.0)),
    "gradient-check": dict(),
    "audit-params": dict(),
}
COMMON = dict(seed=(0, "3", 3))
# subcommand -> the text flags it cannot run without
REQUIRED = {
    "extract": ("manifest",), "validate-dataset": ("data_root",),
    "split": ("manifest",), "train-svm": ("features", "manifest"),
    "train-cnn": ("features", "manifest"),
    "eval": ("model", "features", "manifest"), "sweep-svm": ("manifest",),
    "augment": ("manifest",), "stream": ("model", "wav"),
}


def resolved(argv) -> dict:
    """The options the subcommand of argv is handed."""
    opts = vars(cli.build_parser().parse_args(argv))
    del opts["fn"], opts["command"]
    return opts


def required_argv(name) -> list:
    """Each flag subcommand name requires, with its sample value."""
    return [arg for key in REQUIRED.get(name, ())
            for arg in (flag(key), OPTION_TABLE[name][key][1])]


def flag(name) -> str:
    return "--" + name.replace("_", "-")


def assert_same(got: dict, want: dict):
    assert got == want
    for key, value in want.items():   # 50 == 50.0 and 1 == True: types too
        assert type(got[key]) is type(value), key


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    # a run without --out-dir writes under ./runs
    monkeypatch.chdir(tmp_path)


def test_subcommands_and_flags():
    parser = cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPTION_TABLE)
    # the protocol's variables, inputs and outputs; 28 others were removed
    assert sum(len(table) for table in OPTION_TABLE.values()) == 34
    for name, table in OPTION_TABLE.items():
        flags = {s for a in sub.choices[name]._actions for s in a.option_strings}
        assert flags == ({"-h", "--help", "--seed", "--out-dir"}
                         | {flag(key) for key in table}), name


@pytest.mark.parametrize("name", sorted(OPTION_TABLE))
def test_resolved_defaults(name):
    want = {key: default for key, (default, _, _) in
            {**OPTION_TABLE[name], **COMMON}.items()}
    want.update({key: OPTION_TABLE[name][key][2] for key in REQUIRED.get(name, ())})
    assert_same(resolved([name, *required_argv(name)]), {**want, "out_dir": None})


@pytest.mark.parametrize("name", sorted(OPTION_TABLE))
def test_flag_values_parse_to_their_types(name, tmp_path):
    argv, want = [name], {"out_dir": str(tmp_path / "o")}
    for key, (_, sample, parsed) in {**OPTION_TABLE[name], **COMMON}.items():
        argv += [flag(key)] if sample is None else [flag(key), sample]
        want[key] = parsed
    assert_same(resolved(argv + ["--out-dir", want["out_dir"]]), want)


@pytest.mark.parametrize("name,key", [(name, key) for name in sorted(REQUIRED)
                                      for key in REQUIRED[name]])
def test_missing_required_flag_is_refused(name, key, tmp_path, capsys):
    # argparse names the flag before anything is read or written
    argv = [a for other in REQUIRED[name] if other != key
            for a in (flag(other), OPTION_TABLE[name][other][1])]
    assert cli.main([name, *argv, "--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert "usage error: the following arguments are required: " + flag(key) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name,key,bad,words", [
    ("gradient-check", "seed", "x", ["invalid int value"]),
    ("train-cnn", "epochs", "1.5", ["invalid int value"]),
    ("stream", "window", "3s", ["invalid float value"]),
    ("validate-dataset", "corpus", "crema", ["invalid choice", "ravdess", "tess"]),
    ("train-svm", "kernel", "poly", ["invalid choice", "rbf", "linear"]),
    ("eval", "split", "bogus", ["invalid choice", "test", "train", "val"])])
def test_bad_value_is_refused(name, key, bad, words, tmp_path, capsys):
    # a value not of its flag's type, or not one of its choices, is a usage
    # error naming the flag, the value and any choices, before anything is
    # read or written
    argv = [name, *required_argv(name), flag(key), bad]
    assert cli.main(argv + ["--out-dir", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert f"usage error: argument {flag(key)}: " in err
    assert all(word in err for word in [bad, *words])
    assert list(tmp_path.iterdir()) == []


# options the paper's protocol fixes, each with a value it once took, and the
# config file that could set every option a second way
REMOVED = [
    ("extract", "n_mels", "40"), ("extract", "target_length", "4000"),
    ("extract", "f_min", "50"), ("extract", "f_max", "4000"),
    ("validate-dataset", "manifest", "m.csv"),
    ("split", "ratios", "0.5,0.25,0.25"), ("split", "actor_disjoint", None),
    ("train-svm", "C", "2"), ("train-svm", "gamma", "0.5"),
    ("train-svm", "tol", "1e-4"), ("train-svm", "max_passes", "100"),
    ("train-cnn", "lr", "0.01"), ("train-cnn", "decay", "0"),
    ("train-cnn", "dense_units", "64"),
    ("sweep-svm", "C", "1"), ("sweep-svm", "frame_length", "512"),
    ("sweep-svm", "target_length", "9000"), ("sweep-svm", "n_mels", "30"),
    ("augment", "augmentations", "reverse"),
    ("stream", "emit", "csv"), ("stream", "chunk_size", "480"),
    ("gradient-check", "filters", "2"), ("gradient-check", "dense_units", "4"),
    ("gradient-check", "batch", "1"), ("gradient-check", "threshold", "0.5"),
    ("gradient-check", "full_width", None),
    ("audit-params", "n_mfcc", "20"), ("audit-params", "n_frames", "30"),
    *[(name, "config", "c.json") for name in sorted(OPTION_TABLE)],
]


@pytest.mark.parametrize("name,key,sample", REMOVED,
                         ids=[f"{n}-{k}" for n, k, _ in REMOVED])
def test_removed_option_is_refused(name, key, sample, tmp_path, capsys):
    # refused as unknown, with every required flag given; nothing is read or
    # written: no run directory, no file in the cwd
    run = tmp_path / "run"
    argv = [name, *required_argv(name), flag(key)]
    argv += [] if sample is None else [sample]
    assert cli.main(argv + ["--out-dir", str(run)]) == 1
    err = capsys.readouterr().err
    assert f"usage error: unrecognized arguments: {flag(key)}" in err
    assert list(tmp_path.iterdir()) == []
