"""The CLI's option table, pinned per subcommand: its flags, the config keys
it accepts, each resolved default, and the type a flag's value parses to.

The options a subcommand works with are read from inside it: `main` runs
under a trace hook that stops it at the first line of the `cmd_*` function
where the resolved `opts` namespace is in scope, before any input is read.
"""

import argparse
import json
import sys

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


class _Resolved(Exception):
    pass


def _stop_at_opts(frame, event, arg):
    if not frame.f_code.co_name.startswith("cmd_"):
        return None

    def local(frame, event, arg):
        if "opts" in frame.f_locals:
            raise _Resolved(dict(vars(frame.f_locals["opts"])))
        return local
    return local


def resolved(argv) -> dict:
    """The options the subcommand of argv sees once they are resolved."""
    previous = sys.gettrace()
    sys.settrace(_stop_at_opts)
    try:
        code = cli.main(argv)
    except _Resolved as stop:
        return stop.args[0]
    finally:
        sys.settrace(previous)
    raise AssertionError(f"{argv[0]} exited {code} before resolving its options")


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
        assert flags == ({"-h", "--help", "--config", "--seed", "--out-dir"}
                         | {flag(key) for key in table}), name


@pytest.mark.parametrize("name", sorted(OPTION_TABLE))
def test_resolved_defaults(name):
    want = {key: default for key, (default, _, _) in
            {**OPTION_TABLE[name], **COMMON}.items()}
    assert_same(resolved([name]), {**want, "out_dir": None})


@pytest.mark.parametrize("name", sorted(OPTION_TABLE))
def test_flag_values_parse_to_their_types(name, tmp_path):
    argv, want = [name], {"out_dir": str(tmp_path / "o")}
    for key, (_, sample, parsed) in {**OPTION_TABLE[name], **COMMON}.items():
        argv += [flag(key)] if sample is None else [flag(key), sample]
        want[key] = parsed
    assert_same(resolved(argv + ["--out-dir", want["out_dir"]]), want)


@pytest.mark.parametrize("name", sorted(OPTION_TABLE))
def test_config_keys_are_the_options(name, tmp_path):
    want = {key: parsed for key, (_, _, parsed) in
            {**OPTION_TABLE[name], **COMMON}.items()}
    want["out_dir"] = str(tmp_path / "o")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, **want}))
    assert_same(resolved([name, "--config", str(cfg)]), want)
    # a flag overrides the config file
    assert_same(resolved([name, "--config", str(cfg), "--seed", "5"]),
                {**want, "seed": 5})
    for key in ("bogus_key", "config", "command"):
        cfg.write_text(json.dumps({"version": 1, key: 1}))
        assert cli.main([name, "--config", str(cfg)]) == 2


def test_config_number_for_float_option(tmp_path):
    # a JSON integer is a number, as "2" on the command line is a float
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "window": 2, "hop": 1}))
    got = resolved(["stream", "--config", str(cfg)])
    assert_same({k: got[k] for k in ("window", "hop")},
                {"window": 2.0, "hop": 1.0})


def test_config_number_for_text_option(tmp_path):
    # "extra_points": 20 sweeps point 20, as the flag --extra-points 20 does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "extra_points": 20}))
    assert resolved(["sweep-svm", "--config", str(cfg)])["extra_points"] == "20"


# options the paper's protocol fixes, each with a value it once took
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
]


@pytest.mark.parametrize("name,key,sample", REMOVED,
                         ids=[f"{n}-{k}" for n, k, _ in REMOVED])
def test_removed_option_is_refused(name, key, sample, tmp_path, capsys):
    # nothing is read or written: no run directory, no file in the cwd
    run = tmp_path / "run"
    argv = [name, flag(key)] + ([] if sample is None else [sample])
    assert cli.main(argv + ["--out-dir", str(run)]) == 1
    assert "usage error" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, key: True if sample is None else sample}))
    assert cli.main([name, "--config", str(cfg), "--out-dir", str(run)]) == 2
    assert f"config keys not understood: [{key!r}]" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
