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
        n_mfcc=(13, "20", 20), frame_length=(2048, "512", 512),
        n_mels=(26, "40", 40), target_length=(0, "4000", 4000),
        f_min=(0.0, "50", 50.0), f_max=(None, "4000", 4000.0)),
    "validate-dataset": dict(
        manifest=(None, "m.csv", "m.csv"), data_root=(None, "d", "d"),
        corpus=("ravdess", "tess", "tess")),
    "split": dict(
        manifest=(None, "m.csv", "m.csv"),
        ratios=("0.6,0.2,0.2", "0.5,0.25,0.25", "0.5,0.25,0.25"),
        actor_disjoint=(False, None, True), out=(None, "s.csv", "s.csv")),
    "train-svm": dict(
        features=(None, "f.bin", "f.bin"), manifest=(None, "m.csv", "m.csv"),
        kernel=("rbf", "linear", "linear"), C=(10.0, "2", 2.0),
        gamma=("scale", "0.5", "0.5"), tol=(1e-3, "1e-4", 1e-4),
        max_passes=(10_000_000, "100", 100), out=(None, "s.bin", "s.bin")),
    "train-cnn": dict(
        features=(None, "f.bin", "f.bin"), manifest=(None, "m.csv", "m.csv"),
        epochs=(10, "3", 3), batch_size=(32, "8", 8), lr=(1e-4, "0.01", 0.01),
        decay=(1e-6, "0", 0.0), dense_units=(512, "64", 64),
        out=(None, "c.bin", "c.bin")),
    "eval": dict(
        model=(None, "c.bin", "c.bin"), features=(None, "f.bin", "f.bin"),
        manifest=(None, "m.csv", "m.csv"), split=("test", "val", "val"),
        roc=(False, None, True), compare_reference=(False, None, True)),
    "sweep-svm": dict(
        manifest=(None, "m.csv", "m.csv"),
        range=("10:120:10", "10:20:10", "10:20:10"),
        extra_points=("13,100", "13", "13"), runs=(10, "2", 2),
        kernels=("rbf,linear", "rbf", "rbf"), C=(10.0, "1", 1.0),
        frame_length=(2048, "512", 512), target_length=(0, "9000", 9000),
        n_mels=(26, "30", 30)),
    "augment": dict(
        manifest=(None, "m.csv", "m.csv"),
        augmentations=("reverse,invert", "reverse", "reverse"),
        out=(None, "a.csv", "a.csv")),
    "stream": dict(
        model=(None, "c.bin", "c.bin"), wav=(None, "x.wav", "x.wav"),
        window=(3.0, "2", 2.0), hop=(0.5, "1", 1.0),
        emit=("text", "csv", "csv"), chunk_size=(4096, "480", 480)),
    "gradient-check": dict(
        filters=(8, "2", 2), dense_units=(16, "4", 4), batch=(2, "1", 1),
        threshold=(1e-4, "0.5", 0.5), full_width=(False, None, True)),
    "audit-params": dict(n_mfcc=(13, "20", 20), n_frames=(26, "30", 30)),
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
    # a JSON integer is a number, as "50" on the command line is a float
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "f_min": 50, "f_max": 4000}))
    got = resolved(["extract", "--config", str(cfg)])
    assert_same({k: got[k] for k in ("f_min", "f_max")},
                {"f_min": 50.0, "f_max": 4000.0})


def test_config_number_for_text_option(tmp_path):
    # "gamma": 0.5 trains with gamma 0.5, as the flag --gamma 0.5 does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"version": 1, "gamma": 0.5}))
    assert resolved(["train-svm", "--config", str(cfg)])["gamma"] == "0.5"
