"""scripts/bench.py assembles BENCH_<workload>.json from two perfbench runs;
here the runs are stubs, so no benchmark process starts."""

import importlib.util
import json
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "bench.py")


@pytest.fixture
def bench(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "ROOT", str(tmp_path))
    monkeypatch.setattr(module, "git_state", lambda: ("abc123", True))
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    return module


ENV = {"workload": "extract", "seed": 1, "seconds": 30.0, "trace": 0,
       "python": "3.11.7", "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31",
       "thread_env": {"OPENBLAS_NUM_THREADS": None}, "nproc": 2,
       "cpu_count": 2, "machine": "x86_64"}


def stub_runner(calls, correct=True, failed=0):
    def runner(workload, seed, seconds, trace):
        calls.append((workload, seed, seconds, trace))
        metrics = ({"dsp.fft_ms": {"value": 12.5, "unit": "ms"}} if trace else
                   {"throughput_per_s": {"value": 700.0, "unit": "1/s"},
                    "latency_ms": {"value": 90.0, "unit": "ms"}})
        return ({**ENV, "workload": workload, "trace": trace},
                {"correct": correct, "attempted": 10 + trace, "failed": failed,
                 "metrics": metrics})
    return runner


def test_one_file_per_workload_from_an_untraced_then_a_traced_run(bench, tmp_path):
    calls = []
    assert bench.main(runner=stub_runner(calls)) == 0
    assert calls == [(w, 1, 30.0, trace) for w in bench.WORKLOADS for trace in (0, 1)]
    assert sorted(os.listdir(tmp_path)) == sorted(f"BENCH_{w}.json"
                                                  for w in bench.WORKLOADS)
    record = json.loads((tmp_path / "BENCH_extract.json").read_text())
    assert record["workload"] == "extract"
    assert (record["seed"], record["seconds"]) == (1, 30.0)
    assert (record["git_rev"], record["git_dirty"]) == ("abc123", True)
    assert record["end_to_end"] == {"throughput_per_s": {"value": 700.0, "unit": "1/s"},
                                    "latency_ms": {"value": 90.0, "unit": "ms"}}
    assert record["per_layer"] == {"dsp.fft_ms": {"value": 12.5, "unit": "ms"}}
    assert record["runs"] == {"trace0": {"correct": True, "attempted": 10, "failed": 0},
                              "trace1": {"correct": True, "attempted": 11, "failed": 0}}
    env = record["environment"]
    assert env["PYTHONDONTWRITEBYTECODE"] == "1"
    assert {k: env[k] for k in ("numpy", "blas", "nproc", "python")} == {
        "numpy": "2.4.6", "blas": "scipy-openblas 0.3.31", "nproc": 2,
        "python": "3.11.7"}


@pytest.mark.parametrize("correct, failed", [(False, 0), (True, 3)])
def test_incorrect_or_failing_run_exits_1_after_writing(bench, tmp_path, correct,
                                                        failed):
    assert bench.main(runner=stub_runner([], correct, failed)) == 1
    record = json.loads((tmp_path / "BENCH_svm_sweep.json").read_text())
    assert record["runs"]["trace0"]["correct"] is correct
    assert record["runs"]["trace0"]["failed"] == failed

