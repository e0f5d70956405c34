#!/usr/bin/env python3
"""Run the benchmark for each workload and write BENCH_<workload>.json.

    python3 scripts/bench.py

For each workload, `perfbench/run.py` runs unchanged in its own process,
first with `--trace 0` (the end-to-end metrics) and then with `--trace 1`
(the per-layer metrics).  The file written at the repo root holds both
metric sets, whether each run was correct and how many operations it
attempted and failed, and the environment the numbers were taken in: git
revision and whether the tree was dirty, Python, numpy and BLAS versions,
CPU count, BLAS thread variables, the seed and seconds every run uses (SEED,
SECONDS) and `PYTHONDONTWRITEBYTECODE` (set, it makes `setup_s` include
compiling the program).  Exits 1, after writing every file, if a run reports incorrect
outputs or failed operations; a run that crashes stops the script there.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("extract", "cnn_train", "svm_sweep", "stream")
SEED = 1
SECONDS = 30.0


def run_perfbench(workload: str, seed: int, seconds: float, trace: int):
    """(environment, result) of one `perfbench/run.py` run: its `env` line
    and its last line, the JSON result object."""
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return env, json.loads(lines[-1])


def git_state():
    """(HEAD's revision, whether tracked files differ from it)."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain",
                                              "--untracked-files=no"))


def bench_record(workload, seed, seconds, plain, traced, rev, dirty) -> dict:
    """The BENCH_<workload>.json object from an untraced and a traced run."""
    (env, result), (_, traced_result) = plain, traced
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "git_rev": rev, "git_dirty": dirty,
        "environment": {
            "python": env["python"], "numpy": env["numpy"], "blas": env["blas"],
            "nproc": env["nproc"], "cpu_count": env["cpu_count"],
            "machine": env["machine"], "thread_env": env["thread_env"],
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "end_to_end": result["metrics"],
        "per_layer": traced_result["metrics"],
        "runs": {name: {k: r[k] for k in ("correct", "attempted", "failed")}
                 for name, r in (("trace0", result), ("trace1", traced_result))},
    }


def main(runner=run_perfbench) -> int:
    rev, dirty = git_state()
    ok = True
    for workload in WORKLOADS:
        plain = runner(workload, SEED, SECONDS, 0)
        traced = runner(workload, SEED, SECONDS, 1)
        record = bench_record(workload, SEED, SECONDS, plain, traced, rev, dirty)
        path = os.path.join(ROOT, f"BENCH_{workload}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        ok &= all(r["correct"] and not r["failed"] for r in record["runs"].values())
        print(f"{workload}: " + ", ".join(
            f"{k} = {v['value']:.6g} {v['unit']}"
            for k, v in record["end_to_end"].items()) + f" -> {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
