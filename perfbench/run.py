"""Benchmark for emorec: one command, four workloads.

    python3 perfbench/run.py --workload extract --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`.
Inputs are generated from `--seed` outside timing.  Set-up (fresh import
of the program, container loads, construction, warm-up) is repeated and its
median reported.  Then, after one unrecorded warm-up round, the workload's
round repeats until `--seconds` is spent.  With `--trace 0` the end-to-end
metrics are printed; with `--trace 1` rounds alternate untraced and traced,
the per-layer metrics of the traced rounds are printed, and every traced
round must leave outputs byte-identical to the untraced ones.

Every workload reports the same end-to-end metrics: `setup_s`,
`peak_rss_mb`, `throughput_per_s` (clips, training windows, sweep rows or
stream events per second of the timed operation) and `latency_ms` (the
median time of one timed operation; for `svm_sweep`, whose rounds sweep
different splits, the mean; for `stream`, the median time of one event
from the moment its last chunk was due).  The human-readable lines also
give each workload's own figures (clips_per_s, train_windows_per_s,
sweep_s, event_ms_p50/p99, rtf) and the environment; the last line is the
JSON result.  Scratch files live under `.perfbench_work/` in the checkout
and are removed at exit; traced runs write their spans to `.perfbench_out/`.
BLAS and OpenMP thread variables are recorded, never set.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 5
MODULES = ("audio_io", "dsp", "features", "dataset", "nn", "svm", "sweep",
           "metrics", "streaming", "cli")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB",
                    "throughput_per_s": "1/s", "latency_ms": "ms"}
# per-layer figures that come from the benchmark's own clocks, not spans
EXTRA_LAYER_UNITS = {"stream.gen_late_ms_max": "ms",
                     "stream.event_ms_p99": "ms", "stream.rtf": "ratio",
                     "trace.overhead_pct": "%"}


def fresh_import() -> tuple[dict, float]:
    """Drop every loaded `emorec` module and import the package again."""
    for name in [m for m in sys.modules
                 if m == "emorec" or m.startswith("emorec.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    mods = {name: importlib.import_module(f"emorec.{name}") for name in MODULES}
    took = time.perf_counter() - t0
    if not mods["cli"].__file__.startswith(SRC + os.sep):
        raise ImportError(f"emorec imported from {mods['cli'].__file__}, not {SRC}")
    return mods, took


def environment(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy without the dict form
        blas = "unknown"
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


def overhead_pct(wl, plain: dict, traced: dict) -> float:
    """How much worse the traced rounds' headline figure is, in percent."""
    metric, better = wl.primary
    a, b = plain[metric], traced[metric]
    return (a / b - 1.0) * 100 if better == "higher" else (b / a - 1.0) * 100


class Measurement:
    """Rounds of one run, their verdicts and, when traced, their layers."""

    def __init__(self):
        self.plain, self.traced, self.layers = [], [], []
        self.missing: list[str] = []
        self.setups: list[float] = []
        self.walls: list[float] = []
        self.attempted = self.failed = 0
        self.digests: dict[int, set[str]] = {}  # round key -> digests
        self.verdicts: dict[str, int] = {}
        self.peak_rss_mb = 0.0


def measure(wl, tmp: str, seed: int, seconds: float, trace: bool, rec):
    from perfbench import trace as tracing
    from perfbench import workloads

    m = Measurement()
    mods, _ = fresh_import()
    wl.prepare(mods, workloads.scratch_dir(tmp, "inputs"), seed)
    for k in range(SETUP_REPS):
        mods, t_import = fresh_import()
        t0 = time.perf_counter()
        wl.setup(mods, workloads.scratch_dir(tmp, f"setup{k}"))
        m.setups.append(t_import + time.perf_counter() - t0)

    start = time.perf_counter()
    # the first round in a process runs up to a third slower (lazily built
    # tables, a cold allocator); it is run once, unrecorded, within the time
    wl.round(mods, workloads.scratch_dir(tmp, "warmup"), 0)
    shutil.rmtree(os.path.join(tmp, "warmup"), ignore_errors=True)
    while True:
        in_trace = trace and len(m.walls) % 2 == 1
        # a traced round repeats the input of the untraced round before it
        variant = len(m.walls) // 2 if trace else len(m.walls)
        round_dir = workloads.scratch_dir(tmp, f"round{len(m.walls)}")
        t0 = time.perf_counter()
        if in_trace:
            mark = rec.mark()
            with tracing.traced(mods, rec) as m.missing:
                r = wl.round(mods, round_dir, variant)
            layers = tracing.layer_metrics(rec.since(mark), wl.clips)
            layers["stream.gen_late_ms_max"] = r.extra.get("late_ms", 0.0)
            m.layers.append(layers)
            m.traced.append(r)
        else:
            r = wl.round(mods, round_dir, variant)
            m.plain.append(r)
        # identical outputs get identical verdicts, so check each once
        if r.digest not in m.verdicts:
            m.verdicts[r.digest] = wl.check(mods, r)
        m.digests.setdefault(r.key, set()).add(r.digest)
        m.attempted += r.attempted
        m.failed += m.verdicts[r.digest]
        shutil.rmtree(round_dir, ignore_errors=True)
        m.walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(m.walls) >= (2 if trace else 1)
                and elapsed + statistics.median(m.walls) > seconds):
            break
    m.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return m


def run(workload: str, seed: int, seconds: float, trace: bool,
        size: str = "full", out=print) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    from perfbench import trace as tracing
    from perfbench import workloads

    wl = workloads.make(workload, size)
    rec = tracing.Recorder()
    work = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{workload}-", dir=work)
    try:
        m = measure(wl, tmp, seed, seconds, trace, rec)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            os.rmdir(work)

    # rounds with the same key compute the same thing, traced or not
    identical = all(len(d) == 1 for d in m.digests.values())
    out(f"env {json.dumps(environment(workload, seed, seconds, trace), sort_keys=True)}")
    named = wl.summarize(m.plain)
    for k, v in named.items():
        out(f"{workload} {k} = {v:.6g} {workloads.NAMED_UNITS[k]} "
            f"(untraced, {len(m.plain)} rounds)")
    walls = sorted(r.wall for r in m.plain)
    out("timed seconds per untraced round: min {:.6g} q1 {:.6g} median {:.6g} "
        "max {:.6g}".format(walls[0], walls[len(walls) // 4],
                            statistics.median(walls), walls[-1]))

    if not trace:
        values = {"setup_s": statistics.median(m.setups),
                  "peak_rss_mb": m.peak_rss_mb, **wl.shared(m.plain)}
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    else:
        t_named = wl.summarize(m.traced)
        for k, v in t_named.items():
            out(f"{workload} {k} = {v:.6g} {workloads.NAMED_UNITS[k]} "
                f"(traced, {len(m.traced)} rounds)")
        values = {name: statistics.median(l[name] for l in m.layers)
                  for name in m.layers[0]}
        # against the untraced rounds of the same inputs only
        keys = {r.key for r in m.traced}
        values["trace.overhead_pct"] = overhead_pct(
            wl, wl.summarize([r for r in m.plain if r.key in keys]), t_named)
        values["stream.event_ms_p99"] = named.get("event_ms_p99", 0.0)
        values["stream.rtf"] = named.get("rtf", 0.0)
        units = {**tracing.LAYER_UNITS, **EXTRA_LAYER_UNITS}
        gone = sorted(set(m.missing) | rec.broken)
        metrics = {name: {"value": values[name], "unit": units[name]}
                   for name in tracing.available(gone) + list(EXTRA_LAYER_UNITS)}
        if gone:
            out(f"trace targets missing or changed (metrics dropped): {', '.join(gone)}")
        spans_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(spans_dir, exist_ok=True)
        rec.dump(os.path.join(spans_dir, f"spans_{workload}_seed{seed}.jsonl"))

    out(f"set-ups: {len(m.setups)}; rounds: {len(m.walls)}; "
        f"outputs identical across rounds of the same input (traced or not): {identical}")
    for k, v in metrics.items():
        out(f"{k} = {v['value']:.6g} {v['unit']}")
    out(f"attempted = {m.attempted} failed = {m.failed}")
    return {"correct": identical and m.failed == 0, "attempted": m.attempted,
            "failed": m.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("extract", "cnn_train", "svm_sweep", "stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "emorec", "__init__.py")):
        print(f"error: no program at {SRC}/emorec; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
