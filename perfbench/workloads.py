"""The four workloads, their set-up, their checks and their metrics.

Each workload drives the program as a user does: through
`emorec.cli.main([...])` in this process, and for streaming through
`StreamingClassifier.push`.  A run repeats a fixed round of work until its
time is up and reports medians over rounds.  The benchmark's seed only
shapes the generated inputs; every program call gets `--seed 0`.

Why these four:

* extract: `audio_io`, `dsp` and `features` do nearly all the work while
  `nn` and `svm` idle; it also shows how often each clip is decoded.
* cnn_train: `nn` does nearly all the work (throughput bound) and the front
  end idles.
* svm_sweep: `svm` dominates, `features` and `dsp` re-run once per n_mfcc
  point and `dataset` splits once per run; nothing else measures them.
* stream: the same `dsp`, `features` and `nn` at batch 1 under an open
  loop, bound by latency, where per-call overhead and BLAS threading count
  more than FLOPs.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import shutil
import statistics
import time
import wave
from dataclasses import dataclass, field

import numpy as np

from . import corpus, refmfcc

# extract's oracle tolerance: max |window - reference| over the z-scored
# (unit variance) window entries; room for a float32 path, not for an error
WINDOW_TOL = 1e-3
PROB_TOL = 1e-6


@dataclass
class Round:
    """What one round of a workload measured and produced."""

    wall: float                        # seconds of the timed operation
    attempted: int
    digest: str                        # hash of every output, for identity
    extra: dict = field(default_factory=dict)
    key: int = 0                       # rounds with equal keys compute the same


def cli_call(cli, argv: list[str]) -> tuple[int, float]:
    """Run `emorec <argv>` in-process, output swallowed; (exit code, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        code = cli.main([str(a) for a in argv])
        wall = time.perf_counter() - t0
    return code, wall


def cli_must(cli, argv: list) -> None:
    """Run an input-making or set-up command that has to succeed."""
    code, _ = cli_call(cli, argv)
    if code:
        raise RuntimeError(f"emorec {argv[0]} exited {code}")


def digest_files(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(os.path.basename(p).encode())
        if os.path.exists(p):
            with open(p, "rb") as fh:
                h.update(fh.read())
        else:
            h.update(b"<missing>")
    return h.hexdigest()


def read_wav(path: str) -> tuple[np.ndarray, int]:
    """Mono PCM16 via the standard library, scaled by 1/32768."""
    with wave.open(path, "rb") as fh:
        rate = fh.getframerate()
        data = fh.readframes(fh.getnframes())
    return np.frombuffer(data, dtype="<i2").astype(np.float64) / 32768.0, rate


class Batch:
    """A workload whose round is one timed CLI operation over `items`."""

    def shared(self, rounds: list[Round]) -> dict:
        wall = statistics.median(r.wall for r in rounds)
        return {"throughput_per_s": self.items / wall,
                "latency_ms": wall * 1e3}


def write_manifest(mods, path: str, wav_paths: list[str], split=None) -> None:
    """Manifest of RAVDESS-named clips, as `scripts/make_demo_data.py` does."""
    ds = mods["dataset"]
    records = [ds.parse_ravdess_filename(os.path.basename(p), path=p)
               for p in wav_paths]
    for r in records:
        r.split = split
    records.sort(key=lambda r: r.id)
    ds.write_manifest(path, records)


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

class Extract(Batch):
    """`emorec extract` over a RAVDESS-shaped corpus; one op per clip."""

    name = "extract"

    def __init__(self, per_class=8, durations=corpus.DURATION_RANGE):
        self.per_class = per_class
        self.durations = durations

    def prepare(self, mods, d: str, seed: int) -> None:
        self.wavs = corpus.make_corpus(os.path.join(d, "wavs"), seed,
                                       self.per_class, self.durations)
        self.clips = len(self.wavs)
        self.manifest = os.path.join(d, "manifest.csv")
        write_manifest(mods, self.manifest, self.wavs)
        self.warm_manifest = os.path.join(d, "warm.csv")
        write_manifest(mods, self.warm_manifest, self.wavs[::self.per_class])
        # the oracle, over the clips as the program will read them, one clip
        # in memory at a time so input generation stays below the program's
        # own peak memory
        target = 0
        for p in self.wavs:
            with wave.open(p, "rb") as fh:
                target = max(target, fh.getnframes())
        self.reference, self.labels = {}, {}
        for p in self.wavs:
            rid = os.path.basename(p)[:-4]
            self.reference[rid] = refmfcc.reference_window(*read_wav(p), target)
            self.labels[rid] = int(rid.split("-")[2]) - 1

    def setup(self, mods, d: str) -> None:
        self.split = os.path.join(d, "split.csv")
        cli_must(mods["cli"], ["split", "--manifest", self.manifest,
                               "--seed", 0, "--out", self.split, "--out-dir", d])
        cli_must(mods["cli"], ["extract", "--manifest", self.warm_manifest,
                               "--seed", 0, "--out-dir", os.path.join(d, "warm")])

    def round(self, mods, out: str, variant: int = 0) -> Round:
        code, wall = cli_call(mods["cli"], ["extract", "--manifest", self.split,
                                            "--seed", 0, "--out-dir", out])
        cache = os.path.join(out, "features.bin")
        digest = digest_files(cache, cache + ".json")
        return Round(wall, self.clips, digest, {"cache": cache, "code": code})

    def check(self, mods, r: Round) -> int:
        """Failed clips: wrong shape, non-finite, or off the reference."""
        if r.extra["code"]:
            return self.clips
        got = {rid: (label, m)
               for rid, label, m in mods["features"].load_feature_cache(r.extra["cache"])}
        failed = 0
        for rid, ref in self.reference.items():
            label, m = got.get(rid, (None, None))
            if (m is None or m.shape != (13, 26) or label != self.labels[rid]
                    or not np.all(np.isfinite(m))
                    or np.max(np.abs(m - ref)) > WINDOW_TOL):
                failed += 1
        return failed

    @property
    def items(self) -> int:
        return self.clips

    def summarize(self, rounds: list[Round]) -> dict:
        return {"clips_per_s": statistics.median(self.clips / r.wall
                                                 for r in rounds)}

    primary = ("clips_per_s", "higher")


# ---------------------------------------------------------------------------
# cnn_train
# ---------------------------------------------------------------------------

class CnnTrain(Batch):
    """`emorec train-cnn` then `emorec eval --roc`; one op per epoch."""

    name = "cnn_train"
    clips = 0

    def __init__(self, per_class=180, epochs=2):
        self.per_class = per_class
        self.epochs = epochs

    def prepare(self, mods, d: str, seed: int) -> None:
        windows, labels = corpus.synth_windows(seed, self.per_class)
        names = [corpus.ravdess_name(int(lab), i % self.per_class)
                 for i, lab in enumerate(labels)]
        self.cache = os.path.join(d, "features.bin")
        mods["features"].save_feature_cache(
            self.cache, [(n[:-4], int(lab), w)
                         for n, lab, w in zip(names, labels, windows)])
        manifest = os.path.join(d, "manifest.csv")
        write_manifest(mods, manifest, [os.path.join(d, n) for n in names])
        self.manifest = os.path.join(d, "split.csv")
        cli_must(mods["cli"], ["split", "--manifest", manifest, "--seed", 0,
                               "--out", self.manifest, "--out-dir", d])
        with open(self.manifest, newline="") as fh:
            self.n_train = sum(row["split"] == "train" for row in csv.DictReader(fh))

    def setup(self, mods, d: str) -> None:
        nn = mods["nn"]
        records = mods["features"].load_feature_cache(self.cache)
        x = np.stack([m for _, _, m in records[:32]])[..., None]
        y = np.array([label for _, label, _ in records[:32]])
        model = nn.build_emotion_cnn(seed=0)
        nn.loss_and_grads(model, x, y, rng=np.random.default_rng(0))

    def round(self, mods, out: str, variant: int = 0) -> Round:
        code, wall = cli_call(mods["cli"], [
            "train-cnn", "--features", self.cache, "--manifest", self.manifest,
            "--epochs", self.epochs, "--batch-size", 32, "--seed", 0,
            "--out-dir", out])
        model = os.path.join(out, "cnn_model.bin")
        history = os.path.join(out, "history.csv")
        eval_dir = os.path.join(out, "eval")
        eval_code = 1
        if code == 0:
            eval_code, _ = cli_call(mods["cli"], [
                "eval", "--model", model, "--features", self.cache,
                "--manifest", self.manifest, "--split", "test", "--roc",
                "--seed", 0, "--out-dir", eval_dir])
        digest = digest_files(model, history,
                              *(os.path.join(eval_dir, f) for f in
                                ("confusion.csv", "per_class.csv", "roc_auc.csv")))
        return Round(wall, self.epochs, digest,
                     {"history": history, "code": code or eval_code})

    def check(self, mods, r: Round) -> int:
        """Failed epochs: a nonzero exit, a missing epoch or a non-finite loss."""
        if r.extra["code"]:
            return self.epochs
        with open(r.extra["history"], newline="") as fh:
            losses = {int(row["epoch"]): float(row["train_loss"])
                      for row in csv.DictReader(fh)}
        return sum(not math.isfinite(losses.get(e, math.nan))
                   for e in range(1, self.epochs + 1))

    @property
    def items(self) -> int:
        return self.n_train * self.epochs

    def summarize(self, rounds: list[Round]) -> dict:
        return {"train_windows_per_s": statistics.median(
            self.items / r.wall for r in rounds)}

    primary = ("train_windows_per_s", "higher")


# ---------------------------------------------------------------------------
# svm_sweep
# ---------------------------------------------------------------------------

class SvmSweep(Batch):
    """`emorec sweep-svm`, both kernels, a few n_mfcc points; one op per row."""

    name = "svm_sweep"

    def __init__(self, per_class=8, points=(13, 40), runs=2,
                 durations=corpus.DURATION_RANGE):
        self.per_class = per_class
        self.points = points
        self.runs = runs
        self.durations = durations
        self.kernels = ("rbf", "linear")

    def prepare(self, mods, d: str, seed: int) -> None:
        wavs = corpus.make_corpus(os.path.join(d, "wavs"), seed,
                                  self.per_class, self.durations)
        self.clips = len(wavs)
        self.manifest = os.path.join(d, "manifest.csv")
        write_manifest(mods, self.manifest, wavs)
        self.warm_wav = wavs[0]

    def setup(self, mods, d: str) -> None:
        mods["dataset"].read_manifest(self.manifest)
        with open(self.warm_wav, "rb") as fh:
            clip = mods["audio_io"].decode_wav(fh.read())
        cfg = mods["features"].PipelineConfig(target_length=len(clip))
        mods["features"].extract_window(clip, cfg)

    def round(self, mods, out: str, variant: int = 0) -> Round:
        """One sweep over the split seeds variant * runs ... + runs - 1.

        The solver's cost depends on which clips land in the training split,
        far more than on anything else a seed changes, so each round of a
        run sweeps fresh splits and the run's figures pool them.
        """
        code, wall = cli_call(mods["cli"], [
            "sweep-svm", "--manifest", self.manifest,
            "--range", f"{self.points[0]}:{self.points[0]}:1",
            "--extra-points", ",".join(str(p) for p in self.points[1:]),
            "--runs", self.runs, "--kernels", ",".join(self.kernels),
            "--seed", variant * self.runs, "--out-dir", out])
        raw = os.path.join(out, "sweep_raw.csv")
        digest = digest_files(raw, os.path.join(out, "sweep_mean.csv"))
        return Round(wall, self.items, digest, {"raw": raw, "code": code},
                     key=variant)

    @property
    def items(self) -> int:
        """Sweep rows per round."""
        return len(self.kernels) * len(self.points) * self.runs

    def check(self, mods, r: Round) -> int:
        """Failed rows: missing, or accuracy outside [0, 1]."""
        if r.extra["code"]:
            return self.items
        good = set()
        with open(r.extra["raw"], newline="") as fh:
            for row in csv.DictReader(fh):
                acc = float(row["accuracy"])
                if 0.0 <= acc <= 1.0:
                    good.add((row["kernel"], int(row["n_mfcc"]), int(row["run"])))
        return sum((k, p, run) not in good for k in self.kernels
                   for p in self.points for run in range(self.runs))

    def summarize(self, rounds: list[Round]) -> dict:
        """Seconds per sweep, the mean over rounds: rounds differ in their
        splits, so their times are pooled, not ranked."""
        return {"sweep_s": statistics.fmean(r.wall for r in rounds)}

    def shared(self, rounds: list[Round]) -> dict:
        sweep_s = self.summarize(rounds)["sweep_s"]
        return {"throughput_per_s": self.items / sweep_s,
                "latency_ms": sweep_s * 1e3}

    primary = ("sweep_s", "lower")


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

@dataclass
class OpenLoop:
    """Feed fixed-size chunks, each due at a fixed multiple of real time.

    Chunk k is due when its last sample would have arrived:
    start + (k + 1) * chunk / (rate * speed).  An event's latency runs from
    the due time of the chunk that completed its window to the return of the
    push that emitted it, so a stall also delays later events.
    """

    chunk: int
    rate: int
    speed: float
    clock: object = time.perf_counter
    sleep: object = time.sleep

    def run(self, engine, samples: np.ndarray) -> "LoopResult":
        period = self.chunk / (self.rate * self.speed)
        res = LoopResult()
        start = self.clock()
        for k, pos in enumerate(range(0, len(samples), self.chunk)):
            due = start + (k + 1) * period
            now = self.clock()
            if now < due:
                self.sleep(due - now)
                now = self.clock()
            res.late_ms = max(res.late_ms, (now - due) * 1e3)
            out = engine.push(samples[pos:pos + self.chunk])
            done = self.clock()
            res.busy += done - now
            for e in out:
                res.events.append(e)
                res.latencies_ms.append((done - due) * 1e3)
                res.work_ms.append((done - now) * 1e3)
        return res


@dataclass
class LoopResult:
    events: list = field(default_factory=list)
    latencies_ms: list = field(default_factory=list)  # from due time
    work_ms: list = field(default_factory=list)       # the push that emitted it
    busy: float = 0.0                                 # seconds inside push
    late_ms: float = 0.0                              # worst generator lag


class Stream:
    """Open loop into `StreamingClassifier` at `speed` x real time."""

    name = "stream"
    clips = 0

    def __init__(self, seconds=30.0, speed=10.0, chunk=4800,
                 durations=corpus.DURATION_RANGE, window=3.0, hop=0.5):
        self.seconds = seconds
        self.speed = speed
        self.chunk = chunk
        self.durations = durations
        self.window = window
        self.hop = hop

    def prepare(self, mods, d: str, seed: int) -> None:
        """A long WAV, and a CNN container trained by the CLI on a few clips."""
        wavs = corpus.make_corpus(os.path.join(d, "wavs"), seed, 1,
                                  self.durations)
        manifest = os.path.join(d, "manifest.csv")
        write_manifest(mods, manifest, wavs, split="train")
        cli = mods["cli"]
        cache = os.path.join(d, "features.bin")
        self.model_path = os.path.join(d, "cnn_model.bin")
        for argv in (["extract", "--manifest", manifest, "--out", cache],
                     ["train-cnn", "--features", cache, "--manifest", manifest,
                      "--epochs", 1, "--batch-size", 8, "--out",
                      self.model_path]):
            cli_must(cli, argv + ["--seed", 0, "--out-dir", d])
        self.wav = os.path.join(d, "stream.wav")
        corpus.write_wav(self.wav, corpus.long_stream(seed, self.seconds))

    def setup(self, mods, d: str) -> None:
        nn, streaming = mods["nn"], mods["streaming"]
        self.model = nn.load_cnn(self.model_path)
        self.pipeline = mods["features"].PipelineConfig.from_dict(
            self.model.pipeline_config["pipeline"])
        with open(self.wav, "rb") as fh:
            self.clip = mods["audio_io"].decode_wav(fh.read())
        self.stream_cfg = streaming.StreamConfig(window_seconds=self.window,
                                                 hop_seconds=self.hop)
        engine = self.engine(mods)
        engine.push(self.clip.samples[:engine.window_samples])

    def engine(self, mods):
        return mods["streaming"].StreamingClassifier(
            self.model, self.pipeline, self.stream_cfg, self.clip.sample_rate)

    @property
    def expected_events(self) -> int:
        duration = len(self.clip.samples) / self.clip.sample_rate
        return math.floor((duration - self.window) / self.hop + 1e-9) + 1

    def round(self, mods, out: str, variant: int = 0) -> Round:
        loop = OpenLoop(self.chunk, self.clip.sample_rate, self.speed)
        res = loop.run(self.engine(mods), self.clip.samples)
        h = hashlib.sha256()
        for e in res.events:
            h.update(np.array([e.t_start, e.t_end, e.label], dtype="<f8").tobytes())
            h.update(np.asarray(e.probs, dtype="<f8").tobytes())
        return Round(res.busy, self.expected_events, h.hexdigest(),
                     {"loop": res, "late_ms": res.late_ms,
                      "audio_s": len(self.clip.samples) / self.clip.sample_rate})

    def check(self, mods, r: Round) -> int:
        """Failed events: off the schedule, probabilities not summing to 1,
        or a label that is not the argmax."""
        events = r.extra["loop"].events
        due = [self.window + k * self.hop for k in range(self.expected_events)]
        failed = abs(len(events) - len(due))
        for e, t_end in zip(events, due):
            p = np.asarray(e.probs, dtype=np.float64)
            if (abs(e.t_end - t_end) > 1e-6 or not np.all(np.isfinite(p))
                    or abs(p.sum() - 1.0) > PROB_TOL
                    or e.label != int(np.argmax(p))):
                failed += 1
        return min(failed, self.expected_events)

    def summarize(self, rounds: list[Round]) -> dict:
        """Latency percentiles over every event of the run; rtf per round,
        median over rounds."""
        lat = [x for r in rounds for x in r.extra["loop"].latencies_ms]
        return {"event_ms_p50": float(np.percentile(lat, 50)),
                "event_ms_p99": float(np.percentile(lat, 99)),
                "rtf": statistics.median(r.wall / r.extra["audio_s"]
                                         for r in rounds),
                "events": len(lat)}

    def shared(self, rounds: list[Round]) -> dict:
        """Events per second of processing, from the median event's cost,
        and the median latency from the due time."""
        work = [x for r in rounds for x in r.extra["loop"].work_ms]
        return {"throughput_per_s": 1e3 / statistics.median(work),
                "latency_ms": self.summarize(rounds)["event_ms_p50"]}

    primary = ("rtf", "lower")


SIZES = {
    "full": {
        "extract": dict(per_class=8),
        "cnn_train": dict(per_class=180, epochs=2),
        # 2 split runs per point and round; rounds sweep fresh splits
        "svm_sweep": dict(per_class=8, points=(13, 40), runs=2),
        "stream": dict(seconds=30.0, speed=10.0),
    },
    # seconds-long smoke runs for the benchmark's own tests
    "tiny": {
        "extract": dict(per_class=5, durations=(1.0, 1.4)),
        "cnn_train": dict(per_class=10, epochs=1),
        "svm_sweep": dict(per_class=5, points=(13,), runs=1,
                          durations=(1.0, 1.4)),
        "stream": dict(seconds=6.0, speed=40.0, durations=(1.0, 1.4)),
    },
}

WORKLOADS = {w.name: w for w in (Extract, CnnTrain, SvmSweep, Stream)}

# units of the figures each workload's `summarize` returns
NAMED_UNITS = {"clips_per_s": "1/s", "train_windows_per_s": "1/s",
               "sweep_s": "s", "event_ms_p50": "ms", "event_ms_p99": "ms",
               "rtf": "ratio", "events": "count"}


def make(name: str, size: str = "full"):
    return WORKLOADS[name](**SIZES[size][name])


def scratch_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
