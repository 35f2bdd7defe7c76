"""Benchmark for ncretx: fixed-seed Monte Carlo sweeps through the public CLI.

    python3 perfbench/run.py --workload ratio-sweep --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --write-lock

One process runs one workload (WORKLOADS below; README.md in this directory
says why each exists) by calling `ncretx.cli.main`, checks every output, and
prints one JSON object as the last line of standard output:

    {"correct": true, "attempted": 41, "failed": 0, "metrics": {...}}

--trace 0 measures the end-to-end metrics with tracing off: the only timer
inside the program sits around `harness.run_replication`.  --trace 1 makes
traced runs of one sweep and reports the per-layer metrics.  A readable
report goes to standard error, and the full record, with the environment it
was measured in, to .bench_out/ at the root of the checkout.

Every run first repeats the behaviour-lock sweep at LOCK_SEED and compares
its CSV digest and payload-check outcome with lock.json; --write-lock
rewrites that file from the current code.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from multiprocessing.sharedctypes import RawArray
from pathlib import Path

import numpy as np

import verify
from spans import Patches, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
LOCK = HERE / "lock.json"
LOCK_SEED = 1
SETUP_SAMPLES = 11
PAYLOAD_LEN = 64
# A fixed reference loop, timed next to every measurement: on a shared
# machine the CPU speed drifts by 20-40% over seconds to minutes, and the
# loop's time tracks that drift closely enough to take it out.  It mixes
# small numpy table lookups (like the GF(2^8) code) with Python integer
# work (like the scheduler loops).
REF_TABLE = np.random.default_rng(0).integers(0, 256, size=(256, 256), dtype=np.uint8)
REF_NOMINAL_S = 3e-3  # the loop's time at the nominal speed all times are scaled to

# Mean ms per scheduler run from ROADMAP.md "Open items" (2-CPU sandbox,
# Python 3.11.7), printed next to the traced figures.
ROADMAP_MS_PER_RUN = {
    (30, 200): {"arq": 22, "greedy": 37, "sort-utility": 94, "benefit": 501, "rlnc": 1690},
    (10, 200): {"arq": 4.5, "greedy": 15, "sort-utility": 48, "benefit": 127, "rlnc": 526},
    (20, 20): {"arq": 1.2, "greedy": 1.3, "sort-utility": 2.3, "benefit": 8.5, "rlnc": 10},
}


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str | None        # run as `ncretx figure <preset>`, else `ncretx simulate`
    algorithms: tuple[str, ...]
    receivers: tuple[int, ...]
    loss: float
    batch: int
    reps: int                 # replications per grid point in one sweep
    workers: int
    payload: bool             # payload_check all five schedulers after each replication

    @property
    def schedulers(self) -> list[str]:
        return [a for a in self.algorithms if a != "theory"]

    @property
    def tasks(self) -> int:
        return len(self.receivers) * self.reps

    @property
    def payload_checks_per_task(self) -> int:
        from ncretx import SCHEDULER_NAMES
        return len(SCHEDULER_NAMES) if self.payload else 0

    @property
    def runs_per_task(self) -> int:
        """run_scheduler calls per replication: the ARQ baseline, every other
        scheduler, and one run inside each payload check."""
        return 1 + sum(a != "arq" for a in self.schedulers) + self.payload_checks_per_task

    def csv_path(self, out_dir: Path) -> Path:
        return out_dir / (f"{self.preset}.csv" if self.preset else "sweep.csv")

    def argv(self, seed: int, out_dir: Path, workers: int) -> list[str]:
        common = ["--receivers", ",".join(map(str, self.receivers)), "--reps", str(self.reps),
                  "--seed", str(seed), "--workers", str(workers)]
        if self.preset:
            return ["figure", self.preset, "--out", str(out_dir)] + common
        return ["simulate", "--algorithms", ",".join(self.algorithms),
                "--loss", str(self.loss), "--batch", str(self.batch),
                "--out", str(self.csv_path(out_dir))] + common

    def config(self) -> dict:
        """ExperimentConfig arguments equivalent to the CLI call."""
        return {"algorithms": list(self.algorithms), "receiver_counts": list(self.receivers),
                "loss_rates": [self.loss], "batch": self.batch,
                "replications": self.reps, "workers": self.workers}


WORKLOADS = {w.name: w for w in (
    Workload("ratio-sweep", "fig2", ("benefit", "sort-utility", "theory"), (10, 30),
             0.5, 200, reps=4, workers=1, payload=False),
    Workload("delay-sweep", "fig4", ("benefit", "sort-utility"), (5, 20),
             0.25, 20, reps=100, workers=2, payload=False),
    Workload("coding-compare", None, ("arq", "greedy", "sort-utility", "benefit", "rlnc"),
             (10,), 0.5, 200, reps=1, workers=1, payload=True),
)}


# ---------------------------------------------------------------- one sweep


def machine_speed() -> float:
    """How fast the machine runs now relative to nominal: REF_NOMINAL_S over
    the median time of five runs of the reference loop.  A time t measured
    now is t * machine_speed() at nominal speed."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        row = np.arange(200, dtype=np.uint8)
        total = 0
        for i in range(750):
            row ^= REF_TABLE[row, i & 255]
            for j in range(27):
                total += j * i % 7
        times.append(time.perf_counter() - start)
    return REF_NOMINAL_S / statistics.median(times)


class Stopwatch:
    """Adds up the time of the calls it makes, raw and at nominal speed.

    With `probe`, machine_speed() is measured before the first call and after
    each one, outside the timed calls, and each call is scaled by the mean
    speed around it; `probe_s` is the time the probes took.
    """

    def __init__(self, probe: bool):
        self.probe = probe
        self.raw_s = self.nominal_s = self.probe_s = 0.0
        self._speed = self._measure() if probe else 0.0

    def time(self, fn, *args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            took = time.perf_counter() - start
            self.raw_s += took
            if self.probe:
                before, self._speed = self._speed, self._measure()
                self.nominal_s += took * (before + self._speed) / 2

    def _measure(self) -> float:
        start = time.perf_counter()
        speed = machine_speed()
        self.probe_s += time.perf_counter() - start
        return speed


class ReplicationTimer:
    """Wall time of each harness.run_replication call plus its payload checks.

    The arrays are shared memory, so pool workers forked while the wrapper
    is installed write their timings where this process reads them.  With
    `probe`, each call is also scaled to nominal speed on its own (see
    Stopwatch); otherwise the sweep's speed applies to all of them.
    """

    def __init__(self, workload: Workload, base_seed: int, capture: bool = False,
                 probe: bool = False):
        from ncretx.harness import replication_seed
        w = workload
        self.workload = w
        self.receivers: list[int] = []
        self.index: dict[int, int] = {}
        for m in w.receivers:
            for r in range(w.reps):
                seed = replication_seed(base_seed, m, w.loss, w.batch, r)
                self.index[seed] = len(self.receivers)
                self.receivers.append(m)
        n = len(self.receivers)
        self.ms = RawArray("d", n)
        self.nominal_ms = RawArray("d", n)  # filled when probing
        self.pid = RawArray("q", n)
        self.rss_kb = RawArray("q", n)
        self.payload_failures = RawArray("i", n)
        self.done = RawArray("b", n)
        self.probe = probe
        self.probe_s = 0.0  # time the probes took, inside the sweep's wall time
        self.results: list | None = [] if capture else None

    def wrap(self, run_replication):
        def timed(names, receivers, loss, batch, seed):
            watch = Stopwatch(self.probe)
            rows = watch.time(run_replication, names, receivers, loss, batch, seed)
            failures = self._payload_checks(watch, receivers, loss, batch, seed) \
                if self.workload.payload else 0
            i = self.index[seed]
            self.ms[i] = watch.raw_s * 1e3
            self.nominal_ms[i] = watch.nominal_s * 1e3
            self.probe_s += watch.probe_s
            self.pid[i] = os.getpid()
            self.rss_kb[i] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            self.payload_failures[i] = failures
            self.done[i] = 1
            if self.results is not None:
                self.results.append(rows)
            return rows
        return timed

    @staticmethod
    def _payload_checks(watch: Stopwatch, receivers: int, loss: float, batch: int,
                        seed: int) -> int:
        # looked up on the module at call time, so traced runs trace them
        from ncretx import SCHEDULER_NAMES, harness
        from ncretx.model import IntegrityError
        params = harness.ChannelParams.homogeneous(receivers, loss, seed)
        matrix = watch.time(harness.sample_matrix, params, batch)
        failures = 0
        for name in SCHEDULER_NAMES:
            try:
                watch.time(harness.payload_check, matrix, name, PAYLOAD_LEN, seed)
            except IntegrityError:  # PayloadMismatch is one
                failures += 1
        return failures

    def payload_outcome(self) -> dict[str, int]:
        """What lock.json pins about the payload checks."""
        return {"payload_checks": sum(self.done) * self.workload.payload_checks_per_task,
                "payload_failures": sum(self.payload_failures)}

    def child_peak_kb(self) -> int:
        """Sum over this sweep's pool workers of each one's peak RSS."""
        peaks: dict[int, int] = {}
        for pid, kb in zip(self.pid, self.rss_kb):
            if pid and pid != os.getpid():
                peaks[pid] = max(peaks.get(pid, 0), kb)
        return sum(peaks.values())


@dataclass
class Sweep:
    seed: int
    wall_s: float
    speed: float              # machine_speed(), mean of before and after
    csv: Path
    digest: str | None        # sha256 of the CSV as the sweep left it
    error: str | None
    timer: ReplicationTimer

    def nominal_rep_ms(self) -> list[float]:
        t = self.timer
        return list(t.nominal_ms) if t.probe else [ms * self.speed for ms in t.ms]

    @property
    def nominal_wall_s(self) -> float:
        """Sweep wall time at nominal speed, without the speed probes: the
        replications at their own speed, the rest at the sweep's."""
        t = self.timer
        rest_s = self.wall_s - t.probe_s - sum(t.ms) / 1e3
        return sum(self.nominal_rep_ms()) / 1e3 + rest_s * self.speed


def run_sweep(w: Workload, seed: int, workers: int, out_dir: Path, tracer: Tracer | None = None,
              capture: bool = False, probe: bool = False) -> Sweep:
    from ncretx import cli, harness
    from ncretx.model import IntegrityError
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = w.csv_path(out_dir)
    csv_path.unlink(missing_ok=True)
    timer = ReplicationTimer(w, seed, capture, probe)
    patches = Patches()
    error = None
    speed = machine_speed()
    try:
        if tracer is not None:
            tracer.install(patches)
        patches.function(harness.run_replication, timer.wrap)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                status = cli.main(w.argv(seed, out_dir, workers))
            if status:
                error = f"ncretx exit status {status}: {err.getvalue().strip()}"
        except IntegrityError as exc:
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    finally:
        patches.restore()
    speed = (speed + machine_speed()) / 2
    digest = verify.sha256(csv_path) if error is None and csv_path.is_file() else None
    return Sweep(seed, wall, speed, csv_path, digest, error, timer)


class Ledger:
    """Operations attempted and failed: replications and output checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, what: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{what}: {p}" for p in problems]
        return not problems

    def sweep(self, w: Workload, sweep: Sweep, what: str, lock: dict | None = None) -> bool:
        """Count the sweep's replications, then check its output."""
        t = sweep.timer
        completed = sum(t.done)
        broken = sum(1 for f in t.payload_failures if f)
        self.attempted += completed + (sweep.error is not None)
        self.failed += broken + (sweep.error is not None)
        if broken:
            self.problems.append(f"{what}: payload check failed in {broken} replications")
        if sweep.error is not None:
            return self.check(what, [sweep.error])
        problems = verify.check_csv(sweep.csv, w.schedulers, list(w.receivers), w.loss,
                                    w.batch, w.reps, "theory" in w.algorithms)
        if completed != w.tasks:
            problems.append(f"replication timer saw {completed} of {w.tasks} replications")
        if lock is not None:
            if sweep.digest != lock["csv_sha256"]:
                problems.append(f"CSV sha256 {sweep.digest} != locked {lock['csv_sha256']}")
            outcome = t.payload_outcome()
            locked = {k: lock[k] for k in outcome}
            if outcome != locked:
                problems.append(f"payload outcome {outcome} != locked {locked}")
        return self.check(what, problems)


# ---------------------------------------------------------------- measurements


SETUP_CODE = """\
import json, sys, time
import numpy
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import ncretx.cli
from ncretx.harness import ExperimentConfig
ExperimentConfig(**json.loads(sys.argv[2]))
print(time.perf_counter() - start)
"""


def setup_time(w: Workload) -> tuple[float, float]:
    """Seconds a fresh interpreter, with numpy already imported, takes to
    import ncretx (which builds the GF tables) and build the config; and the
    machine speed around it.

    numpy's own import is left out: it was 60-160 ms, three quarters of the
    total, mostly OpenBLAS starting its threads, and it drifted on its own,
    while the package's part follows the reference loop.
    """
    args = [sys.executable, "-E", "-c", SETUP_CODE, str(SRC), json.dumps(w.config())]
    speed = machine_speed()
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True,
                          timeout=60, check=True)
    return float(done.stdout), (speed + machine_speed()) / 2


def p90(samples: list[float]) -> float:
    """90th percentile, interpolated between order statistics.  A fixed
    percentile rather than "the highest with ten samples beyond it": the
    in-process workloads have 8-40 samples per grid point, where that rule
    would swing between the maximum and the minimum as the count changes."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def lock_sweep(w: Workload, ledger: Ledger) -> Sweep:
    locked = json.loads(LOCK.read_text())
    if locked["lock_seed"] != LOCK_SEED or w.name not in locked["workloads"]:
        raise SystemExit(f"error: {LOCK} holds no lock for {w.name} at seed {LOCK_SEED}")
    sweep = run_sweep(w, LOCK_SEED, w.workers, OUT / w.name / "lock")
    ledger.sweep(w, sweep, f"lock sweep (seed {LOCK_SEED})", locked["workloads"][w.name])
    return sweep


def measure(w: Workload, seed: int, seconds: int, ledger: Ledger) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off, and the details behind them."""
    setup_time(w)  # warm-up, also compiles the bytecode of a fresh checkout
    lock = lock_sweep(w, ledger)  # warm-up for the sweeps
    ratio_mean, ttd_mean = verify.benefit_quality(lock.csv) if lock.digest else (0.0, 0.0)

    # set-up samples are spread over the run, like the sweeps
    setup: list[tuple[float, float]] = []
    sweeps: list[Sweep] = []
    attempts = 0
    start = time.perf_counter()
    while not attempts or time.perf_counter() - start < seconds:
        sweep = run_sweep(w, seed * 1000 + attempts, w.workers, OUT / w.name / "timed",
                          probe=w.workers == 1)
        attempts += 1
        if ledger.sweep(w, sweep, f"sweep seed {sweep.seed}"):
            sweeps.append(sweep)
        if len(setup) < SETUP_SAMPLES * (time.perf_counter() - start) / seconds:
            setup.append(setup_time(w))
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_time(w))
    if not sweeps:
        return {}, {}

    runs = w.tasks * w.runs_per_task
    raw: dict[int, list[float]] = {m: [] for m in w.receivers}
    rep_ms: dict[int, list[float]] = {m: [] for m in w.receivers}
    for sweep in sweeps:
        for m, ms, nominal in zip(sweep.timer.receivers, sweep.timer.ms, sweep.nominal_rep_ms()):
            raw[m].append(ms)
            rep_ms[m].append(nominal)
    tails = {m: p90(xs) for m, xs in rep_ms.items()}
    child_kb = max(s.timer.child_peak_kb() for s in sweeps)
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(t * speed for t, speed in setup),
        "runs_per_s": statistics.median(runs / s.nominal_wall_s for s in sweeps),
        "rep_ms_p50": geomean([statistics.median(xs) for xs in rep_ms.values()]),
        "rep_ms_tail": geomean(list(tails.values())),
        "peak_rss_mb": (self_kb + child_kb) / 1024,
        "ratio_mean": ratio_mean,
        "ttd_mean": ttd_mean,
    }
    details = {
        "unscaled": {"setup_s": statistics.median(t for t, _ in setup),
                     "runs_per_s": statistics.median(
                         runs / (s.wall_s - s.timer.probe_s) for s in sweeps),
                     "rep_ms_p50": geomean([statistics.median(xs) for xs in raw.values()]),
                     "rep_ms_tail": geomean([p90(xs) for xs in raw.values()])},
        "setup_samples": [{"s": t, "speed": speed} for t, speed in setup],
        "sweeps": [{"seed": s.seed, "wall_s": s.wall_s, "speed": s.speed,
                    "csv_sha256": s.digest} for s in sweeps],
        "rep_ms_by_M": {m: {"n": len(rep_ms[m]), "p50": statistics.median(rep_ms[m]),
                            "p90": tails[m], "beyond_p90": sum(x > tails[m] for x in rep_ms[m])}
                        for m in w.receivers},
        "peak_rss_kb": {"self": self_kb, "pool_children": child_kb},
        "quality_from": f"lock sweep, seed {LOCK_SEED}, sha256 {lock.digest}",
    }
    return metrics, details


def trace(w: Workload, seed: int, ledger: Ledger) -> tuple[dict, dict]:
    """Per-layer metrics from two traced in-process sweeps at one seed.

    No sweep here probes per replication, so all are scaled alike, by the
    speed around the whole sweep."""
    lock_sweep(w, ledger)
    plain = run_sweep(w, seed, 1, OUT / w.name / "plain")
    ledger.sweep(w, plain, "untraced in-process sweep")
    pooled = None
    if w.workers > 1:
        pooled = run_sweep(w, seed, w.workers, OUT / w.name / "pooled")
        ledger.sweep(w, pooled, "untraced pooled sweep")
    tracers = [Tracer(), Tracer()]
    traced = [run_sweep(w, seed, 1, OUT / w.name / f"traced{i}", tracer=t,
                        capture=pooled is not None) for i, t in enumerate(tracers)]
    for i, sweep in enumerate(traced):
        ledger.sweep(w, sweep, f"traced sweep {i}")

    ledger.check("tracing leaves the CSV unchanged", [
        f"sweep digest {s.digest} != untraced {plain.digest}"
        for s in traced + ([pooled] if pooled else []) if s.digest != plain.digest])
    counts = [t.count_metrics() for t in tracers]
    task_bytes = [sum(len(pickle.dumps(rows)) for rows in s.timer.results or []) for s in traced]
    for c, b in zip(counts, task_bytes):
        c["harness.task_result_bytes"] = b
    ledger.check("counts repeat between traced runs", [
        f"{k}: {counts[0][k]} then {counts[1][k]}"
        for k in counts[0] if counts[0][k] != counts[1][k]])
    t0 = tracers[0]
    runs = sum(t0.runs.values())
    ledger.check("scheduler runs as expected", [] if runs == w.tasks * w.runs_per_task else [
        f"{runs} run_scheduler calls, expected {w.tasks * w.runs_per_task}"])
    unattributed = [s.wall_s - t.spanned_s for s, t in zip(traced, tracers)]
    ledger.check("attribution closes", [
        f"self times {sum(t.self_s.values())} + unattributed {u} != wall {s.wall_s}"
        for s, t, u in zip(traced, tracers, unattributed)
        if u < 0 or not math.isclose(sum(t.self_s.values()) + u, s.wall_s, rel_tol=1e-9)])

    # times at nominal speed, like the end-to-end ones
    layers = [{k: v * s.speed if k.endswith("_s") else v for k, v in t.layer_metrics().items()}
              for s, t in zip(traced, tracers)]
    metrics = {k: statistics.fmean(l[k] for l in layers) for k in layers[0]}
    metrics.update(counts[0])
    tasks_s = sum(plain.nominal_rep_ms()) / 1e3
    metrics["harness.pool_overhead_s"] = (
        pooled.nominal_wall_s - (plain.nominal_wall_s - tasks_s) - tasks_s / w.workers
    ) if pooled else 0.0
    metrics["trace_overhead"] = \
        statistics.fmean(s.nominal_wall_s for s in traced) / plain.nominal_wall_s
    metrics["unattributed_s"] = statistics.fmean(
        u * s.speed for u, s in zip(unattributed, traced))
    details = {
        "traced_wall_s": [s.wall_s for s in traced],
        "untraced_wall_s": {"in_process": plain.wall_s,
                            "pooled": pooled.wall_s if pooled else None},
        "speeds": {"traced": [s.speed for s in traced], "in_process": plain.speed,
                   "pooled": pooled.speed if pooled else None},
        "ms_per_run": {f"{name} M={m} N={n}": {
            "traced_ms": 1e3 * t0.run_s[(name, m, n)] / t0.runs[(name, m, n)] * traced[0].speed,
            "runs": t0.runs[(name, m, n)],
            "roadmap_ms": ROADMAP_MS_PER_RUN.get((m, n), {}).get(name)}
            for (name, m, n) in sorted(t0.runs)},
        "csv_sha256": plain.digest,
    }
    return metrics, details


# ---------------------------------------------------------------- reporting


def environment(w: Workload, seed: int, traced: int) -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = None
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "ncretx").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": w.name, "seed": seed, "trace": traced,
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": os.cpu_count(), "cpu": cpu, "git_commit": commit,
            "source_sha256": source.hexdigest()}


def report(record: dict) -> None:
    err = sys.stderr
    env = record["environment"]
    print(f"# {env['workload']} seed={env['seed']} trace={env['trace']}: python "
          f"{env['python']}, numpy {env['numpy']}, {env['nproc']} CPUs ({env['cpu']}), "
          f"commit {env['git_commit']}, source {env['source_sha256'][:12]}", file=err)
    for name, m in record["result"]["metrics"].items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}", file=err)
    details = record["details"]
    for m, d in details.get("rep_ms_by_M", {}).items():
        print(f"  replication time at M={m}: p50 {d['p50']:.4g} ms, p90 {d['p90']:.4g} ms, "
              f"n={d['n']}, {d['beyond_p90']} beyond p90", file=err)
    if "ms_per_run" in details:
        times = {k: v["value"] for k, v in record["result"]["metrics"].items()
                 if k.endswith("_s") and k != "unattributed_s"}
        top = sorted(times, key=times.get, reverse=True)[:6]
        print("  largest self times: " + ", ".join(f"{k} {times[k]:.3g}s" for k in top), file=err)
        print("  ms per scheduler run (traced, inclusive, nominal speed) vs ROADMAP baseline:",
              file=err)
        for key, v in details["ms_per_run"].items():
            base = "" if v["roadmap_ms"] is None else f"  ROADMAP {v['roadmap_ms']}"
            print(f"    {key:28s} {v['traced_ms']:9.2f} ms (n={v['runs']}){base}", file=err)
    for problem in record["problems"]:
        print(f"  FAILED {problem}", file=err)


def write_lock() -> None:
    locks = {}
    for w in WORKLOADS.values():
        ledger = Ledger()
        sweep = run_sweep(w, LOCK_SEED, w.workers, OUT / w.name / "lock")
        if not ledger.sweep(w, sweep, f"{w.name} lock sweep"):
            raise SystemExit("error: " + "; ".join(ledger.problems))
        locks[w.name] = {"csv_sha256": sweep.digest, **sweep.timer.payload_outcome()}
    LOCK.write_text(json.dumps({"lock_seed": LOCK_SEED, "workloads": locks}, indent=2) + "\n")
    print(f"wrote {LOCK}")


def import_ncretx() -> None:
    """Import ncretx from this checkout's src/, never from anywhere else."""
    package = SRC / "ncretx"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no ncretx sources at {package}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ncretx
    if Path(ncretx.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: imported ncretx from {ncretx.__file__}, not {package}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--write-lock", action="store_true",
                        help="rerun the lock sweeps and rewrite lock.json")
    args = parser.parse_args()
    import_ncretx()
    if args.write_lock:
        write_lock()
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    w = WORKLOADS[args.workload]
    ledger = Ledger()
    if args.trace:
        values, details = trace(w, args.seed, ledger)
    else:
        values, details = measure(w, args.seed, args.seconds, ledger)
    if values and set(values) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(values) ^ set(units))} "
                         "do not match BENCHMARK.json")
    result = {"correct": ledger.failed == 0 and bool(values), "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values}}
    record = {"environment": environment(w, args.seed, args.trace), "result": result,
              "details": details, "problems": ledger.problems}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2, default=str) + "\n")
    report(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
