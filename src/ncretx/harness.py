"""Monte Carlo experiment engine: parameter sweeps, golden traces, payloads.

Runs replications over a grid of (receiver count, loss rate) points.  All
schedulers at one grid point see the same sampled matrix per replication
(paired comparison), with the plain-ARQ count always computed as the
ratio denominator.  Results come out as CSV rows in a fixed schema:

    algorithm,M,N,p,replication,seed,retransmissions,
    baseline_retransmissions,ratio,ttd_mean,ttd_std

One row per (algorithm, grid point, replication), then per grid point and
algorithm two aggregate rows (replication="mean": averages across runs,
with ttd_std the deviation of per-run means; replication="pooled": all
time-to-decode samples pooled, with the per-packet deviation) and, when
requested, one "theory" row with the analytic floor.  A run's row and a
pooled row read their ttd_mean and ttd_std through ``metrics.moments``,
from exact integer (count, sum, sum of squares): a pooled row adds its
runs' sums, so with one replication it equals that run's row.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelParams, sample_matrix
from .gf import Gf256Basis, mat_mul, solve
from .metrics import moments, retransmission_ratio, run_metrics, time_to_decode
from .model import MAX_CELLS, RECEIVED, IntegrityError, TransmissionMatrix
from .schedulers import SCHEDULER_NAMES, RunResult, run_scheduler
from .theory import TheoryParams, expected_baseline_retx, expected_min_retx

# The most runs one sweep may make: replications (grid points times reps),
# or grid points in a theory-only sweep.  fig2 at 10,000 reps makes 290,000.
MAX_SWEEP_RUNS = 1_000_000

CSV_COLUMNS = ("algorithm", "M", "N", "p", "replication", "seed",
               "retransmissions", "baseline_retransmissions", "ratio",
               "ttd_mean", "ttd_std")


def check_unique(what: str, values) -> None:
    """Reject a sweep axis that lists a value twice: its rows would repeat."""
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{what} {value!r} given more than once")
        seen.add(value)


@dataclass
class ExperimentConfig:
    algorithms: list[str]
    receiver_counts: list[int]
    loss_rates: list[float]
    batch: int
    replications: int = 1000
    base_seed: int = 0
    output_path: str | Path | None = None
    workers: int | None = None  # None: one per CPU, at most 8; 1: in-process

    def __post_init__(self) -> None:
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        check_unique("algorithm", self.algorithms)
        check_unique("receiver count", self.receiver_counts)
        check_unique("loss rate", self.loss_rates)
        for name in self.algorithms:
            if name != "theory" and name not in SCHEDULER_NAMES:
                raise ValueError(f"unknown algorithm {name!r}")
        if any(m < 2 for m in self.receiver_counts):
            raise ValueError("need at least 2 receivers")
        if not self.receiver_counts:
            raise ValueError("need at least one receiver count")
        if not self.loss_rates:
            raise ValueError("need at least one loss rate")
        written: dict[str, float] = {}  # rates the CSV writes alike would repeat its rows
        for p in self.loss_rates:
            ChannelParams.homogeneous(2, p)  # raises on a rate outside [0, 1]
            if (other := written.setdefault(_fmt(p), p)) != p:
                raise ValueError(f"loss rates {other!r} and {p!r} are both written as {_fmt(p)}")
        if self.batch < 1:
            raise ValueError("batch size must be >= 1")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")
        # before run_experiment builds a list per run or samples a matrix
        runs = len(self.receiver_counts) * len(self.loss_rates)
        if self.scheduler_names:
            runs *= self.replications
        if runs > MAX_SWEEP_RUNS:
            raise ValueError(f"the sweep would make {runs} runs; at most {MAX_SWEEP_RUNS}")
        cells = max(self.receiver_counts) * self.batch
        if self.scheduler_names and cells > MAX_CELLS:
            raise ValueError(f"{max(self.receiver_counts)} receivers x batch {self.batch} is "
                             f"{cells} loss cells; at most {MAX_CELLS} per replication")
        if self.wants_theory:  # raises on a batch or a receiver count above its cap
            TheoryParams.homogeneous(max(self.receiver_counts), self.batch, 0.5)
        if self.output_path is not None:  # before a sweep that may run for minutes
            out = Path(self.output_path)
            if not out.parent.is_dir():
                raise ValueError(f"output directory {out.parent} does not exist")
            if out.is_dir():
                raise ValueError(f"output path {out} is a directory")

    @property
    def scheduler_names(self) -> list[str]:
        return [a for a in self.algorithms if a != "theory"]

    @property
    def wants_theory(self) -> bool:
        return "theory" in self.algorithms


def replication_seed(base_seed: int, receivers: int, loss: float, batch: int,
                     replication: int) -> int:
    """Stable 64-bit seed for one grid point and replication."""
    tag = f"{base_seed}|{receivers}|{loss:.12g}|{batch}|{replication}"
    return int.from_bytes(hashlib.blake2b(tag.encode(), digest_size=8).digest(), "big")


def _check_run(result: RunResult, baseline: RunResult, matrix: TransmissionMatrix) -> None:
    retx = result.schedule.retransmission_count
    if any(len(state.recovery_slot) < matrix.batch for state in result.receivers):
        raise IntegrityError(f"{result.algorithm}: unrecovered cells")
    if retx < matrix.max_receiver_losses:
        raise IntegrityError(
            f"{result.algorithm}: {retx} repairs below the per-receiver floor "
            f"{matrix.max_receiver_losses}")
    if result.algorithm != "rlnc" and retx > baseline.schedule.retransmission_count:
        raise IntegrityError(
            f"{result.algorithm}: {retx} repairs exceed the ARQ baseline "
            f"{baseline.schedule.retransmission_count}")


def run_replication(scheduler_names: list[str], receivers: int, loss: float,
                    batch: int, seed: int) -> list[dict]:
    """All requested schedulers on one shared sampled matrix."""
    params = ChannelParams.homogeneous(receivers, loss, seed)
    matrix = sample_matrix(params, batch)
    try:
        baseline = run_scheduler("arq", matrix)
        rows = []
        for name in scheduler_names:
            result = baseline if name == "arq" else run_scheduler(name, matrix, seed=seed)
            _check_run(result, baseline, matrix)
            m = run_metrics(result, baseline)
            rows.append({
                "algorithm": name, "M": receivers, "N": batch, "p": loss,
                "seed": seed, "retransmissions": m.retransmissions,
                "baseline_retransmissions": m.baseline_retransmissions,
                "ratio": m.ratio, "ttd_mean": m.ttd_mean, "ttd_std": m.ttd_std,
                "ttd_sums": m.ttd_sums,
            })
    except IntegrityError as exc:  # a broken run names itself; add its seed for replay
        raise IntegrityError(f"{exc} (seed {seed})") from exc
    return rows


def _replication_task(args) -> list[dict]:
    return run_replication(*args)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Execute the sweep; returns the CSV rows and writes them if asked to."""
    grid = [(m, p) for m in config.receiver_counts for p in config.loss_rates]
    reps = config.replications if config.scheduler_names else 0  # theory rows read no run
    tasks = [(config.scheduler_names, m, p, config.batch,
              replication_seed(config.base_seed, m, p, config.batch, r))
             for (m, p) in grid for r in range(reps)]

    # never more processes than tasks or CPUs, whatever was asked for
    workers = min(config.workers or 8, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        # imported here: it loads multiprocessing, which costs every
        # in-process run about as much as the rest of the start-up
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = _sweep_rows(config, grid, pool.map(_replication_task, tasks, chunksize=16))
    else:
        rows = _sweep_rows(config, grid, map(_replication_task, tasks))
    if config.output_path is not None:
        write_csv(rows, config.output_path)
    return rows


def _sweep_rows(config: ExperimentConfig, grid: list[tuple], results) -> list[dict]:
    """All rows, from the replications' rows as they arrive in task order: each
    grid point is aggregated once its last replication is in, the pooled row
    from the sum of its runs' exact sums."""
    names, rows = config.scheduler_names, []
    for m, p in grid:
        start, sums = len(rows), []
        for r, task_rows in zip(range(config.replications), results):
            for row in task_rows:
                row["replication"] = r
                sums.append(row.pop("ttd_sums"))
            rows.extend(task_rows)
        point = rows[start:]
        for idx, name in enumerate(names):
            runs = point[idx::len(names)]
            means = [r["ttd_mean"] for r in runs if not math.isnan(r["ttd_mean"])]
            ttd_mean, ttd_std = moments(tuple(map(sum, zip(*sums[idx::len(names)]))))
            base = {
                "algorithm": name, "M": m, "N": config.batch, "p": p, "seed": "",
                "retransmissions": np.mean([r["retransmissions"] for r in runs]),
                "baseline_retransmissions":
                    np.mean([r["baseline_retransmissions"] for r in runs]),
                "ratio": np.mean([r["ratio"] for r in runs]),
            }
            rows.append(dict(base, replication="mean",
                             ttd_mean=np.mean(means) if means else math.nan,
                             ttd_std=np.std(means) if means else math.nan))
            rows.append(dict(base, replication="pooled", ttd_mean=ttd_mean, ttd_std=ttd_std))
        if config.wants_theory:
            rows.append(_theory_row(m, p, config.batch))
    return rows


def _theory_row(receivers: int, loss: float, batch: int) -> dict:
    params = TheoryParams.homogeneous(receivers, batch, loss)
    floor, baseline = expected_min_retx(params), expected_baseline_retx(params)
    return {
        "algorithm": "theory", "M": receivers, "N": batch, "p": loss,
        "replication": "", "seed": "",
        "retransmissions": floor, "baseline_retransmissions": baseline,
        "ratio": retransmission_ratio(floor, baseline), "ttd_mean": "", "ttd_std": "",
    }


def _fmt(value) -> str:
    if isinstance(value, float):
        return "" if math.isnan(value) else f"{value:.10g}"
    return str(value)


def write_csv(rows: list[dict], path: str | Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])


# ---------------------------------------------------------------- figure presets

FIGURE_PRESETS = {
    # retransmission ratio against M at p = 0.5, N = 200
    "fig2": dict(algorithms=["benefit", "sort-utility", "theory"],
                 receiver_counts=list(range(2, 31)), loss_rates=[0.5], batch=200),
    # retransmission ratio against p at M = 10, N = 200
    "fig3": dict(algorithms=["benefit", "sort-utility", "theory"],
                 receiver_counts=[10],
                 loss_rates=[round(0.1 * i, 1) for i in range(1, 10)], batch=200),
    # time to decode against M at p = 0.25, N = 20
    "fig4": dict(algorithms=["benefit", "sort-utility"],
                 receiver_counts=list(range(2, 21)), loss_rates=[0.25], batch=20),
    # time to decode against p at M = 5, N = 20
    "fig5": dict(algorithms=["benefit", "sort-utility"], receiver_counts=[5],
                 loss_rates=[round(0.1 * i, 1) for i in range(1, 10)], batch=20),
}


def figure_config(name: str, out_dir: str | Path | None, replications: int = 1000,
                  base_seed: int = 0, **overrides) -> ExperimentConfig:
    if name not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURE_PRESETS)}")
    preset = dict(FIGURE_PRESETS[name])
    preset.update({k: v for k, v in overrides.items() if v is not None})
    out = None if out_dir is None else Path(out_dir) / f"{name}.csv"
    return ExperimentConfig(replications=replications, base_seed=base_seed,
                            output_path=out, **preset)


# ---------------------------------------------------------------- trace replay


def load_matrix(path: str | Path) -> TransmissionMatrix:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read matrix file {path}: {exc}") from exc
    return TransmissionMatrix.parse(text)


def trace_run(matrix: TransmissionMatrix, algorithm: str, seed: int = 0,
              emit=print) -> RunResult:
    """Run one scheduler and narrate every slot: transmission, losses, decodes."""
    result = run_scheduler(algorithm, matrix, seed=seed)
    # before any line: a run with a cell left lost raises here and prints nothing
    ttd = time_to_decode(result.losses, result.original_slot, result.receivers)
    emit(f"matrix: {matrix.receivers} receivers x {matrix.batch} packets, "
         f"{int(matrix.cells.sum())} lost cells; algorithm: {algorithm}")
    # one table, slot -> head then notes: each original's losses, then the
    # decodes, which land on the slot of the repair that completed them
    table: dict[int, list[str]] = {}
    for k, (slot, column) in enumerate(zip(result.original_slot.tolist(), result.losses.T), 1):
        missed = ", ".join(f"R{i0 + 1}" for i0 in np.flatnonzero(column).tolist())
        table[slot] = [f"c{k}"] + ([f"lost at {missed}"] if missed else [])
    for packet in result.schedule.repairs:
        if result.algorithm == "rlnc":
            head = f"random linear repair over {len(packet.constituents)} packets"
        else:
            head = f"{packet} [{'repair' if len(packet.constituents) == 1 else 'coded repair'}]"
        table[packet.slot] = [head]
    verb = "inverts and decodes" if result.algorithm == "rlnc" else "decodes"
    for i, (row, state) in enumerate(zip(result.losses, result.receivers), start=1):
        by_slot: dict[int, list[int]] = {}
        for k in (np.flatnonzero(row) + 1).tolist():
            by_slot.setdefault(state.recovery_slot[k], []).append(k)
        for slot, ks in by_slot.items():
            table[slot].append(f"R{i} {verb} " + ", ".join(f"c{k}" for k in ks))
    for slot, (head, *notes) in sorted(table.items()):
        emit(f"slot {slot}: {head}" + (" | " + "; ".join(notes) if notes else ""))
    tail = f"retransmissions={result.schedule.retransmission_count}"
    if ttd.samples:
        tail += f" ttd_mean={moments(ttd.sums)[0]:.6g}"
    emit(tail)
    return result


# ---------------------------------------------------------------- payload check


class PayloadMismatch(IntegrityError):
    def __init__(self, receiver: int, packet: int):
        super().__init__(f"receiver {receiver} reconstructed packet {packet} wrong")
        self.receiver = receiver
        self.packet = packet


def payload_check(matrix: TransmissionMatrix, algorithm: str,
                  payload_len: int = 64, seed: int = 0) -> None:
    """End-to-end byte check: schedule the run, attach random payloads and
    verify every receiver reconstructs every packet exactly, by GF(2^8)
    inversion on each receiver's lost columns for rlnc and by rebuilding each
    recorded XOR recovery for the other schedulers.

    Raises PayloadMismatch naming the first (receiver, packet) whose bytes
    differ or whose recorded recovery slot the replay contradicts.
    """
    if payload_len < 1:
        raise ValueError("payload length must be >= 1")
    result = run_scheduler(algorithm, matrix, seed=seed)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xB0, 1)))
    payloads = rng.integers(0, 256, size=(matrix.batch, payload_len), dtype=np.uint8)
    if algorithm == "rlnc":
        _check_rlnc_recoveries(result, payloads)
    else:
        _check_xor_recoveries(result, payloads)


def _check_xor_recoveries(result: RunResult, payloads: np.ndarray) -> None:
    """Rebuild every recovery the XOR decoder made, in the order it made them.

    A packet received as an original is its own wire bytes and must not have
    been lost at that receiver.  A repaired packet is the wire XOR of its
    source packet, sent no later than the recovery, with every other
    constituent's already rebuilt bytes XOR-ed out, all as one int per payload.
    """
    values = [int.from_bytes(row.tobytes(), "big") for row in payloads]
    wires: dict[int, int] = {}
    for i, state in enumerate(result.receivers, start=1):
        rebuilt: dict[int, int] = {}
        for k, slot in state.recovery_slot.items():
            packet = state.source.get(k)
            if packet is None:
                if result.losses[i - 1, k - 1]:
                    raise PayloadMismatch(i, k)
                data = values[k - 1]
            else:
                if packet.slot > slot:
                    raise PayloadMismatch(i, k)
                if packet.slot not in wires:
                    wire = 0
                    for c in packet.constituents:
                        wire ^= values[c - 1]
                    wires[packet.slot] = wire
                data = wires[packet.slot]
                for other in packet.constituents - {k}:
                    if other not in rebuilt:
                        raise PayloadMismatch(i, k)
                    data ^= rebuilt[other]
            if data != values[k - 1]:
                raise PayloadMismatch(i, k)
            rebuilt[k] = data
        for k in range(1, len(payloads) + 1):
            if k not in rebuilt:
                raise PayloadMismatch(i, k)


def _check_rlnc_recoveries(result: RunResult, payloads: np.ndarray) -> None:
    """Decode every receiver's lost packets from the repairs' wire bytes.

    A receiver solves the system of its first L_i repairs on its L_i lost
    columns, with the originals it received XOR-ed out of their wire bytes.
    Only if those repairs are dependent (about 1 receiver in 255) does it
    keep the first repairs that are innovative: all its repairs go into a
    basis as one block, whose bitmask marks them in row order.  Each received
    original must be credited at its own slot, and each lost packet at the
    slot of the repair that completed the system.
    """
    repairs = result.schedule.repairs
    drawn = np.array(result.coefficients or [], dtype=np.uint8).reshape(-1, len(payloads))
    wires = mat_mul(drawn, payloads)
    for i, (row, state) in enumerate(zip(result.losses, result.receivers), start=1):
        slots = np.array([state.recovery_slot.get(k, 0) for k in range(1, row.size + 1)])
        known, lost = np.flatnonzero(row == RECEIVED), np.flatnonzero(row)
        wrong = np.flatnonzero(slots[known] != result.original_slot[known])
        if wrong.size:
            raise PayloadMismatch(i, int(known[wrong[0]]) + 1)
        if not lost.size:
            continue

        def decode(used):
            rhs = wires[used] ^ mat_mul(drawn[used][:, known], payloads[known])
            return solve(drawn[used][:, lost], rhs)

        used = np.arange(min(lost.size, len(drawn)))
        try:
            decoded = decode(used)
        except ValueError:  # too few repairs, or the first L_i are dependent
            basis = Gf256Basis()
            accepted = basis.insert(drawn[:, lost])
            used = [t for t in range(len(drawn)) if accepted >> t & 1]
            if basis.rank < lost.size:
                raise IntegrityError(f"receiver {i} never collected {lost.size} innovative packets")
            decoded = decode(used)
        wrong = np.flatnonzero((slots[lost] != repairs[used[-1]].slot)
                               | (decoded != payloads[lost]).any(axis=1))
        if wrong.size:
            raise PayloadMismatch(i, int(lost[wrong[0]]) + 1)
