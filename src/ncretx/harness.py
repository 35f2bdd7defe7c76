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
requested, one "theory" row with the analytic floor.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .channel import ChannelParams, sample_matrix
from .gf import Gf256Basis, mat_vec, solve
from .metrics import run_metrics
from .model import RECEIVED, IntegrityError, TransmissionMatrix
from .schedulers import SCHEDULER_NAMES, RunResult, run_scheduler
from .theory import TheoryParams, expected_baseline_retx, expected_min_retx, theory_ratio

CSV_COLUMNS = ("algorithm", "M", "N", "p", "replication", "seed",
               "retransmissions", "baseline_retransmissions", "ratio",
               "ttd_mean", "ttd_std")


class InvariantViolation(RuntimeError):
    """A run broke a guarantee the harness checks; the seed is in the message."""


def check_unique(what: str, values) -> None:
    """Reject a sweep axis that lists a value twice: its rows would repeat."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{what} {value!r} given more than once")


@dataclass
class ExperimentConfig:
    algorithms: list[str]
    receiver_counts: list[int]
    loss_rates: list[float]
    batch: int
    replications: int = 1000
    base_seed: int = 0
    output_path: str | Path | None = None
    workers: int | None = None  # None: one per CPU; 1: in-process

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
        if self.replications < 1:
            raise ValueError("need at least one replication")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be >= 1")

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


def _check_run(result: RunResult, baseline: RunResult, seed: int) -> None:
    retx = result.schedule.retransmission_count
    batch = result.losses.shape[1]
    if any(len(state.have) < batch for state in result.receivers):
        raise InvariantViolation(f"{result.algorithm}: unrecovered cells (seed {seed})")
    if retx < result.max_receiver_losses:
        raise InvariantViolation(
            f"{result.algorithm}: {retx} repairs below the per-receiver floor "
            f"{result.max_receiver_losses} (seed {seed})")
    if result.algorithm != "rlnc" and retx > baseline.schedule.retransmission_count:
        raise InvariantViolation(
            f"{result.algorithm}: {retx} repairs exceed the ARQ baseline "
            f"{baseline.schedule.retransmission_count} (seed {seed})")


def run_replication(scheduler_names: list[str], receivers: int, loss: float,
                    batch: int, seed: int) -> list[dict]:
    """All requested schedulers on one shared sampled matrix."""
    params = ChannelParams.homogeneous(receivers, loss, seed)
    matrix = sample_matrix(params, batch)
    baseline = run_scheduler("arq", matrix)
    rows = []
    for name in scheduler_names:
        result = baseline if name == "arq" else run_scheduler(name, matrix, seed=seed)
        _check_run(result, baseline, seed)
        m = run_metrics(result, baseline)
        rows.append({
            "algorithm": name, "M": receivers, "N": batch, "p": loss,
            "seed": seed, "retransmissions": m.retransmissions,
            "baseline_retransmissions": m.baseline_retransmissions,
            "ratio": m.ratio, "ttd_mean": m.ttd_mean, "ttd_std": m.ttd_std,
            "ttd_samples": m.ttd_samples,
        })
    return rows


def _replication_task(args) -> list[dict]:
    names, receivers, loss, batch, seed = args
    return run_replication(names, receivers, loss, batch, seed)


def run_experiment(config: ExperimentConfig) -> list[dict]:
    """Execute the sweep; returns the CSV rows and writes them if asked to."""
    grid = [(m, p) for m in config.receiver_counts for p in config.loss_rates]
    tasks = []
    if config.scheduler_names:  # theory rows read no replication
        tasks = [(config.scheduler_names, m, p, config.batch,
                  replication_seed(config.base_seed, m, p, config.batch, r))
                 for (m, p) in grid for r in range(config.replications)]

    workers = config.workers
    if workers is None:
        workers = min(os.cpu_count() or 1, 8)
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_task = list(pool.map(_replication_task, tasks, chunksize=16))
    else:
        per_task = [_replication_task(t) for t in tasks]

    rows: list[dict] = []
    reps = config.replications
    for gi, (m, p) in enumerate(grid):
        chunk = per_task[gi * reps:(gi + 1) * reps]
        for r, task_rows in enumerate(chunk):
            for row in task_rows:
                out = dict(row)
                out.pop("ttd_samples")
                out["replication"] = r
                rows.append(out)
        rows.extend(_aggregate_rows(config, m, p, chunk))
        if config.wants_theory:
            rows.append(_theory_row(m, p, config.batch))
    if config.output_path is not None:
        write_csv(rows, config.output_path)
    return rows


def _aggregate_rows(config: ExperimentConfig, receivers: int, loss: float,
                    chunk: list[list[dict]]) -> list[dict]:
    out = []
    for idx, name in enumerate(config.scheduler_names):
        runs = [task_rows[idx] for task_rows in chunk]
        means = [r["ttd_mean"] for r in runs if not math.isnan(r["ttd_mean"])]
        pooled = [s for r in runs for s in r["ttd_samples"]]
        base = {
            "algorithm": name, "M": receivers, "N": config.batch, "p": loss,
            "seed": "",
            "retransmissions": np.mean([r["retransmissions"] for r in runs]),
            "baseline_retransmissions":
                np.mean([r["baseline_retransmissions"] for r in runs]),
            "ratio": np.mean([r["ratio"] for r in runs]),
        }
        out.append(dict(base, replication="mean",
                        ttd_mean=np.mean(means) if means else math.nan,
                        ttd_std=np.std(means) if means else math.nan))
        out.append(dict(base, replication="pooled",
                        ttd_mean=np.mean(pooled) if pooled else math.nan,
                        ttd_std=np.std(pooled) if pooled else math.nan))
    return out


def _theory_row(receivers: int, loss: float, batch: int) -> dict:
    params = TheoryParams.homogeneous(receivers, batch, loss)
    return {
        "algorithm": "theory", "M": receivers, "N": batch, "p": loss,
        "replication": "", "seed": "",
        "retransmissions": expected_min_retx(params),
        "baseline_retransmissions": expected_baseline_retx(params),
        "ratio": theory_ratio(params), "ttd_mean": "", "ttd_std": "",
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


def figure_config(name: str, out_dir: str | Path, replications: int = 1000,
                  base_seed: int = 0, **overrides) -> ExperimentConfig:
    if name not in FIGURE_PRESETS:
        raise ValueError(f"unknown figure {name!r}; choose from {sorted(FIGURE_PRESETS)}")
    preset = dict(FIGURE_PRESETS[name])
    preset.update({k: v for k, v in overrides.items() if v is not None})
    return ExperimentConfig(replications=replications, base_seed=base_seed,
                            output_path=Path(out_dir) / f"{name}.csv", **preset)


# ---------------------------------------------------------------- trace replay


def load_matrix(path: str | Path) -> TransmissionMatrix:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read matrix file {path}: {exc}") from exc
    return TransmissionMatrix.parse(text)


def trace_run(matrix: TransmissionMatrix, algorithm: str, seed: int = 0,
              emit=print) -> RunResult:
    """Run one scheduler and narrate every slot: transmission, losses, decodes."""
    result = run_scheduler(algorithm, matrix, seed=seed)
    emit(f"matrix: {matrix.receivers} receivers x {matrix.batch} packets, "
         f"{int(matrix.cells.sum())} lost cells; algorithm: {algorithm}")
    events = _decode_events(result)
    for packet in result.schedule.transmissions:
        if packet.original:
            head = str(packet)
        elif result.algorithm == "rlnc":
            head = f"random linear repair over {len(packet.constituents)} packets"
        else:
            head = f"{packet} [repair]" if packet.is_uncoded else f"{packet} [coded repair]"
        line = f"slot {packet.slot}: {head}"
        what = events.get(packet.slot)
        if what:
            line += " | " + "; ".join(what)
        emit(line)
    baseline = run_scheduler("arq", matrix)
    metrics = run_metrics(result, baseline)
    tail = f"retransmissions={metrics.retransmissions}"
    if metrics.ttd_samples:
        tail += f" ttd_mean={metrics.ttd_mean:.6g}"
    emit(tail)
    return result


def _decode_events(result: RunResult) -> dict[int, list[str]]:
    events: dict[int, list[str]] = {}
    verb = "inverts and decodes" if result.algorithm == "rlnc" else "decodes"
    for i, (row, state) in enumerate(zip(result.losses, result.receivers), start=1):
        recovered = state.recovery_slot
        by_slot: dict[int, list[int]] = {}
        for k in (np.flatnonzero(row) + 1).tolist():
            by_slot.setdefault(recovered[k], []).append(k)
        for slot, ks in by_slot.items():
            events.setdefault(slot, []).append(
                f"R{i} {verb} " + ", ".join(f"c{k}" for k in ks))
    for k0, column in enumerate(result.losses.T):
        missed = np.flatnonzero(column).tolist()
        if missed:
            events.setdefault(int(result.original_slot[k0]), []).insert(
                0, "lost at " + ", ".join(f"R{i0 + 1}" for i0 in missed))
    return events


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
    constituent's already rebuilt bytes XOR-ed out.
    """
    wires: dict[int, np.ndarray] = {}
    for i, state in enumerate(result.receivers, start=1):
        rebuilt: dict[int, np.ndarray] = {}
        for k, slot in state.recovery_slot.items():
            packet = state.source.get(k)
            if packet is None:
                if result.losses[i - 1, k - 1]:
                    raise PayloadMismatch(i, k)
                data = payloads[k - 1]
            else:
                if packet.slot > slot:
                    raise PayloadMismatch(i, k)
                if packet.slot not in wires:
                    wires[packet.slot] = np.bitwise_xor.reduce(
                        payloads[[c - 1 for c in packet.constituents]])
                data = wires[packet.slot]
                for other in packet.constituents - {k}:
                    if other not in rebuilt:
                        raise PayloadMismatch(i, k)
                    data = data ^ rebuilt[other]
            if not np.array_equal(data, payloads[k - 1]):
                raise PayloadMismatch(i, k)
            rebuilt[k] = data
        for k in range(1, len(payloads) + 1):
            if k not in rebuilt:
                raise PayloadMismatch(i, k)


def _check_rlnc_recoveries(result: RunResult, payloads: np.ndarray) -> None:
    """Decode every receiver's lost packets from the repairs' wire bytes.

    A receiver keeps the first repairs that are innovative on its L_i lost
    columns, XORs the originals it received out of their wire bytes and
    solves the L_i x L_i system.  Each received original must be credited at
    its own slot, and each lost packet at the slot of the repair that
    completed the system.
    """
    repairs = [packet for packet in result.schedule.transmissions if not packet.original]
    coefficients = result.coefficients or []
    wires = [mat_vec(payloads.T, vec) for vec in coefficients]
    original_slot = result.original_slot.tolist()
    for i, (row, state) in enumerate(zip(result.losses, result.receivers), start=1):
        known = np.flatnonzero(row == RECEIVED)
        for k0 in known.tolist():
            if state.recovery_slot.get(k0 + 1) != original_slot[k0]:
                raise PayloadMismatch(i, k0 + 1)
        lost = np.flatnonzero(row)
        if not lost.size:
            continue
        known_payloads = payloads[known].T
        basis = Gf256Basis()
        rows: list[np.ndarray] = []
        rhs: list[np.ndarray] = []
        for vec, wire, packet in zip(coefficients, wires, repairs):
            on_lost = vec[lost]
            if basis.insert(on_lost):
                rows.append(on_lost)
                rhs.append(wire ^ mat_vec(known_payloads, vec[known]))
                if basis.rank == lost.size:
                    full_rank_slot = packet.slot
                    break
        else:
            raise IntegrityError(
                f"receiver {i} never collected {lost.size} innovative packets")
        decoded = solve(np.array(rows), np.array(rhs))
        for k0, data in zip(lost.tolist(), decoded):
            if (state.recovery_slot.get(k0 + 1) != full_rank_slot
                    or not np.array_equal(data, payloads[k0])):
                raise PayloadMismatch(i, k0 + 1)
