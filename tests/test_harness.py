"""Experiment engine, trace narration, payload round trips, CLI surface."""

import concurrent.futures
import contextlib
import csv
import filecmp
import io
import math
import multiprocessing
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ncretx import SCHEDULER_NAMES, CodedPacket, IntegrityError, TransmissionMatrix, harness, rlnc
from ncretx.cli import MAX_RANGE_VALUES, main as cli_main, parse_float_range, parse_int_range
from ncretx.gf import Gf256Basis
from ncretx.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    FIGURE_PRESETS,
    PayloadMismatch,
    figure_config,
    load_matrix,
    payload_check,
    replication_seed,
    run_experiment,
    run_replication,
    trace_run,
)

from conftest import DATA_DIR, loss_matrices, random_matrix


def small_config(out, **kw):
    base = dict(algorithms=["benefit", "sort-utility", "arq", "theory"],
                receiver_counts=[3], loss_rates=[0.4], batch=15,
                replications=6, base_seed=11, output_path=out, workers=1)
    base.update(kw)
    return ExperimentConfig(**base)


def test_replication_seed_is_stable():
    # frozen: catches accidental changes to the seed derivation
    assert replication_seed(0, 10, 0.5, 200, 0) == 6718680963004293802
    assert replication_seed(0, 10, 0.5, 200, 1) != replication_seed(0, 10, 0.5, 200, 0)
    assert replication_seed(1, 10, 0.5, 200, 0) != replication_seed(0, 10, 0.5, 200, 0)


def test_run_replication_pairs_schedulers_on_one_matrix():
    rows = run_replication(["benefit", "sort-utility", "arq"], 4, 0.5, 20, seed=42)
    assert [r["algorithm"] for r in rows] == ["benefit", "sort-utility", "arq"]
    base = {r["baseline_retransmissions"] for r in rows}
    assert len(base) == 1  # same sampled matrix, same baseline
    arq_row = rows[2]
    assert arq_row["ratio"] == 1.0 or arq_row["retransmissions"] == 0


def test_experiment_rows_and_schema(tmp_path):
    out = tmp_path / "r.csv"
    rows = run_experiment(small_config(out))
    # 3 schedulers x 6 reps + 3 x 2 aggregates + 1 theory row
    assert len(rows) == 18 + 6 + 1
    with open(out) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        assert tuple(header) == CSV_COLUMNS
        body = list(reader)
    assert len(body) == len(rows)
    assert all(row.keys() == set(CSV_COLUMNS) for row in rows)
    ratios = [float(r[8]) for r in body if r[4].isdigit() and r[0] != "arq"]
    assert all(0.0 <= x <= 1.0 for x in ratios)


def test_experiment_deterministic_and_worker_independent(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    run_experiment(small_config(a))
    run_experiment(small_config(b))
    run_experiment(small_config(c, workers=2))
    assert filecmp.cmp(a, b, shallow=False)
    assert filecmp.cmp(a, c, shallow=False)


class InProcessPool:
    """Stands in for ``ProcessPoolExecutor``: records the pool size asked
    for and maps in this process, so no worker is ever started."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize("workers, cpus, reps, size", [
    (100_000, 4, 6, 4),     # bounded by the CPUs
    (100_000, 64, 3, 3),    # bounded by the tasks
    (None, 64, 12, 8),      # the default: one per CPU, at most 8
    (100_000, 4, 1, None),  # one task runs in-process
    (3, 1, 6, None),        # one CPU runs in-process
])
def test_pool_never_outgrows_the_tasks_or_cpus(tmp_path, monkeypatch, workers, cpus, reps, size):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
    rows = run_experiment(small_config(tmp_path / "a.csv", workers=workers, replications=reps))
    assert InProcessPool.sizes == ([] if size is None else [size])
    assert rows == run_experiment(small_config(tmp_path / "b.csv", replications=reps))


@pytest.mark.parametrize("workers", [1, 2])
def test_each_grid_point_is_aggregated_before_the_next_one_runs(tmp_path, monkeypatch,
                                                                workers):
    # pooled through InProcessPool, whose map is as lazy as the in-process one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(InProcessPool, "sizes", [])
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    calls = []
    replicate, theory_row = harness.run_replication, harness._theory_row

    def run(names, m, p, batch, seed):
        calls.append(("run", (m, p)))
        return replicate(names, m, p, batch, seed)

    def theory(m, p, batch):
        calls.append(("theory", (m, p)))
        return theory_row(m, p, batch)

    monkeypatch.setattr(harness, "run_replication", run)
    monkeypatch.setattr(harness, "_theory_row", theory)
    rows = run_experiment(small_config(tmp_path / "o.csv", workers=workers, replications=3,
                                       receiver_counts=[3, 4], loss_rates=[0.2, 0.5]))
    grid = [(m, p) for m in (3, 4) for p in (0.2, 0.5)]
    assert calls == [call for point in grid
                     for call in [("run", point)] * 3 + [("theory", point)]]
    assert InProcessPool.sizes == ([2] if workers == 2 else [])
    # each point's 3 x 3 replication rows, 3 x 2 aggregates and theory row
    assert [(r["M"], r["p"]) for r in rows] == [point for point in grid for _ in range(16)]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads Linux's VmHWM")
def test_sweep_memory_does_not_grow_with_the_reps(tmp_path):
    # a replication's time-to-decode samples are gone once its row is made.
    # The child's peak is VmHWM, not ru_maxrss: a child's ru_maxrss starts
    # at the RSS of the pytest process it was forked from.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    script = ("import sys\n"
              "from ncretx.cli import main\n"
              "main(['figure', 'fig2', '--receivers', '10', '--workers', '1',\n"
              "      '--reps', sys.argv[1], '--out', sys.argv[2]])\n"
              "print([line.split()[1] for line in open('/proc/self/status')\n"
              "       if line.startswith('VmHWM:')][0])\n")
    peak_kb = []
    for reps in ("10", "160"):
        child = subprocess.run([sys.executable, "-c", script, reps, str(tmp_path / reps)],
                               capture_output=True, text=True, env=env, timeout=300)
        assert child.returncode == 0, child.stderr[-2000:]
        peak_kb.append(int(child.stdout.split()[-1]))
    assert peak_kb[1] - peak_kb[0] < 2048


def loaded_by_importing_the_cli(module: str) -> bool:
    """Whether a fresh interpreter has ``module`` loaded after ``import ncretx.cli``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", f"import sys, ncretx.cli; print({module!r} in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr[-2000:]
    return {"True\n": True, "False\n": False}[child.stdout]


def test_importing_the_cli_loads_no_process_pool():
    # the pool's modules (multiprocessing, socket, subprocess, logging) cost
    # every in-process run as much as the rest of the start-up
    assert not loaded_by_importing_the_cli("concurrent.futures.process")


def test_importing_the_cli_loads_no_numpy_random():
    # numpy.random takes about 13 ms to import, half the package's start-up;
    # the channel makes its one generator on first use
    assert not loaded_by_importing_the_cli("numpy.random")


def test_aggregate_rows_cover_both_deviation_views(tmp_path):
    from ncretx import ChannelParams, run_metrics, run_scheduler, sample_matrix

    config = small_config(tmp_path / "r.csv")
    rows = run_experiment(config)
    kinds = {(r["algorithm"], r["replication"]) for r in rows
             if r["replication"] in ("mean", "pooled")}
    assert ("benefit", "mean") in kinds and ("benefit", "pooled") in kinds
    # the pooled row, from each run's exact sums, against numpy over the samples
    for name in config.scheduler_names:
        samples = []
        for r in range(config.replications):
            seed = replication_seed(11, 3, 0.4, 15, r)
            matrix = sample_matrix(ChannelParams.homogeneous(3, 0.4, seed), 15)
            base = run_scheduler("arq", matrix)
            samples += run_metrics(run_scheduler(name, matrix, seed=seed), base).ttd_samples
        pooled, = [r for r in rows if (r["algorithm"], r["replication"]) == (name, "pooled")]
        assert pooled["ttd_mean"] == np.mean(samples)
        assert pooled["ttd_std"] == pytest.approx(np.std(samples), rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32), receivers=st.integers(2, 20),
       loss=st.sampled_from([0.1, 0.25, 0.5, 0.8]), batch=st.integers(1, 40))
def test_one_replication_pools_to_its_own_run(seed, receivers, loss, batch):
    # a pooled row adds its runs' exact sums and a run's row reads its own,
    # both through one moments function: one run pools to the same floats
    config = ExperimentConfig(algorithms=list(SCHEDULER_NAMES), receiver_counts=[receivers],
                              loss_rates=[loss], batch=batch, replications=1,
                              base_seed=seed, workers=1)
    rows = {(r["algorithm"], r["replication"]): r for r in run_experiment(config)}
    for name in SCHEDULER_NAMES:
        for column in ("ttd_mean", "ttd_std"):
            run, pooled = rows[name, 0][column], rows[name, "pooled"][column]
            assert type(run) is type(pooled) is float
            assert run == pooled or math.isnan(run) and math.isnan(pooled), (name, column)


def test_theory_row_matches_module(tmp_path):
    from ncretx import TheoryParams, theory_ratio
    rows = run_experiment(small_config(tmp_path / "r.csv"))
    trow = [r for r in rows if r["algorithm"] == "theory"][0]
    assert trow["ratio"] == pytest.approx(
        theory_ratio(TheoryParams.homogeneous(3, 15, 0.4)))


def test_theory_only_sweep_runs_no_replication(tmp_path, monkeypatch):
    import ncretx.harness as H

    grid = dict(receiver_counts=[3, 5], loss_rates=[0.2, 0.6])
    mixed = run_experiment(small_config(None, algorithms=["arq", "theory"],
                                        replications=2, **grid))

    def never(*args):
        raise AssertionError("no theory row reads a replication")

    monkeypatch.setattr(H, "run_replication", never)
    alone = run_experiment(small_config(tmp_path / "t.csv", algorithms=["theory"],
                                        replications=50, **grid))
    assert alone == [r for r in mixed if r["algorithm"] == "theory"]
    assert len(alone) == 4


@pytest.mark.parametrize("field,value,message", [
    ("receiver_counts", [], "need at least one receiver count"),
    ("loss_rates", [], "need at least one loss rate"),
    ("loss_rates", [0.5, float("nan")], "loss probability nan outside"),
    ("batch", 0, "batch size must be >= 1"),
])
def test_experiment_config_rejects_an_empty_axis_or_a_bad_value(tmp_path, field, value,
                                                                 message):
    with pytest.raises(ValueError, match=message):
        small_config(tmp_path / "x.csv", **{field: value})


def test_check_run_requires_every_receiver_to_hold_the_batch(worked_example):
    from ncretx import run_scheduler
    from ncretx.harness import _check_run

    base = run_scheduler("arq", worked_example)
    result = run_scheduler("benefit", worked_example)
    _check_run(result, base, worked_example)
    del result.receivers[3].recovery_slot[5]
    with pytest.raises(IntegrityError, match="benefit: unrecovered cells"):
        _check_run(result, base, worked_example)


def test_figure_presets_match_reported_parameters():
    assert FIGURE_PRESETS["fig2"]["loss_rates"] == [0.5]
    assert FIGURE_PRESETS["fig2"]["batch"] == 200
    assert FIGURE_PRESETS["fig2"]["receiver_counts"][0] == 2
    assert FIGURE_PRESETS["fig3"]["receiver_counts"] == [10]
    assert FIGURE_PRESETS["fig4"]["loss_rates"] == [0.25]
    assert FIGURE_PRESETS["fig4"]["batch"] == 20
    assert FIGURE_PRESETS["fig5"]["receiver_counts"] == [5]


def test_figure_config_overrides(tmp_path):
    cfg = figure_config("fig2", tmp_path, replications=3,
                        receiver_counts=[2, 3], loss_rates=None)
    assert cfg.receiver_counts == [2, 3]
    assert cfg.loss_rates == [0.5]
    assert cfg.output_path == tmp_path / "fig2.csv"


# ---------------------------------------------------------------- trace


def test_trace_worked_example_benefit(worked_example, capsys):
    trace_run(worked_example, "benefit")
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "retransmissions=3 ttd_mean=1.9"
    assert any("c1^c2" in line for line in out)


def test_trace_worked_example_sort(worked_example, capsys):
    trace_run(worked_example, "sort-utility")
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "retransmissions=4 ttd_mean=4.4"


def test_trace_lossless(capsys):
    trace_run(TransmissionMatrix.from_rows([[0, 0], [0, 0]]), "benefit")
    assert capsys.readouterr().out.strip().splitlines()[-1] == "retransmissions=0"


@given(loss_matrices(), st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_trace_renders_the_run_record(mat, seed):
    """Read every scheduler's narration back against its run record: each
    slot once and in order, each original with exactly its losses, each
    repair's head, and each lost cell decoded once, at its recovery slot."""
    lost_cells = [(i0 + 1, k0 + 1) for i0, k0 in zip(*np.nonzero(mat.cells))]
    for name in SCHEDULER_NAMES:
        lines = []
        result = trace_run(mat, name, seed=seed, emit=lines.append)
        assert lines[0].startswith(f"matrix: {mat.receivers} receivers x {mat.batch} packets")
        assert lines[-1].startswith(f"retransmissions={result.schedule.retransmission_count}")
        slots = lines[1:-1]
        assert len(slots) == mat.batch + result.schedule.retransmission_count
        originals = {slot: k for k, slot in enumerate(result.original_slot.tolist(), 1)}
        repairs = {packet.slot: packet for packet in result.schedule.repairs}
        verb = "inverts and decodes" if name == "rlnc" else "decodes"
        decoded = []
        for slot, line in enumerate(slots, 1):
            assert line.startswith(f"slot {slot}: ")
            head, *rest = line.removeprefix(f"slot {slot}: ").split(" | ")
            notes = rest[0].split("; ") if rest else []
            if slot in originals:
                k = originals[slot]
                assert head == f"c{k}"
                missed = ", ".join(f"R{i}" for i, lost in enumerate(mat.cells[:, k - 1], 1)
                                   if lost)
                if missed:
                    assert notes.pop(0) == f"lost at {missed}"
            elif name == "rlnc":
                size = len(repairs[slot].constituents)
                assert head == f"random linear repair over {size} packets"
            else:
                kind = "repair" if len(repairs[slot].constituents) == 1 else "coded repair"
                assert head == f"{repairs[slot]} [{kind}]"
            receivers = []
            for note in notes:
                match = re.fullmatch(rf"R(\d+) {verb} (c\d+(?:, c\d+)*)", note)
                assert match, note
                receivers.append(int(match[1]))
                decoded += [(int(match[1]), int(c[1:]), slot) for c in match[2].split(", ")]
            assert receivers == sorted(set(receivers))
        assert sorted(decoded) == sorted(
            (i, k, result.receivers[i - 1].recovery_slot[k]) for i, k in lost_cells)


def test_load_matrix_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n0 1\n0 2\n")
    with pytest.raises(ValueError, match="line 3"):
        load_matrix(bad)
    with pytest.raises(ValueError, match="cannot read"):
        load_matrix(tmp_path / "absent.txt")


# ---------------------------------------------------------------- payload


def test_payload_round_trip_all_algorithms(worked_example):
    for name in ("arq", "greedy", "sort-utility", "benefit", "rlnc"):
        payload_check(worked_example, name, payload_len=64, seed=5)
        payload_check(worked_example, name, payload_len=1, seed=6)


def test_payload_round_trip_random_matrices():
    rng = np.random.default_rng(8)
    edges = [TransmissionMatrix.from_rows([[1], [0]]),
             TransmissionMatrix.from_rows([[0], [0]]),
             TransmissionMatrix(np.ones((3, 6), dtype=np.uint8)),
             TransmissionMatrix(np.zeros((3, 6), dtype=np.uint8))]
    matrices = edges + [random_matrix(rng) for _ in range(25)]
    for t, mat in enumerate(matrices):
        for name in SCHEDULER_NAMES:
            payload_check(mat, name, payload_len=16, seed=t)


def test_payload_mismatch_names_receiver_and_packet(worked_example, monkeypatch):
    import ncretx.harness as H

    real = H.run_scheduler

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        # receiver 3 claims it got c4 (slot 5) out of c4^c5 before knowing c5
        result.receivers[2].source[4] = CodedPacket(frozenset({4, 5}), 5)
        return result

    monkeypatch.setattr(H, "run_scheduler", corrupted)
    with pytest.raises(PayloadMismatch) as err:
        payload_check(worked_example, "benefit", payload_len=8, seed=1)
    assert (err.value.receiver, err.value.packet) == (3, 4)


@pytest.mark.parametrize("receiver,packet,slot", [
    # receiver 3 claims lost c3 as a received original (no source)
    (3, 3, None),
    # receiver 2 claims c4 came out of the slot-3 repair c1^c2: every
    # constituent is rebuilt by then, so only the byte comparison sees it
    (2, 4, 3),
])
def test_payload_mismatch_on_a_wrong_source(worked_example, monkeypatch, receiver,
                                            packet, slot):
    import ncretx.harness as H

    real = H.run_scheduler

    def corrupted(*args, **kwargs):
        result = real(*args, **kwargs)
        source = result.receivers[receiver - 1].source
        if slot is None:
            del source[packet]
        else:
            (earlier,) = [cp for cp in result.schedule.repairs if cp.slot == slot]
            assert packet not in earlier.constituents
            source[packet] = earlier
        return result

    monkeypatch.setattr(H, "run_scheduler", corrupted)
    with pytest.raises(PayloadMismatch) as err:
        payload_check(worked_example, "benefit", payload_len=8, seed=1)
    assert (err.value.receiver, err.value.packet) == (receiver, packet)


@given(loss_matrices(), st.integers(0, 2**32 - 1))
@example(TransmissionMatrix(np.ones((2, 1), dtype=np.uint8)), 0)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_payload_round_trip_property(mat, seed):
    for name in SCHEDULER_NAMES:
        payload_check(mat, name, payload_len=4, seed=seed)


# one receiver's first L_i repairs are dependent in each (checked below)
SHORT_BLOCKS = [([[1, 0], [0, 1]], 81), ([[1, 1, 0], [0, 1, 1]], 90)]


@pytest.mark.parametrize("dated,first", [("lost", (1, 1)), ("received", (1, 3))])
def test_rlnc_payload_check_rejects_early_recovery_slots(worked_example, monkeypatch,
                                                        dated, first):
    # a mutated rlnc that dates every decode (or every original) one slot
    # early still delivers the right bytes, so only the slot check sees it
    import ncretx.harness as H

    real = H.run_scheduler

    def one_slot_early(*args, **kwargs):
        result = real(*args, **kwargs)
        for row, state in zip(result.losses, result.receivers):
            for k0 in np.flatnonzero(row if dated == "lost" else row == 0).tolist():
                state.recovery_slot[k0 + 1] -= 1
        return result

    monkeypatch.setattr(H, "run_scheduler", one_slot_early)
    with pytest.raises(PayloadMismatch) as err:
        payload_check(worked_example, "rlnc", payload_len=8, seed=1)
    assert (err.value.receiver, err.value.packet) == first
    rng = np.random.default_rng(21)
    for t in range(20):
        mat = random_matrix(rng)
        if (mat.cells.any() if dated == "lost" else not mat.cells.all()):
            with pytest.raises(PayloadMismatch):
                payload_check(mat, "rlnc", payload_len=4, seed=t)
    # the same fault where a receiver's first block fell short
    for rows, seed in SHORT_BLOCKS:
        with pytest.raises(PayloadMismatch):
            payload_check(TransmissionMatrix.from_rows(rows), "rlnc", payload_len=4, seed=seed)


def check_inserts(monkeypatch, mat, seed):
    """Run rlnc, then its payload check alone; the check's basis inserts."""
    import ncretx.harness as H

    result = rlnc(mat, seed=seed)
    payloads = np.random.default_rng(seed).integers(0, 256, (mat.batch, 8), dtype=np.uint8)
    real, calls = Gf256Basis.insert, []

    def counted(self, block):
        calls.append(block)
        return real(self, block)

    monkeypatch.setattr(Gf256Basis, "insert", counted)
    H._check_rlnc_recoveries(result, payloads)
    return len(calls)


def test_rlnc_payload_check_solves_a_full_rank_block_directly(worked_example, monkeypatch):
    # every receiver's first L_i repairs are independent: one solve each
    # and no basis
    assert check_inserts(monkeypatch, worked_example, seed=1) == 0


@pytest.mark.parametrize("rows,seed", SHORT_BLOCKS)
def test_rlnc_payload_check_goes_on_past_a_short_block(rows, seed, monkeypatch):
    # the scheduler and the check both take the short receiver's later
    # repairs one at a time
    mat = TransmissionMatrix.from_rows(rows)
    drawn = np.array(rlnc(mat, seed=seed).coefficients)
    lost = [np.flatnonzero(row) for row in mat.cells]
    assert any(Gf256Basis().insert(drawn[:cols.size, cols]) != (1 << cols.size) - 1
               for cols in lost)
    payload_check(mat, "rlnc", payload_len=8, seed=seed)
    assert check_inserts(monkeypatch, mat, seed) >= 1


@pytest.mark.parametrize("slot_fault,first", [(False, (4, 5)), (True, (4, 1))])
def test_rlnc_payload_check_reports_a_wrong_byte(worked_example, monkeypatch,
                                                 slot_fault, first):
    # receiver 4 lost c1, c4 and c5 and is the fourth to solve; one byte of
    # its decoded c5 is flipped.  With c1 also dated one slot late, the
    # earlier packet is the one reported
    import ncretx.harness as H

    real_solve, real_run, solves = H.solve, H.run_scheduler, []

    def flipped(a, b):
        out = real_solve(a, b)
        solves.append(a)
        if len(solves) == 4:
            out[2, 3] ^= 0x40
        return out

    def late(*args, **kwargs):
        result = real_run(*args, **kwargs)
        result.receivers[3].recovery_slot[1] += 1
        return result

    monkeypatch.setattr(H, "solve", flipped)
    if slot_fault:
        monkeypatch.setattr(H, "run_scheduler", late)
    with pytest.raises(PayloadMismatch) as err:
        payload_check(worked_example, "rlnc", payload_len=8, seed=1)
    assert (err.value.receiver, err.value.packet) == first
    assert len(solves) == 4


# ---------------------------------------------------------------- cli


def test_cli_range_parsers():
    assert parse_int_range("2..6") == [2, 3, 4, 5, 6]
    assert parse_int_range("2..10:4") == [2, 6, 10]
    assert parse_int_range("3,5") == [3, 5]
    assert parse_float_range("0.1..0.3:0.1") == [0.1, 0.2, 0.3]
    assert parse_float_range("0.5") == [0.5]
    with pytest.raises(ValueError):
        parse_float_range("0.1..0.9")


def test_cli_simulate_deterministic(tmp_path):
    args = ["simulate", "--algorithms", "benefit,arq", "--receivers", "3",
            "--loss", "0.3", "--batch", "12", "--reps", "4", "--seed", "2",
            "--workers", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)


def test_cli_theory_csv(tmp_path):
    out = tmp_path / "t.csv"
    assert cli_main(["theory", "--receivers", "2", "--batch", "4",
                     "--loss", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "M,N,p,j,Q_j"
    assert len(lines) == 1 + 5 + 2  # header, j=0..4, two summary rows
    q = [float(line.split(",")[4]) for line in lines[1:6]]
    assert sum(q) == pytest.approx(1.0, abs=1e-12)
    assert lines[6].split(",")[3] == "expected_min_retx"
    assert lines[7].split(",")[3] == "theory_ratio"


@pytest.mark.parametrize("batch,loss", [("0", "0.5"), ("4", "0.5,1.5"),
                                        ("4", "0.1..0.5:inf"), ("4", "0.1..0.3:1e-12")])
def test_cli_theory_validates_before_writing(tmp_path, capsys, batch, loss):
    out = tmp_path / "t.csv"
    rc = cli_main(["theory", "--receivers", "2,3", "--batch", batch,
                   "--loss", loss, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_cli_trace_exit_codes(worked_example_path, tmp_path):
    assert cli_main(["trace", "--matrix", str(worked_example_path),
                     "--algorithm", "benefit"]) == 0
    assert cli_main(["trace", "--matrix", str(tmp_path / "nope.txt"),
                     "--algorithm", "benefit"]) == 1


@pytest.mark.parametrize("algorithm", ["rlnc", "arq"])
def test_cli_trace_rejects_a_negative_seed(worked_example_path, capsys, algorithm):
    assert cli_main(["trace", "--matrix", str(worked_example_path),
                     "--algorithm", algorithm, "--seed", "-1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --seed must be >= 0, got -1\n"


def test_cli_trace_names_an_undecodable_matrix_file(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"2 2\n0 1\n\xe91 0\n")
    assert cli_main(["trace", "--matrix", str(bad), "--algorithm", "arq"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read matrix file {bad}: ") and err.count("\n") == 1
    assert "codec can't decode" in err


@pytest.mark.parametrize("header,message", [
    ("0 3", "line 1: need at least 2 receivers and 1 packet, got 0 x 3"),
    ("-1 3", "line 1: need at least 2 receivers and 1 packet, got -1 x 3"),
    ("2 0", "line 1: need at least 2 receivers and 1 packet, got 2 x 0"),
    ("1001 1000", "line 1: 1001 x 1000 is 1001000 loss cells; at most 1000000"),
    ("1000 1000", "expected 1000 matrix rows, found 0"),  # exactly MAX_CELLS: on to the rows
])
def test_cli_trace_checks_the_header_before_any_row(tmp_path, capsys, header, message):
    rowless = tmp_path / "m.txt"
    rowless.write_text(header + "\n")
    assert cli_main(["trace", "--matrix", str(rowless), "--algorithm", "arq"]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_figure_small(tmp_path):
    assert cli_main(["figure", "fig5", "--out", str(tmp_path), "--reps", "2",
                     "--loss", "0.3", "--workers", "1"]) == 0
    assert (tmp_path / "fig5.csv").exists()


@pytest.mark.parametrize("extra,message", [
    (["--receivers", "1"], "need at least 2 receivers"),
    (["--workers", "0"], "workers must be >= 1"),
    (["--reps", "100000"], "the sweep would make 1900000 runs; at most 1000000"),
])
def test_cli_figure_rejected_makes_no_directory(tmp_path, capsys, extra, message):
    rc = cli_main(["figure", "fig4", "--out", str(tmp_path / "new" / "a" / "b")] + extra)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "new").exists()


def test_paper_presets_pass_the_sweep_bounds_at_10000_reps():
    for name in FIGURE_PRESETS:
        figure_config(name, None, replications=10_000)


@pytest.mark.parametrize("overrides,message", [
    (dict(receiver_counts=list(range(2, 12)), loss_rates=[0.1, 0.2], replications=50_001),
     "the sweep would make 1000020 runs; at most 1000000"),
    (dict(replications=10**18), f"the sweep would make {10**18} runs; at most 1000000"),
    # a theory-only sweep makes one run per grid point, whatever the reps
    (dict(algorithms=["theory"], receiver_counts=list(range(2, 1002)),
          loss_rates=[i / 1000 for i in range(1001)]),
     "the sweep would make 1001000 runs; at most 1000000"),
    (dict(receiver_counts=[3, 1000], batch=1001),
     "1000 receivers x batch 1001 is 1001000 loss cells; at most 1000000 per replication"),
    (dict(batch=10**15),
     f"3 receivers x batch {10**15} is {3 * 10**15} loss cells; at most 1000000 per replication"),
    (dict(algorithms=["theory"], batch=10**7 + 1), "theory batch 10000001 is above 10000000"),
])
def test_config_bounds_the_sweep_and_the_batch(tmp_path, overrides, message):
    # refused in the config: no task list, matrix or pool of that size exists
    with pytest.raises(ValueError) as info:
        small_config(tmp_path / "x.csv", **overrides)
    assert str(info.value) == message
    assert not (tmp_path / "x.csv").exists()


def test_config_bounds_admit_their_limits():
    small_config(None, receiver_counts=list(range(2, 12)), loss_rates=[0.1, 0.2],
                 replications=50_000)
    small_config(None, receiver_counts=[3, 1000], batch=1000)
    # theory reads no matrix and no replication
    small_config(None, algorithms=["theory"], batch=10**7, replications=10**18)
    small_config(None, algorithms=["theory"], receiver_counts=[2, 10**6])


@pytest.mark.parametrize("extra,message", [
    (["--receivers", "2..11", "--loss", "0.1,0.2", "--batch", "5", "--reps", "50001"],
     "the sweep would make 1000020 runs; at most 1000000"),
    (["--receivers", "1000", "--loss", "0.5", "--batch", "1001", "--reps", "1"],
     "1000 receivers x batch 1001 is 1001000 loss cells; at most 1000000 per replication"),
])
def test_cli_refuses_an_unbounded_sweep_before_any_run(tmp_path, capsys, monkeypatch,
                                                       extra, message):
    import ncretx.cli as C

    def no_sweep(config):
        raise AssertionError("a sweep ran past the bounds")

    monkeypatch.setattr(C, "run_experiment", no_sweep)
    rc = cli_main(["simulate", "--algorithms", "arq", "--workers", "2",
                   "--out", str(tmp_path / "x.csv")] + extra)
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,message", [
    (["simulate", "--algorithms", "theory", "--receivers", "3", "--loss", "0.5",
      "--batch", str(10**15)], f"theory batch {10**15} is above 10000000"),
    (["theory", "--receivers", "3", "--loss", "0.5", "--batch", "10000001"],
     "theory batch 10000001 is above 10000000"),
    (["theory", "--receivers", "2..1001", "--loss", "0..1:0.001", "--batch", "1"],
     "the sweep would make 1001000 runs; at most 1000000"),
    (["theory", "--receivers", "2..1001", "--loss", "0.001..1:0.001", "--batch", "18"],
     "the theory would write 21000000 rows; at most 20000000"),
    (["theory", "--receivers", "2,3", "--loss", "0.5", "--batch", "10000000"],
     "the theory would write 20000006 rows; at most 20000000"),
    (["theory", "--receivers", "3,1000001", "--loss", "0.5", "--batch", "1"],
     "theory receiver count 1000001 is above 1000000"),
    (["simulate", "--algorithms", "theory", "--receivers", "1000001", "--loss", "0.5",
      "--batch", "1"], "theory receiver count 1000001 is above 1000000"),
])
def test_cli_refuses_unbounded_theory_before_any_floor(tmp_path, capsys, monkeypatch,
                                                      command, message):
    import ncretx.cli as C
    import ncretx.harness as H

    def no_floor(*args):
        raise AssertionError("a floor was computed past the bounds")

    monkeypatch.setattr(C, "q_distribution", no_floor)
    monkeypatch.setattr(H, "_theory_row", no_floor)
    rc = cli_main(command + ["--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("receivers,loss", [("3", "0.1..0.5:0"), ("5..2", "0.5"),
                                            ("3", "0.5..0.1:0.1"), ("2..6:-1", "0.5"),
                                            ("3", "0.1..0.5:inf"), ("3", "0.1..inf:0.1"),
                                            ("3", "0.1..0.3:1e-12"),
                                            ("3", "0.1..0.2..0.3:0.1")])
def test_cli_rejects_zero_step_and_empty_ranges(tmp_path, capsys, receivers, loss):
    rc = cli_main(["simulate", "--algorithms", "arq", "--receivers", receivers,
                   "--loss", loss, "--batch", "5", "--reps", "1", "--workers", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,message", [
    (["simulate", "--algorithms", ","], "need at least one algorithm"),
    (["simulate", "--algorithms", "arq", "--workers", "0"], "workers must be >= 1"),
    (["simulate", "--algorithms", "arq", "--workers", "-2"], "workers must be >= 1"),
    (["figure", "fig5", "--reps", "1", "--workers", "0"], "workers must be >= 1"),
    # an empty override is refused as simulate refuses it, not read as absent
    (["figure", "fig2", "--receivers", "", "--reps", "2"],
     "bad item '' in '': expected an integer"),
    (["figure", "fig5", "--loss", "", "--reps", "2"], "bad item '' in '': expected a number"),
])
def test_cli_rejects_no_algorithms_and_bad_workers(tmp_path, capsys, command, message):
    out = tmp_path / ("x.csv" if command[0] == "simulate" else "fig")
    extra = ["--receivers", "3", "--loss", "0.5", "--batch", "5", "--reps", "1"] \
        if command[0] == "simulate" else []
    rc = cli_main(command + extra + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


# an --out that no sweep command may write, and how each is refused
UNWRITABLE_OUTS = [("missing/x.csv", "output directory {tmp}/missing does not exist"),
                   ("existing", "output path {tmp}/existing is a directory")]


@pytest.mark.parametrize("out,message,loss", [
    *((out, message, "0.5") for out, message in UNWRITABLE_OUTS),
    ("x.csv", "loss probability 1.5 outside [0, 1]", "0.5,1.5"),
    ("x.csv", "float range '0.1..0.3:1e-12' needs a step of at least 1e-10",
     "0.1..0.3:1e-12"),
    ("x.csv", "range '0.1..0.2..0.3:0.1' must be a..b[:step]", "0.1..0.2..0.3:0.1"),
])
def test_cli_simulate_rejects_unwritable_out_before_any_run(tmp_path, capsys, monkeypatch,
                                                           out, message, loss):
    import ncretx.harness as H

    def no_replication(*args):
        raise AssertionError("a replication ran before the output path was checked")

    monkeypatch.setattr(H, "run_replication", no_replication)
    (tmp_path / "existing").mkdir()
    rc = cli_main(["simulate", "--algorithms", "arq", "--receivers", "3", "--loss", loss,
                   "--batch", "5", "--reps", "1", "--workers", "1",
                   "--out", str(tmp_path / out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: " + message.format(tmp=tmp_path) + "\n"
    assert not (tmp_path / "missing").exists()
    assert not any((tmp_path / "existing").iterdir())
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("out,message", UNWRITABLE_OUTS)
def test_cli_theory_rejects_unwritable_out_before_any_floor(tmp_path, capsys, monkeypatch,
                                                           out, message):
    import ncretx.cli as C

    def no_floor(*args):
        raise AssertionError("a floor was computed before the output path was checked")

    monkeypatch.setattr(C, "q_distribution", no_floor)
    (tmp_path / "existing").mkdir()
    rc = cli_main(["theory", "--receivers", "3", "--loss", "0.5", "--batch", "5",
                   "--out", str(tmp_path / out)])
    assert rc == 1
    assert capsys.readouterr().err == "error: " + message.format(tmp=tmp_path) + "\n"
    assert not (tmp_path / "missing").exists()
    assert not any((tmp_path / "existing").iterdir())


@pytest.mark.parametrize("receivers,loss,part", [("3", "0..1:1e-10", "0..1:1e-10"),
                                                 ("2..10000000000", "0.5", "2..10000000000"),
                                                 ("2..1" + "0" * 400, "0.5", "2..1" + "0" * 400)])
def test_cli_rejects_a_range_too_long_to_expand(tmp_path, capsys, monkeypatch,
                                                receivers, loss, part):
    import ncretx.cli as C

    def no_sweep(config):
        raise AssertionError("a sweep ran on a range too long to expand")

    monkeypatch.setattr(C, "run_experiment", no_sweep)
    rc = cli_main(["simulate", "--algorithms", "arq", "--receivers", receivers,
                   "--loss", loss, "--batch", "5", "--reps", "1", "--workers", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == \
        f"error: range {part!r} has more than {MAX_RANGE_VALUES} values\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("receivers,loss,message", [
    ("3,", "0.5", "bad item '' in '3,': expected an integer"),
    ("2..x", "0.5", "bad item 'x' in '2..x': expected an integer"),
    ("3", "0.5,x", "bad item 'x' in '0.5,x': expected a number"),
    ("3", "0.1..0.5:", "float range '0.1..0.5:' needs an explicit :step"),
    ("3", "0.1..0.5:y", "bad item 'y' in '0.1..0.5:y': expected a number"),
])
def test_cli_names_a_bad_list_item(tmp_path, capsys, receivers, loss, message):
    out = tmp_path / "x.csv"
    rc = cli_main(["simulate", "--algorithms", "arq", "--receivers", receivers,
                   "--loss", loss, "--batch", "5", "--reps", "1", "--workers", "1",
                   "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_range_length_limit_counts_values(monkeypatch):
    import ncretx.cli as C

    monkeypatch.setattr(C, "MAX_RANGE_VALUES", 5)
    assert parse_int_range("1..5") == [1, 2, 3, 4, 5]
    assert parse_int_range("1..13:3") == [1, 4, 7, 10, 13]
    with pytest.raises(ValueError, match="more than 5 values"):
        parse_int_range("1..6")
    with pytest.raises(ValueError, match="more than 5 values"):
        parse_int_range("1..16:3")
    assert parse_float_range("0.1..0.5:0.1") == [0.1, 0.2, 0.3, 0.4, 0.5]
    with pytest.raises(ValueError, match="more than 5 values"):
        parse_float_range("0.1..0.7:0.1")


def test_cli_usage_error_exits_1(capsys):
    assert cli_main(["simulate", "--algorithms", "arq"]) == 1
    assert capsys.readouterr().err == (
        "error: the following arguments are required: --receivers, --loss, --batch, --out\n")


# the four subcommands' real option names; valid values for each option; and
# a pool of values for any of them: valid, malformed and out of range.  No
# admitted batch is above 10^3: each larger number in the pool is above 10^7,
# which every subcommand refuses as a batch or a receiver count
CLI_OPTIONS = {
    "simulate": ("--algorithms", "--receivers", "--loss", "--batch", "--reps", "--seed",
                 "--workers", "--out"),
    "theory": ("--receivers", "--batch", "--loss", "--out"),
    "figure": ("--out", "--reps", "--seed", "--receivers", "--loss", "--workers"),
    "trace": ("--matrix", "--algorithm", "--seed"),
}
CLI_VALID = {
    "--algorithms": ("arq", "benefit,sort-utility,theory", "theory"),
    "--receivers": ("3", "2..4", "1000"), "--loss": ("0.5", "0.2,0.4", "0.1..0.3:0.1"),
    "--batch": ("1", "20", "1000"), "--reps": ("1", "20"), "--seed": ("0", "3"),
    "--workers": ("1", "2"), "--out": ("out.csv", "figs"),
    "--matrix": (str(DATA_DIR / "worked_example.txt"),), "--algorithm": ("arq", "rlnc"),
}
CLI_VALUES = (
    "arq", "rlnc", "fig4", "3", "2..4", "0.5", "20", "out.csv",
    "", "x", "2..", "0.1..0.5", "1,,2", "0.1..0.3:0.1:2", "nan", "1e999", "arq,arq", "3,3",
    "0", "-3", "1.5", "10000001", "1000000000", "99999999999999999999", "missing/out.csv",
    "-h",
)
CLI_JUNK = ("--bogus", "-x", "junk", "--", "=")


def run_cli(argv) -> tuple[int, str]:
    """The exit status and the stderr text of one CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            status = cli_main(argv)
        except SystemExit as exc:  # -h
            status = exc.code
    return status, err.getvalue()


@st.composite
def cli_argvs(draw):
    """An argv: a subcommand, now and then a junk token instead, then each
    of its options in any order.  Most argvs have one odd option, with a
    pool value, bare or left out, and the others valid; now and then loose
    values or junk go in between."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    command = rnd.choice(sorted(CLI_OPTIONS) * 4 + list(CLI_JUNK))
    argv = [command]
    if command == "figure":
        argv.append(rnd.choice(("fig4", "fig5") * 8 + CLI_VALUES))
    options = rnd.sample(CLI_OPTIONS.get(command, ()), len(CLI_OPTIONS.get(command, ())))
    odd = options[:rnd.choice((0, 1, 1, 1, 2))]
    for option in options:
        how = rnd.choice(("pool",) * 4 + ("bare", "left out")) if option in odd else "valid"
        if how == "valid":
            argv += [option, rnd.choice(CLI_VALID[option])]
        elif how == "pool":
            argv += [option, rnd.choice(CLI_VALUES)]
        elif how == "bare":
            argv.append(option)
    for _ in range(rnd.choice((0, 0, 0, 1, 2))):
        argv.insert(rnd.randint(1, len(argv)), rnd.choice(CLI_VALUES + CLI_JUNK))
    return argv


@given(cli_argvs())
@example(["theory", "--receivers", "1000001", "--loss", "0.5", "--batch", "1", "--out", "x"])
@example(["theory", "--receivers", "3", "--loss", "0.5", "--batch", "1", "--out", "missing/x"])
@example(["simulate", "-h"])
@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_fuzz_exits_with_a_status_and_at_most_one_line(tmp_path, monkeypatch, argv):
    import ncretx.cli as C

    monkeypatch.setattr(C, "run_experiment", lambda config: [])  # no sweep, no pool
    monkeypatch.setattr(C, "trace_run", lambda *args, **kwargs: None)
    with tempfile.TemporaryDirectory(dir=tmp_path) as here:
        monkeypatch.chdir(here)  # what one example writes, the next does not see
        status, err = run_cli(argv)
        monkeypatch.chdir(tmp_path)
    assert status in (0, 1, 2), argv
    assert err.count("\n") <= 1, (argv, err)
    assert "Traceback" not in err, argv


# for each option of `theory`, a pool of values beyond CLI_VALID: out of
# range, malformed, repeated, or unwritable for --out
FLOOR_POOLS = {
    "--receivers": ("1", "1,3") + CLI_VALUES,
    "--loss": ("0", "1", "0.5,0.50") + CLI_VALUES,
    "--batch": ("10000000",) + CLI_VALUES,
    "--out": ("missing/x.csv", "existing") + CLI_VALUES,
}


@st.composite
def floor_argvs(draw):
    """The options of `theory`, in any order, each valid or from its pool."""
    rnd = random.Random(draw(st.integers(0, 2**32 - 1)))
    argv = []
    for option in rnd.sample(sorted(FLOOR_POOLS), len(FLOOR_POOLS)):
        pool = CLI_VALID[option] if rnd.random() < 0.6 else FLOOR_POOLS[option]
        argv += [option, rnd.choice(pool)]
    return argv


@given(floor_argvs())
@example(["--receivers", "1", "--loss", "0.5", "--batch", "5", "--out", "x.csv"])
@example(["--receivers", "3", "--loss", "0.5", "--batch", "0", "--out", "x.csv"])
@example(["--receivers", "3", "--loss", "0.5", "--batch", "5", "--out", "missing/x.csv"])
@example(["--receivers", "3", "--loss", "0.5", "--batch", "5", "--out", "existing"])
@example(["--receivers", "2,3", "--loss", "0.5", "--batch", "10000000", "--out", "x.csv"])
@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_cli_theory_refuses_what_simulate_refuses_with_its_line(tmp_path, monkeypatch, argv):
    # `theory` and `simulate --algorithms theory` compute the same floor over
    # the same grid: theory refuses more only where its rows pass their cap
    import ncretx.cli as C

    monkeypatch.setattr(C, "run_experiment", lambda config: [])  # no sweep, no pool
    monkeypatch.setattr(C, "q_distribution", lambda params: np.ones(1))  # no floor
    with tempfile.TemporaryDirectory(dir=tmp_path) as here:
        monkeypatch.chdir(here)
        os.mkdir("existing")
        simulated = run_cli(["simulate", "--algorithms", "theory"] + argv)
        status, err = run_cli(["theory"] + argv)
        left = sorted(os.listdir()), os.listdir("existing")
        monkeypatch.chdir(tmp_path)
    assert simulated[0] in (0, 1), (argv, simulated)
    if simulated[0] == 1:
        assert (status, err) == simulated, argv
    elif status:
        assert status == 1 and re.fullmatch(
            rf"error: the theory would write \d+ rows; at most {C.MAX_THEORY_ROWS}\n", err), \
            (argv, err)
    else:
        assert err == "", argv
    if status:  # a refused command leaves no file
        assert left == (["existing"], []), (argv, left)


def drop_repairs_holding_c1(monkeypatch, coded_only=False):
    """Break delivery: each repair that holds c1, or, with ``coded_only``,
    each such repair that holds another packet too, is still sent (it takes
    its slot in the schedule) but reaches no receiver."""
    from ncretx.schedulers import _Run

    send = _Run.send
    fewest = 2 if coded_only else 1

    def dropping(self, constituents):
        ids = frozenset(constituents)
        if 1 in ids and len(ids) >= fewest:
            self.append(ids)
            return []
        return send(self, ids)

    monkeypatch.setattr(_Run, "send", dropping)


def assert_one_violation_line(err, *parts):
    assert err.startswith("invariant violation: ") and err.count("\n") == 1
    assert all(part in err for part in parts), err


@pytest.mark.parametrize("workers", ["1", pytest.param("2", marks=pytest.mark.skipif(
    multiprocessing.get_context().get_start_method() != "fork",
    reason="only forked pool workers inherit the broken decoder"))])
def test_cli_simulate_reports_an_unrecovered_cell_with_its_seed(tmp_path, capsys,
                                                               monkeypatch, workers):
    # arq's repairs are uncoded and pass; greedy sends c1^c2 in replication 0
    drop_repairs_holding_c1(monkeypatch, coded_only=True)
    out = tmp_path / "x.csv"
    rc = cli_main(["simulate", "--algorithms", "greedy", "--receivers", "3",
                   "--loss", "0.5", "--batch", "10", "--reps", "2",
                   "--workers", workers, "--out", str(out)])
    assert rc == 2
    seed = replication_seed(0, 3, 0.5, 10, 0)
    assert capsys.readouterr().err == (
        f"invariant violation: greedy finished with unrecovered cells (seed {seed})\n")
    assert not out.exists()


def test_cli_trace_reports_an_unrecovered_cell(worked_example_path, capsys, monkeypatch):
    drop_repairs_holding_c1(monkeypatch)
    rc = cli_main(["trace", "--matrix", str(worked_example_path),
                   "--algorithm", "arq", "--seed", "4"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # the run is checked before any slot is narrated
    assert_one_violation_line(captured.err, "arq finished with unrecovered cells")


# ``ncretx trace`` with every repair that holds c1 sent but delivered to no one
DROPPING_TRACE = """
import sys
from ncretx.cli import main
from ncretx.schedulers import _Run
send = _Run.send
def dropping(self, constituents):
    ids = frozenset(constituents)
    if 1 in ids:
        self.append(ids)
        return []
    return send(self, ids)
_Run.send = dropping
sys.exit(main(sys.argv[1:]))
"""


def _limit_child() -> None:
    """A scheduler that never stops fails fast in the child, not the host."""
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    resource.setrlimit(resource.RLIMIT_CPU, (60, 60))


@pytest.mark.parametrize("algorithm", ["greedy", "sort-utility", "benefit"])
def test_cli_trace_stops_a_scheduler_whose_repairs_are_dropped(worked_example_path,
                                                                algorithm):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", DROPPING_TRACE, "trace", "--matrix", str(worked_example_path),
         "--algorithm", algorithm],
        capture_output=True, text=True, env=env, preexec_fn=_limit_child, timeout=120)
    assert child.returncode == 2, child.stderr[-2000:]
    assert child.stdout == ""
    assert_one_violation_line(child.stderr, f"{algorithm} finished with unrecovered cells")


@pytest.mark.parametrize("command", [
    pytest.param(["simulate", "--algorithms", "arq", "--reps", "1"], id="arq"),
    pytest.param(["simulate", "--algorithms", "theory", "--reps", "1"], id="theory"),
    pytest.param(["theory"], id="theory-command"),
])
def test_cli_rejects_single_receiver(tmp_path, capsys, command):
    rc = cli_main(command + ["--receivers", "1", "--loss", "0.5", "--batch", "5",
                             "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert capsys.readouterr().err == "error: need at least 2 receivers\n"
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("command,message", [
    (["simulate", "--algorithms", "arq,arq", "--receivers", "3", "--loss", "0.5"],
     "algorithm 'arq' given more than once"),
    (["simulate", "--algorithms", "arq,theory", "--receivers", "2..4,3", "--loss", "0.5"],
     "receiver count 3 given more than once"),
    (["simulate", "--algorithms", "theory", "--receivers", "3",
      "--loss", "0.1..0.3:0.1,0.20"], "loss rate 0.2 given more than once"),
    (["theory", "--receivers", "3,3", "--loss", "0.5"],
     "receiver count 3 given more than once"),
    (["theory", "--receivers", "3", "--loss", "0.5,0.50"],
     "loss rate 0.5 given more than once"),
    # distinct rates the CSV writes alike would repeat one p block
    (["simulate", "--algorithms", "arq,theory", "--receivers", "3",
      "--loss", "0.1,0.10000000000001"],
     "loss rates 0.1 and 0.10000000000001 are both written as 0.1"),
    (["theory", "--receivers", "3", "--loss", "0.3,0.30000000001"],
     "loss rates 0.3 and 0.30000000001 are both written as 0.3"),
])
def test_cli_rejects_repeated_values(tmp_path, capsys, command, message):
    # a repeated value would write its rows and aggregates twice
    out = tmp_path / "x.csv"
    extra = ["--reps", "1", "--workers", "1"] if command[0] == "simulate" else []
    rc = cli_main(command + extra + ["--batch", "5", "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_cli_rejects_unknown_algorithm(tmp_path):
    rc = cli_main(["simulate", "--algorithms", "nope", "--receivers", "2",
                   "--loss", "0.5", "--batch", "5", "--reps", "1",
                   "--out", str(tmp_path / "x.csv")])
    assert rc == 1
