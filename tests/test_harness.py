"""Experiment engine, trace narration, payload round trips, CLI surface."""

import csv
import filecmp

import numpy as np
import pytest

from ncretx import SCHEDULER_NAMES, CodedPacket, TransmissionMatrix
from ncretx.cli import main as cli_main, parse_float_range, parse_int_range
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

from conftest import random_matrix


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
    ratios = [float(r[8]) for r in body if r[4].isdigit() and r[0] != "arq"]
    assert all(0.0 <= x <= 1.0 for x in ratios)


def test_experiment_deterministic_and_worker_independent(tmp_path):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    run_experiment(small_config(a))
    run_experiment(small_config(b))
    run_experiment(small_config(c, workers=2))
    assert filecmp.cmp(a, b, shallow=False)
    assert filecmp.cmp(a, c, shallow=False)


def test_aggregate_rows_cover_both_deviation_views(tmp_path):
    rows = run_experiment(small_config(tmp_path / "r.csv"))
    kinds = {(r["algorithm"], r["replication"]) for r in rows
             if r["replication"] in ("mean", "pooled")}
    assert ("benefit", "mean") in kinds and ("benefit", "pooled") in kinds


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


def test_check_run_requires_every_receiver_to_hold_the_batch(worked_example):
    from ncretx import run_scheduler
    from ncretx.harness import InvariantViolation, _check_run

    base = run_scheduler("arq", worked_example)
    result = run_scheduler("benefit", worked_example)
    _check_run(result, base, seed=7)
    result.receivers[3].have.discard(5)
    with pytest.raises(InvariantViolation, match=r"benefit: unrecovered cells \(seed 7\)"):
        _check_run(result, base, seed=7)


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


@pytest.mark.parametrize("batch,loss", [("0", "0.5"), ("4", "0.5,1.5")])
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


def test_cli_figure_small(tmp_path):
    assert cli_main(["figure", "fig5", "--out", str(tmp_path), "--reps", "2",
                     "--loss", "0.3", "--workers", "1"]) == 0
    assert (tmp_path / "fig5.csv").exists()


@pytest.mark.parametrize("receivers,loss", [("3", "0.1..0.5:0"), ("5..2", "0.5"),
                                            ("3", "0.5..0.1:0.1"), ("2..6:-1", "0.5")])
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
])
def test_cli_rejects_no_algorithms_and_bad_workers(tmp_path, capsys, command, message):
    out = tmp_path / ("x.csv" if command[0] == "simulate" else "fig")
    extra = ["--receivers", "3", "--loss", "0.5", "--batch", "5", "--reps", "1"] \
        if command[0] == "simulate" else []
    rc = cli_main(command + extra + ["--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "fig" / "fig5.csv").exists()


@pytest.mark.parametrize("algorithms", ["arq", "theory"])
def test_cli_rejects_single_receiver(tmp_path, capsys, algorithms):
    rc = cli_main(["simulate", "--algorithms", algorithms, "--receivers", "1",
                   "--loss", "0.5", "--batch", "5", "--reps", "1",
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
