"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Statistical criteria use fixed seeds and are fully deterministic.
"""

import filecmp
import functools
import itertools
import math
import time

import numpy as np

from ncretx import (
    ChannelParams,
    TheoryParams,
    TransmissionMatrix,
    expected_min_retx,
    q_distribution,
    run_metrics,
    run_scheduler,
    sample_matrix,
    theory_ratio,
)
from ncretx.cli import main as cli_main
from ncretx.gf import MUL_TABLE
from ncretx.harness import payload_check, replication_seed, run_replication

from conftest import (WORKED_EXAMPLE_ROWS, assert_peeling_sound, assert_strict_rule, loss_counts,
                      slot_order)


def report(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {number} FAIL: {description}")
                raise
            print(f"\nACCEPTANCE {number} PASS: {description} "
                  f"({time.perf_counter() - start:.1f}s)")
        return wrapper
    return decorate


def worked_example() -> TransmissionMatrix:
    return TransmissionMatrix.from_rows(WORKED_EXAMPLE_ROWS)


@report(1, "Sort-by-Utility golden trace: c2, c1^c3, c4, c5; 4 repairs; ttd 4.4")
def test_acceptance_1_sort_utility_golden():
    mat = worked_example()
    result = run_scheduler("sort-utility", mat)
    repairs = [set(cp.constituents) for cp in result.schedule.repairs]
    assert repairs == [{2}, {1, 3}, {4}, {5}]
    assert result.schedule.retransmission_count == 4
    metrics = run_metrics(result, run_scheduler("arq", mat))
    assert abs(metrics.ttd_mean - 4.4) <= 1e-9


@report(2, "BENEFIT golden trace: 3 repairs; ttd 1.9; last repair uncoded in "
           "cycle 3 at desired benefit 2")
def test_acceptance_2_benefit_golden():
    mat = worked_example()
    result = run_scheduler("benefit", mat)
    sched = [str(cp) for _, cp in slot_order(result)]
    assert sched == ["c1", "c2", "c1^c2", "c3", "c4", "c2^c3^c4", "c5", "c5"]
    assert result.schedule.retransmission_count == 3
    metrics = run_metrics(result, run_scheduler("arq", mat))
    assert abs(metrics.ttd_mean - 1.9) <= 1e-9
    last = result.audit[-1]
    assert last.constituents == (5,)
    assert last.slot == 8
    assert last.cycle == 3
    assert last.desired_benefit == 2


@report(3, "repair-count distribution equals exhaustive enumeration (M<=3, N<=4)")
def test_acceptance_3_theory_self_consistency():
    for m, n, p in itertools.product((1, 2, 3), (1, 2, 3, 4), (0.25, 0.5)):
        brute = [0.0] * (n + 1)
        for bits in itertools.product((0, 1), repeat=m * n):
            weight = 1.0
            for b in bits:
                weight *= p if b else 1.0 - p
            brute[max(sum(bits[i * n:(i + 1) * n]) for i in range(m))] += weight
        q = q_distribution(TheoryParams.homogeneous(m, n, p))
        assert np.max(np.abs(q - np.array(brute))) < 1e-12
        assert abs(q.sum() - 1.0) < 1e-12


@report(4, "expected minimum repairs matches Monte Carlo over 1e5 batches "
           "(M=10, N=200, p=0.5, 3 standard errors)")
def test_acceptance_4_theory_vs_monte_carlo():
    params = TheoryParams.homogeneous(10, 200, 0.5)
    counts = loss_counts(2718, 10, 0.5, 200, 100_000)
    maxima = counts.max(axis=1)
    se = maxima.std() / math.sqrt(len(maxima))
    assert abs(expected_min_retx(params) - maxima.mean()) < 3 * se


@report(5, "ratio-vs-receivers trend: benefit <= sort-utility, above the "
           "analytic floor, both below 1 (p=0.5, N=200, 200 reps)")
def test_acceptance_5_ratio_trend(tmp_path):
    from ncretx.harness import ExperimentConfig, run_experiment
    config = ExperimentConfig(algorithms=["benefit", "sort-utility"],
                              receiver_counts=[2, 4, 6, 8, 10], loss_rates=[0.5],
                              batch=200, replications=200, base_seed=0,
                              output_path=tmp_path / "fig2_check.csv")
    rows = run_experiment(config)
    per_run = [r for r in rows if isinstance(r["replication"], int)]
    for receivers in (2, 4, 6, 8, 10):
        mine = [r for r in per_run if r["M"] == receivers]
        mean_benefit = np.mean([r["ratio"] for r in mine if r["algorithm"] == "benefit"])
        mean_sort = np.mean([r["ratio"] for r in mine
                             if r["algorithm"] == "sort-utility"])
        # per-instance floor max_i L_i / baseline on the same matrices
        floors = []
        for r in range(200):
            seed = replication_seed(0, receivers, 0.5, 200, r)
            mat = sample_matrix(ChannelParams.homogeneous(receivers, 0.5, seed), 200)
            floors.append(mat.cells.sum(axis=1).max()
                          / mat.cells.any(axis=0).sum())
        floor_mean = np.mean(floors)
        floor_se = np.std(floors) / math.sqrt(len(floors))
        bound = theory_ratio(TheoryParams.homogeneous(receivers, 200, 0.5))
        assert mean_benefit <= mean_sort
        assert mean_benefit < 1.0 and mean_sort < 1.0
        # lower bound respected: every run sits on or above its own instance
        # floor, whose mean must agree with the analytic curve to Monte Carlo
        # resolution (the schedulers can sit exactly on the bound)
        assert mean_benefit >= floor_mean and mean_sort >= floor_mean
        assert abs(floor_mean - bound) < 3 * floor_se
        assert mean_benefit >= bound - 3 * floor_se
        assert mean_sort >= bound - 3 * floor_se


@report(6, "decode-delay trend: benefit below sort-utility for every "
           "receiver count 2..10 (p=0.25, N=20, 200 reps)")
def test_acceptance_6_ttd_trend():
    for receivers in range(2, 11):
        totals = {"benefit": [], "sort-utility": []}
        for r in range(200):
            seed = replication_seed(1, receivers, 0.25, 20, r)
            rows = run_replication(["benefit", "sort-utility"], receivers,
                                   0.25, 20, seed)
            for row in rows:
                if not math.isnan(row["ttd_mean"]):
                    totals[row["algorithm"]].append(row["ttd_mean"])
        assert np.mean(totals["benefit"]) < np.mean(totals["sort-utility"])


@report(7, "decode delay peaks before p=0.9 and falls from 0.8 to 0.9 "
           "(benefit, M=5, N=20)")
def test_acceptance_7_ttd_shape():
    means = {}
    for p in [round(0.1 * i, 1) for i in range(1, 10)]:
        samples = []
        for r in range(200):
            seed = replication_seed(2, 5, p, 20, r)
            rows = run_replication(["benefit"], 5, p, 20, seed)
            if not math.isnan(rows[0]["ttd_mean"]):
                samples.append(rows[0]["ttd_mean"])
        means[p] = np.mean(samples)
    peak = max(means, key=means.get)
    assert peak < 0.9
    assert means[0.9] < means[0.8]


@report(8, "invariant sweep on 1e4 random matrices plus field axioms and "
           "payload byte-exactness")
def test_acceptance_8_invariants():
    rng = np.random.default_rng(31)
    schedulers = ("arq", "greedy", "sort-utility", "benefit", "rlnc")
    for trial in range(10_000):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, 21))
        p = rng.uniform(0.05, 0.95, size=m)
        cells = (rng.random((m, n)) < p[:, None]).astype(np.uint8)
        mat = TransmissionMatrix(cells)
        floor = int(mat.cells.sum(axis=1).max())
        base = run_scheduler("arq", mat)
        results = {"arq": base}
        for name in schedulers[1:]:
            results[name] = run_scheduler(name, mat, seed=trial)
        for name, result in results.items():
            assert all(len(state.recovery_slot) == n for state in result.receivers), (name, trial)
            assert result.schedule.retransmission_count >= floor, (name, trial)
        # strict rule: every greedy / sort-utility repair decodable by all
        for name in ("greedy", "sort-utility"):
            assert_strict_rule(mat, results[name])
        # peeling soundness vs elimination closure on small instances
        if m <= 6 and n <= 6:
            assert_peeling_sound(mat, "benefit")  # the run's own receivers
        if trial % 100 == 0:
            payload_check(mat, "benefit", payload_len=9, seed=trial)
            payload_check(mat, "rlnc", payload_len=9, seed=trial)
    # field axioms on 1e4 random triples
    a = rng.integers(0, 256, 10_000)
    b = rng.integers(0, 256, 10_000)
    c = rng.integers(0, 256, 10_000)
    assert np.array_equal(MUL_TABLE[a, b], MUL_TABLE[b, a])
    assert np.array_equal(MUL_TABLE[MUL_TABLE[a, b], c], MUL_TABLE[a, MUL_TABLE[b, c]])
    assert np.array_equal(MUL_TABLE[a, b ^ c], MUL_TABLE[a, b] ^ MUL_TABLE[a, c])
    payload_check(worked_example(), "arq", payload_len=33, seed=0)
    payload_check(worked_example(), "greedy", payload_len=33, seed=0)
    payload_check(worked_example(), "sort-utility", payload_len=33, seed=0)


@report(9, "byte-identical CSV from two identical simulate invocations")
def test_acceptance_9_cli_determinism(tmp_path):
    args = ["simulate", "--algorithms", "benefit,sort-utility,arq,theory",
            "--receivers", "3,4", "--loss", "0.4", "--batch", "20",
            "--reps", "5", "--seed", "9", "--workers", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    assert filecmp.cmp(a, b, shallow=False)
    assert a.read_text().splitlines()[0].startswith("algorithm,M,N,p,replication")
