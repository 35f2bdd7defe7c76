"""The small world: every invariant on every loss matrix up to a size.

One matrix per multiset of rows (``worlds``): 8,052 with N <= 3 and M <= 6
or N = 4 and M <= 4, where no scheduler breaks a bound, and every XOR
scheduler's receivers hold only what GF(2) elimination over what they
heard gives.  The large world is ``tests/large_world.py``, a CI step.
Weighted by their probability, the multisets also give exact expectations
that ``simulate``'s mean rows must land near.
"""

import csv
import math
import statistics
from collections import Counter
from fractions import Fraction

import pytest

from ncretx import run_scheduler
from ncretx.cli import main as cli_main
from ncretx.harness import payload_check
from ncretx.metrics import time_to_decode

from conftest import assert_peeling_sound
from worlds import XOR_SCHEDULERS, check_xor_schedulers, matrix, multisets

SMALL_WORLD = [(n, m) for n in (1, 2, 3) for m in range(2, 7)] + [(4, m) for m in range(2, 5)]


@pytest.mark.parametrize("batch,receivers", SMALL_WORLD)
def test_small_world_keeps_every_xor_invariant(batch, receivers):
    above_arq = [rows for rows in multisets(batch, receivers)
                 if check_xor_schedulers(batch, rows)]
    assert above_arq == []


@pytest.mark.parametrize("batch,receivers", SMALL_WORLD)
def test_small_world_peels_inside_the_gf2_span(batch, receivers):
    for rows in multisets(batch, receivers):
        mat = matrix(batch, rows)
        for name in XOR_SCHEDULERS:
            assert_peeling_sound(mat, name)


@pytest.mark.parametrize("batch,receivers", [(n, m) for n in (1, 2) for m in range(2, 7)]
                         + [(3, m) for m in range(2, 5)])
def test_small_world_rlnc_payloads_decode(batch, receivers):
    for seed, rows in enumerate(multisets(batch, receivers)):
        payload_check(matrix(batch, rows), "rlnc", payload_len=8, seed=seed)


def test_simulate_means_land_on_the_exact_expectations(tmp_path):
    # M=3, N=4, p=0.3: each multiset of rows weighs its number of orders
    # times p^lost (1-p)^received, so the four XOR schedulers' E[repairs],
    # E[ratio] and E[ttd_mean | any loss] are exact sums over 816 matrices.
    # ``simulate``'s mean rows must land within 4 standard errors of them,
    # the errors read from its replication rows
    receivers, batch, p = 3, 4, Fraction(3, 10)
    exact = {name: [Fraction(0)] * 3 for name in XOR_SCHEDULERS}
    total = any_loss = Fraction(0)
    for rows in multisets(batch, receivers):
        mat = matrix(batch, rows)
        lost = int(mat.cells.sum())
        orders = math.factorial(receivers)
        for count in Counter(rows).values():
            orders //= math.factorial(count)
        weight = orders * p ** lost * (1 - p) ** (receivers * batch - lost)
        total += weight
        any_loss += weight if lost else 0
        results = {name: run_scheduler(name, mat) for name in XOR_SCHEDULERS}
        arq = results["arq"].schedule.retransmission_count
        for name, result in results.items():
            repairs = result.schedule.retransmission_count
            n, ttd, _ = time_to_decode(result.losses, result.original_slot, result.receivers).sums
            expect = exact[name]
            expect[0] += weight * repairs
            expect[1] += weight * (Fraction(repairs, arq) if arq else 0)
            expect[2] += weight * (Fraction(ttd, n) if n else 0)
    assert total == 1
    assert exact["arq"][1] == 1 - (1 - p) ** (receivers * batch)

    out = tmp_path / "exact.csv"
    assert cli_main(["simulate", "--algorithms", ",".join(XOR_SCHEDULERS), "--receivers", "3",
                     "--loss", "0.3", "--batch", "4", "--reps", "4000", "--seed", "0",
                     "--workers", "1", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    for name, expect in exact.items():
        mine = [row for row in rows if row["algorithm"] == name]
        runs = [row for row in mine if row["replication"].isdigit()]
        (mean,) = [row for row in mine if row["replication"] == "mean"]
        assert len(runs) == 4000
        for column, value in zip(("retransmissions", "ratio", "ttd_mean"),
                                 (expect[0], expect[1], expect[2] / any_loss)):
            samples = [float(row[column]) for row in runs if row[column]]
            se = statistics.pstdev(samples) / math.sqrt(len(samples))
            assert abs(float(mean[column]) - value) < 4 * se, (name, column)
