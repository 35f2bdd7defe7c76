"""Exhaustive small worlds: every loss matrix up to a size, and the
invariants each XOR scheduler keeps on it.

No scheduler reads the receivers' order
(``test_every_scheduler_ignores_the_receivers_order``), so one matrix per
multiset of 0/1 rows stands for every order of those rows.  A multiset is
a sorted tuple of row indices into ``itertools.product((0, 1),
repeat=batch)``: with batch 4, row 5 is ``(0, 1, 0, 1)`` and row 15 loses
all four packets.  ``tests/test_worlds.py`` checks the small world in
Tier-1 and ``tests/large_world.py`` the large one.
"""

import itertools
from functools import lru_cache

import numpy as np

from ncretx import TransmissionMatrix, run_scheduler
from ncretx.harness import _check_xor_recoveries

from conftest import UnguardedBenefit, assert_strict_rule, benefit_record

XOR_SCHEDULERS = ("arq", "greedy", "sort-utility", "benefit")


@lru_cache(maxsize=None)
def row_table(batch: int) -> np.ndarray:
    return np.array(list(itertools.product((0, 1), repeat=batch)), dtype=np.uint8)


def multisets(batch: int, receivers: int):
    """Every multiset of ``receivers`` rows, as sorted row-index tuples."""
    return itertools.combinations_with_replacement(range(2 ** batch), receivers)


def matrix(batch: int, rows) -> TransmissionMatrix:
    return TransmissionMatrix(row_table(batch)[list(rows)])


@lru_cache(maxsize=None)
def payloads(batch: int) -> np.ndarray:
    return np.random.default_rng(batch).integers(0, 256, size=(batch, 8), dtype=np.uint8)


def check_xor_schedulers(batch: int, rows) -> int:
    """Run the four XOR schedulers on one multiset and check each run: full
    recovery, ``max_i L_i`` <= repairs <= the number of packets anyone lost,
    the strict rule for greedy and sort-utility (``assert_strict_rule``),
    every recovery's bytes through ``_check_xor_recoveries``, and for
    benefit the same record (``benefit_record``) with the walk's guard
    defeated and every scan cycle run (``UnguardedBenefit``).

    Returns how many repairs benefit made above the number of packets anyone
    lost, which is what arq makes: the one bound a known fault breaks.  Any
    other broken invariant raises.
    """
    mat = matrix(batch, rows)
    lost_anywhere = int(mat.cells.any(axis=0).sum())
    above_arq = 0
    for name in XOR_SCHEDULERS:
        result = run_scheduler(name, mat)
        retx = result.schedule.retransmission_count
        assert all(len(state.recovery_slot) == batch for state in result.receivers), (name, rows)
        assert retx >= mat.max_receiver_losses, (name, rows)
        if name == "benefit":
            above_arq = max(retx - lost_anywhere, 0)
            assert benefit_record(result) == benefit_record(UnguardedBenefit(mat).execute()), rows
        else:
            assert retx <= lost_anywhere, (name, rows)
        if name in ("greedy", "sort-utility"):
            assert_strict_rule(mat, result, name, rows)
        _check_xor_recoveries(result, payloads(batch))
    return above_arq
