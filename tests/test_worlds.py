"""The small world: every invariant on every loss matrix up to a size.

One matrix per multiset of rows (``worlds``): 8,052 with N <= 3 and M <= 6
or N = 4 and M <= 4, where no scheduler breaks a bound.  The large world
is ``tests/large_world.py``, a CI step.
"""

import pytest

from ncretx.harness import payload_check

from worlds import check_xor_schedulers, matrix, multisets

SMALL_WORLD = [(n, m) for n in (1, 2, 3) for m in range(2, 7)] + [(4, m) for m in range(2, 5)]


@pytest.mark.parametrize("batch,receivers", SMALL_WORLD)
def test_small_world_keeps_every_xor_invariant(batch, receivers):
    above_arq = [rows for rows in multisets(batch, receivers)
                 if check_xor_schedulers(batch, rows)]
    assert above_arq == []


@pytest.mark.parametrize("batch,receivers", [(n, m) for n in (1, 2) for m in range(2, 7)]
                         + [(3, m) for m in range(2, 5)])
def test_small_world_rlnc_payloads_decode(batch, receivers):
    for seed, rows in enumerate(multisets(batch, receivers)):
        payload_check(matrix(batch, rows), "rlnc", payload_len=8, seed=seed)
