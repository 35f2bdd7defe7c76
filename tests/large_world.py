"""The large world: every XOR invariant of ``worlds.check_xor_schedulers``
on every loss matrix with N = 4 and M <= 8, or N = 5 and M <= 5, one per
multiset of rows: 1,171,318 matrices, about 13 CPU minutes.

Benefit makes more repairs than arq on exactly the multisets in
``BENEFIT_ABOVE_ARQ``, one more each.  The script exits 1 on any other
broken invariant, on a multiset that joins the list, and on one that
leaves it, so a change to benefit's rule must update the list.  It runs
one worker process per CPU.

    PYTHONPATH=src python tests/large_world.py
"""

import itertools
import multiprocessing
import sys
import time
from collections import Counter

from worlds import check_xor_schedulers, multisets

LARGE_WORLD = [(4, m) for m in range(2, 9)] + [(5, m) for m in range(2, 6)]
PARTS = 16  # tasks per (N, M): each checks every PARTS-th multiset

# N = 4 rows over itertools.product((0, 1), repeat=4), 3 at M = 7 and 12
# at M = 8: benefit makes 5 repairs where arq makes 4.  The first is
# test_schedulers' 7x4 case.
BENEFIT_ABOVE_ARQ = {
    (5, 6, 9, 10, 12, 12, 15), (5, 6, 9, 10, 12, 13, 15), (5, 6, 9, 10, 12, 14, 15),
    (0, 5, 6, 9, 10, 12, 12, 15), (0, 5, 6, 9, 10, 12, 13, 15), (0, 5, 6, 9, 10, 12, 14, 15),
    (1, 4, 6, 9, 10, 12, 12, 15), (1, 4, 6, 9, 10, 12, 13, 15), (2, 4, 5, 9, 10, 12, 14, 15),
    (5, 6, 9, 10, 12, 12, 12, 15), (5, 6, 9, 10, 12, 12, 13, 15), (5, 6, 9, 10, 12, 12, 14, 15),
    (5, 6, 9, 10, 12, 12, 15, 15), (5, 6, 9, 10, 12, 13, 13, 15), (5, 6, 9, 10, 12, 14, 14, 15),
}


def check_part(task):
    batch, receivers, part = task
    above = {}
    for rows in itertools.islice(multisets(batch, receivers), part, None, PARTS):
        if excess := check_xor_schedulers(batch, rows):
            above[rows] = excess
    return batch, receivers, above


def main() -> int:
    start = time.perf_counter()
    tasks = [(n, m, part) for n, m in LARGE_WORLD for part in range(PARTS)]
    above, done = {}, Counter()
    with multiprocessing.get_context("spawn").Pool() as pool:
        for batch, receivers, part_above in pool.imap_unordered(check_part, tasks):
            above.update(part_above)
            done[batch, receivers] += 1
            if done[batch, receivers] == PARTS:
                print(f"N={batch} M={receivers}: checked at {time.perf_counter() - start:.0f} s",
                      flush=True)
    pinned = dict.fromkeys(BENEFIT_ABOVE_ARQ, 1)
    for rows in sorted(above.keys() | pinned.keys()):
        if above.get(rows) != pinned.get(rows):
            print(f"{rows}: benefit makes {above.get(rows, 0)} repairs more than arq, "
                  f"pinned {pinned.get(rows, 0)}")
    print(f"{len(above)} multisets where benefit makes more repairs than arq, {len(pinned)} pinned")
    return int(above != pinned)


if __name__ == "__main__":
    sys.exit(main())
