"""Run evaluation: retransmission ratio and time-to-decode statistics.

Time to decode is measured per originally-lost cell as the number of slots
between the packet's own original transmission and the slot the receiver
recovered it in; packets received first time contribute nothing.  A run
keeps its samples' exact count, sum and sum of squares as Python ints, and
``moments`` reads the mean and the population deviation (divide by n) from
them: one run's row and the harness's pooled rows take the same path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import IntegrityError
from .schedulers import RunResult


def moments(sums: tuple[int, int, int]) -> tuple[float, float]:
    """Mean and population deviation from the exact count, sum and sum of
    squares of some samples; nan for none.  Each is one correctly rounded
    division of exact ints, the deviation then one square root."""
    n, total, squares = sums
    if not n:
        return math.nan, math.nan
    return total / n, math.sqrt((n * squares - total * total) / (n * n))


@dataclass
class TtdStats:
    samples: list[int]  # one per originally-lost cell, (receiver, packet) order
    sums: tuple[int, int, int]  # count, sum and sum of squares: see ``moments``


@dataclass
class RunMetrics:
    retransmissions: int
    baseline_retransmissions: int
    ratio: float
    ttd_samples: list[int]
    ttd_sums: tuple[int, int, int]

    @property
    def ttd_mean(self) -> float:
        return moments(self.ttd_sums)[0]

    @property
    def ttd_std(self) -> float:
        return moments(self.ttd_sums)[1]


def retransmission_ratio(retransmissions: float, baseline: float) -> float:
    """Repairs, counted or expected, over plain ARQ's (0/0 -> 0: nothing lost)."""
    return 0.0 if baseline == 0 else retransmissions / baseline


def time_to_decode(losses: np.ndarray, original_slot: np.ndarray,
                   receivers) -> TtdStats:
    """Slot deltas from lost original to recovery, per cell, with their
    exact count, sum and sum of squares.

    Raises IntegrityError if any originally-lost cell was never recovered
    (full recovery is guaranteed by every scheduler, so this only fires on
    corrupted inputs).
    """
    rows, cols = np.nonzero(losses)  # receiver-major: (receiver, packet) order
    sent = np.asarray(original_slot).tolist()
    slots = [state.recovery_slot for state in receivers]
    samples: list[int] = []
    for i0, k0 in zip(rows.tolist(), cols.tolist()):
        slot = slots[i0].get(k0 + 1)
        if slot is None:
            raise IntegrityError(f"receiver {i0 + 1} never recovered packet {k0 + 1}")
        samples.append(slot - sent[k0])
    return TtdStats(samples, (len(samples), sum(samples), sum(s * s for s in samples)))


def run_metrics(result: RunResult, baseline: RunResult) -> RunMetrics:
    """Bundle the two evaluation quantities for one completed run."""
    ttd = time_to_decode(result.losses, result.original_slot, result.receivers)
    retx = result.schedule.retransmission_count
    base = baseline.schedule.retransmission_count
    return RunMetrics(retransmissions=retx, baseline_retransmissions=base,
                      ratio=retransmission_ratio(retx, base),
                      ttd_samples=ttd.samples, ttd_sums=ttd.sums)
