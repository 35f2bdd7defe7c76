"""Run evaluation: retransmission ratio and time-to-decode statistics.

Time to decode is measured per originally-lost cell as the number of slots
between the packet's own original transmission and the slot the receiver
recovered it in; packets received first time contribute nothing.  The
standard deviation is the population form (divide by n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import IntegrityError
from .schedulers import RunResult, Schedule


@dataclass
class TtdStats:
    samples: list[int]  # one per originally-lost cell, (receiver, packet) order
    mean: float
    std: float
    sums: tuple[int, int, int]  # count, sum and sum of squares of the samples


@dataclass
class RunMetrics:
    retransmissions: int
    baseline_retransmissions: int
    ratio: float
    ttd_samples: list[int]
    ttd_mean: float
    ttd_std: float
    ttd_sums: tuple[int, int, int]


def retransmission_ratio(run: Schedule, baseline: Schedule) -> float:
    """Repairs used by a scheduler over repairs used by plain ARQ (0/0 -> 0)."""
    if baseline.retransmission_count == 0:
        return 0.0
    return run.retransmission_count / baseline.retransmission_count


def time_to_decode(losses: np.ndarray, original_slot: np.ndarray,
                   receivers) -> TtdStats:
    """Slot deltas from lost original to recovery, per cell, with mean/std
    and the exact count, sum and sum of squares that pool runs together.

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
    n = len(samples)
    values = np.array(samples, dtype=np.int64)  # one conversion for every statistic
    sums = (n, int(values.sum()), int(values @ values))
    if not n:
        return TtdStats(samples, math.nan, math.nan, sums)
    if int(values.max()) ** 2 * n >= 2**63:  # int64 could wrap; every sample is >= 1
        sums = (n, sum(samples), sum(s * s for s in samples))
    # np.mean's and np.std's values, without their dispatch: S1 / n is the
    # mean while S1 is exact in a float64, and the deviation sums the same
    # squares with the same pairwise reduction
    mean = sums[1] / n if sums[1] < 2**53 else float(values.mean())
    deviations = values - mean
    return TtdStats(samples, mean, math.sqrt(np.add.reduce(deviations * deviations) / n), sums)


def run_metrics(result: RunResult, baseline: RunResult) -> RunMetrics:
    """Bundle the two evaluation quantities for one completed run."""
    ttd = time_to_decode(result.losses, result.original_slot, result.receivers)
    return RunMetrics(
        retransmissions=result.schedule.retransmission_count,
        baseline_retransmissions=baseline.schedule.retransmission_count,
        ratio=retransmission_ratio(result.schedule, baseline.schedule),
        ttd_samples=ttd.samples,
        ttd_mean=ttd.mean,
        ttd_std=ttd.std,
        ttd_sums=ttd.sums,
    )
