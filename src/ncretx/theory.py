"""Closed-form retransmission floor for lossless repair of Bernoulli losses.

With per-receiver loss rates p_i over a batch of N packets, the number of
losses L_i at receiver i is Binomial(N, p_i).  Any repair scheme in which
every repair transmission reaches everyone needs at least max_i L_i
transmissions, so the distribution of that maximum is the analytic floor
the schedulers are measured against:

    P[L_i <= j]   binomial CDF per receiver, j = 0..N
    Q_j           P[max_i L_i = j], a telescoping product difference
    E[max_i L_i]  sum_j j * Q_j, the expected minimum repair count

The floor is symmetric in the receivers, so the rates are held as (rate,
count) pairs.  Each distinct rate's CDF is one running log-sum-exp over its
log pmf: the floor costs O(N) per distinct rate, whatever M, and batches up
to 10^4 stay stable.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .metrics import retransmission_ratio

# The largest batch the floor is computed for: loss_cdf holds a few arrays
# of batch + 1 floats, about 80 MB each at this size.
MAX_BATCH = 10**7
# The most receivers: model.MAX_CELLS at N = 1.  M is a count: it costs no memory.
MAX_RECEIVERS = 10**6


@dataclass(frozen=True)
class TheoryParams:
    """A batch of N packets; ``rates`` pairs each loss rate with its receiver count."""

    batch: int
    rates: tuple[tuple[float, int], ...]

    def __post_init__(self) -> None:
        try:  # plain ints, whatever integer type came in
            object.__setattr__(self, "batch", operator.index(self.batch))
            object.__setattr__(self, "rates", tuple((p, operator.index(count))
                                                    for p, count in self.rates))
        except TypeError:
            raise ValueError(f"theory batch and receiver counts must be integers: "
                             f"batch {self.batch!r}, rates {self.rates!r}") from None
        if self.receivers < 1 or self.batch < 1:
            raise ValueError("receivers and batch must be >= 1")
        if self.batch > MAX_BATCH:
            raise ValueError(f"theory batch {self.batch} is above {MAX_BATCH}")
        if self.receivers > MAX_RECEIVERS:
            raise ValueError(f"theory receiver count {self.receivers} is above {MAX_RECEIVERS}")
        for p, count in self.rates:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"loss probability {p} outside [0, 1]")
            if count < 1:
                raise ValueError(f"loss probability {p} has receiver count {count}; need >= 1")

    @property
    def receivers(self) -> int:
        return sum(count for _, count in self.rates)

    @classmethod
    def homogeneous(cls, receivers: int, batch: int, p: float) -> "TheoryParams":
        return cls(batch, ((float(p), receivers),))


def loss_cdf(batch: int, p: float) -> np.ndarray:
    """P[L <= j] for j = 0..batch, L ~ Binomial(batch, p)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"loss probability {p} outside [0, 1]")
    cdf = np.ones(batch + 1)
    if p == 1.0:
        cdf[:-1] = 0.0
    elif p > 0.0:
        c = np.arange(batch + 1)
        log_fact = np.array([math.lgamma(x + 1) for x in range(batch + 1)])
        log_pmf = (log_fact[batch] - log_fact - log_fact[::-1]
                   + c * math.log(p) + (batch - c) * math.log1p(-p))
        # over the full sum: cancels the lgamma rounding all terms share
        log_cdf = np.logaddexp.accumulate(log_pmf)
        cdf[:-1] = np.minimum(1.0, np.exp(log_cdf[:-1] - log_cdf[-1]))
    return cdf


def q_distribution(params: TheoryParams) -> np.ndarray:
    """Q_j for j = 0..N as an array (sums to 1)."""
    joint = np.ones(params.batch + 1)
    for p, count in params.rates:
        joint *= loss_cdf(params.batch, p) ** count
    return np.diff(joint, prepend=0.0)


def expected_min_retx(params: TheoryParams) -> float:
    """E[max_i L_i]: expected minimum number of repair transmissions."""
    return floor_mean(q_distribution(params))


def floor_mean(q: np.ndarray) -> float:
    """sum_j j * Q_j, the mean of a Q_j distribution over j = 0..N."""
    return float(np.arange(q.size) @ q)


def expected_baseline_retx(params: TheoryParams) -> float:
    """Expected repair count for plain one-per-lost-packet ARQ.

    A packet needs a (single, lossless) retransmission iff at least one
    receiver lost it, so the mean is N * (1 - prod_p (1 - p)^count).
    """
    survive = math.prod((1.0 - p) ** count for p, count in params.rates)
    return params.batch * (1.0 - survive)


def theory_ratio(params: TheoryParams) -> float:
    """Lower-bound retransmission ratio: E[max_i L_i] / E[ARQ repairs]."""
    return retransmission_ratio(expected_min_retx(params), expected_baseline_retx(params))
