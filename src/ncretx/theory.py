"""Closed-form retransmission floor for lossless repair of Bernoulli losses.

With per-receiver loss rates p_i over a batch of N packets, the number of
losses L_i at receiver i is Binomial(N, p_i).  Any repair scheme in which
every repair transmission reaches everyone needs at least max_i L_i
transmissions, so the distribution of that maximum is the analytic floor
the schedulers are measured against:

    P[L_i <= j]   binomial CDF per receiver, j = 0..N
    Q_j           P[max_i L_i = j], a telescoping product difference
    E[max_i L_i]  sum_j j * Q_j, the expected minimum repair count

Each distinct loss rate's CDF is one running log-sum-exp over its log pmf:
the floor costs O(N * M), and batches up to 10^4 stay stable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TheoryParams:
    receivers: int
    batch: int
    loss_probabilities: tuple[float, ...]

    def __post_init__(self) -> None:
        if self.receivers < 1 or self.batch < 1:
            raise ValueError("receivers and batch must be >= 1")
        if len(self.loss_probabilities) != self.receivers:
            raise ValueError("need one loss probability per receiver")
        for p in self.loss_probabilities:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"loss probability {p} outside [0, 1]")

    @classmethod
    def homogeneous(cls, receivers: int, batch: int, p: float) -> "TheoryParams":
        return cls(receivers, batch, (float(p),) * receivers)


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
    for p, count in Counter(params.loss_probabilities).items():
        joint *= loss_cdf(params.batch, p) ** count
    return np.diff(joint, prepend=0.0)


def expected_min_retx(params: TheoryParams) -> float:
    """E[max_i L_i]: expected minimum number of repair transmissions."""
    q = q_distribution(params)
    return float(np.arange(params.batch + 1) @ q)


def expected_baseline_retx(params: TheoryParams) -> float:
    """Expected repair count for plain one-per-lost-packet ARQ.

    A packet needs a (single, lossless) retransmission iff at least one
    receiver lost it, so the mean is N * (1 - prod_i (1 - p_i)).
    """
    survive = 1.0
    for p in params.loss_probabilities:
        survive *= 1.0 - p
    return params.batch * (1.0 - survive)


def theory_ratio(params: TheoryParams) -> float:
    """Lower-bound retransmission ratio: E[max_i L_i] / E[ARQ repairs].

    Zero when no receiver ever loses anything (no repairs to compare).
    """
    baseline = expected_baseline_retx(params)
    if baseline == 0.0:
        return 0.0
    return expected_min_retx(params) / baseline
