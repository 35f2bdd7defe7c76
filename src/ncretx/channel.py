"""Bernoulli loss channel for original transmissions.

Each receiver i loses an original with its own fixed probability p_i,
independently per packet.  Coded packets and retransmissions are assumed
to always arrive (perfect, free feedback and lossless repair traffic);
only the N originals of a batch ever sample the channel.

Every receiver row draws from its own RNG stream derived from
``(seed, i)``, so results are reproducible and adding a receiver never
perturbs the rows of existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import TransmissionMatrix


@dataclass(frozen=True)
class ChannelParams:
    """Per-receiver loss probabilities plus the RNG seed."""

    loss_probabilities: tuple[float, ...]
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.loss_probabilities) < 2:
            raise ValueError("need loss probabilities for at least 2 receivers")
        for p in self.loss_probabilities:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"loss probability {p} outside [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    @classmethod
    def homogeneous(cls, receivers: int, p: float, seed: int = 0) -> "ChannelParams":
        return cls((float(p),) * receivers, seed)

    @property
    def receivers(self) -> int:
        return len(self.loss_probabilities)


def _row_rng(seed: int, i: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))


def sample_matrix(params: ChannelParams, batch: int) -> TransmissionMatrix:
    """Draw one M x N loss realization."""
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    m = params.receivers
    cells = np.empty((m, batch), dtype=np.uint8)
    for i, p in enumerate(params.loss_probabilities, start=1):
        cells[i - 1] = _row_rng(params.seed, i).random(batch) < p
    return TransmissionMatrix(cells)


_CHUNK = 10_000  # replications drawn per block in sample_loss_counts


def sample_loss_counts(params: ChannelParams, batch: int, replications: int) -> np.ndarray:
    """Per-receiver lost-packet counts L_i for many independent batches.

    Batched Monte Carlo path for distributional checks: row i consumes its
    own (seed, i) stream exactly as in sample_matrix, drawing all
    replications at once.  Returns an array of shape (replications, M).
    """
    if batch < 1 or replications < 1:
        raise ValueError("batch and replications must be >= 1")
    counts = np.empty((replications, params.receivers), dtype=np.int64)
    for i, p in enumerate(params.loss_probabilities, start=1):
        rng = _row_rng(params.seed, i)
        for done in range(0, replications, _CHUNK):
            draws = rng.random((min(_CHUNK, replications - done), batch)) < p
            counts[done:done + len(draws), i - 1] = draws.sum(axis=1)
    return counts
