"""Bernoulli loss channel for original transmissions.

Each receiver i loses an original with its own fixed probability p_i,
independently per packet.  Coded packets and retransmissions are assumed
to always arrive (perfect, free feedback and lossless repair traffic);
only the N originals of a batch ever sample the channel.

Every receiver row draws from its own RNG stream derived from
``(seed, i)``, so results are reproducible and adding a receiver never
perturbs the rows of existing ones.  The stream is NumPy's
``default_rng(SeedSequence(entropy=seed, spawn_key=(i,)))``, but its PCG64
state is computed here in integer arithmetic (``_row_states``) and set on
one shared generator: building those objects per row cost several times
the draw itself.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache

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
        try:
            seed = operator.index(self.seed)
        except TypeError:
            seed = -1
        if seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "seed", seed)  # a plain int, whatever integer type came in

    @classmethod
    def homogeneous(cls, receivers: int, p: float, seed: int = 0) -> "ChannelParams":
        return cls((float(p),) * receivers, seed)

    @property
    def receivers(self) -> int:
        return len(self.loss_probabilities)


# -- NumPy's SeedSequence and PCG64 seeding, in integer arithmetic --

_MASK32 = 0xFFFF_FFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715    # mixing two pool words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@lru_cache(maxsize=64)
def _hashes(steps: int) -> tuple[int, ...]:
    """The entropy hash's constant before each of ``steps`` steps and after
    the last: step k hashes with entries k and k + 1, whatever it hashes."""
    chain = [0x43B0D7E5]
    for _ in range(steps):
        chain.append(chain[-1] * 0x931E8875 & _MASK32)
    return tuple(chain)


def _output_hashes() -> tuple[np.ndarray, np.ndarray]:
    """``generate_state``'s constants before and after each of its 8 output
    words (4 uint64), which do not depend on the pool either."""
    pairs, h = [], 0x8B51F9DD
    for _ in range(8):
        pairs.append((h, h * 0x58F38DED & _MASK32))
        h = pairs[-1][1]
    before, after = np.array(pairs, dtype=np.uint64).T
    return before, after


_BEFORE_OUTPUT, _AFTER_OUTPUT = _output_hashes()


@lru_cache(maxsize=64)
def _spawn_terms(spawned: int, rows: Sequence[int]) -> np.ndarray:
    """What mixing row i's spawn key into pool word d subtracts, for each
    row and each of the 8 output words (pool word d = j % 4): the same for
    every seed of one length, so sweeps over seeds reuse it."""
    h = np.array(_hashes(spawned + _POOL_SIZE)[spawned:spawned + _POOL_SIZE + 1],
                 dtype=np.uint64)
    v = (np.array(rows, dtype=np.uint64)[:, None] ^ h[:-1]) * h[1:] & _MASK32
    terms = np.tile((v ^ v >> 16) * _MIX_R, 2)
    terms.flags.writeable = False  # every caller shares it
    return terms


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an int ([0] for 0)."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _row_states(seed: int, rows: Sequence[int]) -> Iterator[dict]:
    """The PCG64 state of ``SeedSequence(entropy=seed, spawn_key=(i,))``
    for each i in ``rows`` (a range or tuple, which keys a cache), as
    ``PCG64.state`` reads it.  A row index is below 2**32, so its spawn key
    is one word; the seed may be any size.

    SeedSequence hashes its entropy words into a pool of four uint32: the
    seed's words, padded to four because a spawn key follows, then the
    seed's further words, then the spawn key.  Everything before the spawn
    key is the same for every row, so it is mixed once, in Python ints.
    The spawn key's mix and the output hash are done for all rows at once,
    in uint64 arrays whose low 32 bits are the uint32 arithmetic.  The pool
    yields four uint64 words: PCG64 takes the first two as its initial
    state and the last two as its stream, and steps twice.
    """
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))
    spawned = 4 * len(words)  # hash steps before the spawn key: 4 + 12 + 4 per further word
    h = _hashes(spawned)
    pool = []
    for k in range(_POOL_SIZE):
        v = (words[k] ^ h[k]) * h[k + 1] & _MASK32
        pool.append(v ^ v >> 16)
    k = _POOL_SIZE
    for s in range(_POOL_SIZE):
        for d in range(_POOL_SIZE):
            if s != d:
                v = (pool[s] ^ h[k]) * h[k + 1] & _MASK32
                x = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _MASK32
                pool[d] = x ^ x >> 16
                k += 1
    for w in words[_POOL_SIZE:]:
        for d in range(_POOL_SIZE):
            v = (w ^ h[k]) * h[k + 1] & _MASK32
            x = (_MIX_L * pool[d] - _MIX_R * (v ^ v >> 16)) & _MASK32
            pool[d] = x ^ x >> 16
            k += 1

    x = (np.array(pool * 2, dtype=np.uint64) * _MIX_L - _spawn_terms(spawned, rows)) & _MASK32
    x ^= x >> 16
    x = (x ^ _BEFORE_OUTPUT) * _AFTER_OUTPUT & _MASK32
    x ^= x >> 16
    for high, low, inc_high, inc_low in x.astype("<u4").view("<u8").tolist():
        inc = (inc_high << 65 | inc_low << 1 | 1) & _MASK128
        yield {"bit_generator": "PCG64",
               "state": {"state": ((inc + (high << 64 | low)) * _PCG_MULT + inc) & _MASK128,
                         "inc": inc},
               "has_uint32": 0, "uinteger": 0}


_local = threading.local()


def _generator() -> tuple[np.random.PCG64, np.random.Generator]:
    """This thread's PCG64 and its Generator, reused for every row.  They
    are made on first use, so importing the package does not import
    ``numpy.random``."""
    try:
        return _local.generator
    except AttributeError:
        bits = np.random.PCG64(0)
        _local.generator = bits, np.random.Generator(bits)
        return _local.generator


def sample_matrix(params: ChannelParams, batch: int) -> TransmissionMatrix:
    """Draw one M x N loss realization."""
    if batch < 1:
        raise ValueError("batch size must be >= 1")
    bits, rng = _generator()
    draws = np.empty((params.receivers, batch))
    states = _row_states(params.seed, range(1, params.receivers + 1))
    for row, state in zip(draws, states):
        bits.state = state
        rng.random(out=row)
    return TransmissionMatrix(draws < np.array(params.loss_probabilities)[:, None])

