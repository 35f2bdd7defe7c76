"""Finite-field arithmetic for the coding layers.

GF(2) is implicit everywhere XOR coding appears (a coded packet is a 0/1
coefficient vector over the batch); this module adds GF(2^8) for random
linear coding: byte-valued coefficients with multiplication modulo the
fixed irreducible polynomial x^8 + x^4 + x^3 + x + 1 (0x11B).  Products go
through log/antilog tables built once at import; 3 generates the
multiplicative group for this polynomial.
"""

from __future__ import annotations

import numpy as np

POLY = 0x11B
GENERATOR = 3


def _mul_slow(a: int, b: int) -> int:
    # carry-less multiply mod POLY; only used to build the tables
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= POLY
        b >>= 1
    return r


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.uint8)
    log = np.zeros(256, dtype=np.int32)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x = _mul_slow(x, GENERATOR)
    exp[255:510] = exp[:255]  # wraparound so exp[log a + log b] needs no mod
    return exp, log


EXP_TABLE, LOG_TABLE = _build_tables()

# full 256x256 product table; lets numpy fancy-indexing vectorize mat ops
MUL_TABLE = np.zeros((256, 256), dtype=np.uint8)
_nz = np.arange(1, 256)
MUL_TABLE[1:, 1:] = EXP_TABLE[LOG_TABLE[_nz][:, None] + LOG_TABLE[_nz][None, :]]

INV_TABLE = np.zeros(256, dtype=np.uint8)
INV_TABLE[1:] = EXP_TABLE[255 - LOG_TABLE[_nz]]


def mat_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """GF(2^8) product of an r x n matrix and an n x c matrix.

    One pass over the inner dimension: column j of `a` times row j of `b` is
    an outer product read from rows of the product table.  `take` does that
    read in 0.6-0.8 of the time of MUL_TABLE[a[:, j]][:, b[j]].
    """
    out = np.zeros((len(a), b.shape[1]), dtype=np.uint8)
    for j in range(len(b)):
        out ^= MUL_TABLE.take(a[:, j], axis=0).take(b[j], axis=1)
    return out


class Gf256Basis:
    """Incremental row-echelon basis over GF(2^8).

    The first `rank` rows of one array hold the basis in insertion order:
    each row is 0 before its pivot column, 1 there, and 0 at the pivots of
    the rows before it, so `rows[:, pivots]` is unit upper-triangular.  No
    back-substitution: the basis only ever answers "innovative or not", and
    rank grows by exactly 1 per innovative row.
    """

    def __init__(self) -> None:
        self.rank = 0
        self._rows: np.ndarray | None = None  # width x width, sized at the first insert
        self._pivots: list[int] = []  # row r's pivot column is _pivots[r]

    def insert(self, block: np.ndarray) -> int:
        """Add one vector or a 2-D block of row vectors, eliminated in row
        order; returns a bitmask with bit t set iff row t raised the rank
        (so 1 or 0 for one vector)."""
        b = np.array(block, dtype=np.uint8, ndmin=2)  # a copy: reduced in place
        width = b.shape[-1] if self._rows is None else self._rows.shape[1]
        if np.ndim(block) not in (1, 2) or b.shape[-1] != width:
            raise ValueError(f"insert takes a vector or a 2-D block of width {width}, "
                             f"got shape {np.shape(block)}")
        if self._rows is None:  # rank can never exceed the width
            self._rows = np.zeros((width, width), dtype=np.uint8)
        # each earlier row clears its pivot column; the rows after it are 0 there
        for row, piv in zip(self._rows, self._pivots):
            b[:, piv:] ^= MUL_TABLE[b[:, piv]][:, row[piv:]]
        out = 0
        for t, v in enumerate(b):
            nz = v.nonzero()[0]
            if not nz.size:
                continue
            piv = int(nz[0])
            row = self._rows[self.rank]  # still all zero
            row[piv:] = MUL_TABLE[INV_TABLE[v[piv]]][v[piv:]]  # pivot normalized to 1
            below = b[t + 1:]
            below[:, piv:] ^= MUL_TABLE[below[:, piv]][:, row[piv:]]
            self._pivots.append(piv)
            self.rank += 1
            out |= 1 << t
        return out


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B over GF(2^8) for square nonsingular A.

    B may be a vector or a matrix of stacked right-hand sides (one system
    per column); used by the random-linear decoder to invert the received
    coefficient matrix and recover payload bytes.  Gauss-Jordan on [A | B]:
    each step clears one whole column from every other row at once.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("coefficient matrix must be square")
    aug = np.concatenate([a, b.reshape(n, -1)], axis=1)
    for col in range(n):
        nz = np.flatnonzero(aug[col:, col])
        if nz.size == 0:
            raise ValueError("singular coefficient matrix")
        piv = col + int(nz[0])
        if piv != col:
            aug[[col, piv]] = aug[[piv, col]]
        aug[col, col:] = MUL_TABLE[INV_TABLE[aug[col, col]]][aug[col, col:]]
        factors = aug[:, col].copy()
        factors[col] = 0
        # columns left of col are already cleared in row col
        aug[:, col:] ^= MUL_TABLE[factors][:, aug[col, col:]]
    return aug[:, n:].reshape(b.shape)

