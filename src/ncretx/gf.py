"""Finite-field arithmetic for the coding layers.

GF(2) is implicit everywhere XOR coding appears (a coded packet is a 0/1
coefficient vector over the batch); this module adds GF(2^8) for random
linear coding: byte-valued coefficients with multiplication modulo the
fixed irreducible polynomial x^8 + x^4 + x^3 + x + 1 (0x11B).  Products and
inverses are read from full tables built at import from that polynomial, so
numpy fancy-indexing vectorizes the matrix operations.
"""

from __future__ import annotations

import numpy as np

POLY = 0x11B


def _product_table() -> np.ndarray:
    """a * b for every byte pair (a by row, b by column) by shift and add:
    XOR in a * x^j wherever bit j of b is set, doubling a mod POLY each step."""
    b = np.arange(256, dtype=np.uint8)
    table = np.zeros((256, 256), dtype=np.uint8)
    doubled = b.copy()  # a * x^j for every a, row-wise
    for j in range(8):
        table ^= doubled[:, None] * (b >> j & 1)
        # the shift drops x^8, which is POLY's low byte mod POLY: XOR that in
        doubled = (doubled << 1) ^ (doubled >> 7) * np.uint8(POLY & 0xFF)
    return table


MUL_TABLE = _product_table()
# the inverse of a is the b with a * b == 1; argmax maps 0, which has none, to 0
INV_TABLE = np.argmax(MUL_TABLE == 1, axis=1).astype(np.uint8)


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

