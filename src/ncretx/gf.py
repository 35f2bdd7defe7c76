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

_PRODUCTS = MUL_TABLE.ravel()  # _PRODUCTS[a << 8 | b] == MUL_TABLE[a, b]


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise GF(2^8) product of broadcastable uint8 arrays.

    One gather through a single native-integer index array: about twice as
    fast as MUL_TABLE[a, b], which broadcasts two index arrays.
    """
    return _PRODUCTS.take((a.astype(np.intp) << 8) | b)


def mat_vec(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """GF(2^8) matrix-vector product (rows of `matrix` dotted with `vec`)."""
    return np.bitwise_xor.reduce(_mul(np.asarray(vec, dtype=np.uint8), matrix), axis=1)


class Gf256Basis:
    """Incremental reduced row-echelon basis over GF(2^8).

    The first `rank` rows of one array hold the basis: each row has a 1 in
    its pivot column, and every pivot column is 0 in all other rows.  So
    insert() reduces a vector against all pivots at once and keeps it if
    anything survives; rank grows by exactly 1 per innovative vector.
    """

    def __init__(self) -> None:
        self.rank = 0
        self._rows = np.zeros((0, 0), dtype=np.uint8)  # sized at the first insert
        self._pivots = np.zeros(0, dtype=np.intp)

    def insert(self, vec: np.ndarray) -> bool:
        """Add a vector; returns True iff it was innovative (rank increased)."""
        v = np.asarray(vec, dtype=np.uint8)
        if not self._rows.size:  # rank can never exceed the width
            self._rows = np.zeros((v.size, v.size), dtype=np.uint8)
            self._pivots = np.zeros(v.size, dtype=np.intp)
        rows = self._rows[:self.rank]
        # subtract each pivot entry times its row: 0 at every pivot after
        v = v ^ np.bitwise_xor.reduce(_mul(v[self._pivots[:self.rank], None], rows), axis=0)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = MUL_TABLE[INV_TABLE[v[piv]]][v]  # normalize pivot to 1
        rows ^= MUL_TABLE[rows[:, piv]][:, v]  # clear the new pivot column
        self._rows[self.rank] = v
        self._pivots[self.rank] = piv
        self.rank += 1
        return True


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

