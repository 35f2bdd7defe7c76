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


def gf256_mul(a: int, b: int) -> int:
    return int(MUL_TABLE[a, b])


def gf256_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no multiplicative inverse")
    return int(INV_TABLE[a])


def vec_scale(vec: np.ndarray, scalar: int) -> np.ndarray:
    """Multiply every element of a uint8 vector by a GF(2^8) scalar."""
    return MUL_TABLE[vec, scalar]


def mat_vec(matrix: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """GF(2^8) matrix-vector product (rows of `matrix` dotted with `vec`)."""
    acc = np.zeros(matrix.shape[0], dtype=np.uint8)
    for j in range(matrix.shape[1]):
        if vec[j]:
            acc ^= MUL_TABLE[matrix[:, j], vec[j]]
    return acc


def rank(rows) -> int:
    """Rank of a set of GF(2^8) coefficient vectors, by Gaussian elimination."""
    basis = Gf256Basis()
    for row in rows:
        basis.insert(np.asarray(row, dtype=np.uint8))
    return basis.rank


class Gf256Basis:
    """Incremental row-echelon basis over GF(2^8).

    insert() reduces a vector against the current pivots and keeps it if
    anything survives, so rank grows by exactly 1 per innovative vector.
    """

    def __init__(self) -> None:
        self.pivot_rows: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        v = np.array(vec, dtype=np.uint8)
        for piv, row in self.pivot_rows.items():
            if v[piv]:
                v ^= MUL_TABLE[row, v[piv]]
        return v

    def insert(self, vec: np.ndarray) -> bool:
        """Add a vector; returns True iff it was innovative (rank increased)."""
        v = self.reduce(vec)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = MUL_TABLE[v, INV_TABLE[v[piv]]]  # normalize pivot to 1
        self.pivot_rows[piv] = v
        return True


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A X = B over GF(2^8) for square nonsingular A.

    B may be a vector or a matrix of stacked right-hand sides (one system
    per column); used by the random-linear decoder to invert the received
    coefficient matrix and recover payload bytes.
    """
    a = np.array(a, dtype=np.uint8)
    b = np.array(b, dtype=np.uint8)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("coefficient matrix must be square")
    rhs = b.reshape(n, -1)
    for col in range(n):
        piv = col + int(np.flatnonzero(a[col:, col])[0]) if a[col:, col].any() else -1
        if piv < 0:
            raise ValueError("singular coefficient matrix")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            rhs[[col, piv]] = rhs[[piv, col]]
        inv = INV_TABLE[a[col, col]]
        a[col] = MUL_TABLE[a[col], inv]
        rhs[col] = MUL_TABLE[rhs[col], inv]
        for r in range(n):
            f = a[r, col]
            if r != col and f:
                a[r] ^= MUL_TABLE[a[col], f]
                rhs[r] ^= MUL_TABLE[rhs[col], f]
    return rhs.reshape(b.shape)


# -- GF(2) helpers: coded-packet constituent sets as bitmask vectors --


def constituents_to_bits(constituents, batch: int) -> int:
    """Encode a constituent id set as a GF(2) vector packed into an int."""
    bits = 0
    for k in constituents:
        if not 1 <= k <= batch:
            raise IndexError(f"packet id {k} out of range 1..{batch}")
        bits |= 1 << (k - 1)
    return bits


def gf2_decodable(vectors, batch: int) -> set[int]:
    """All packet ids whose unit vector lies in the GF(2) span of `vectors`.

    Reduced-row-echelon elimination over bitmask-packed vectors; this is the
    reference answer for what any XOR decoder could possibly recover.
    """
    basis: dict[int, int] = {}  # leading-bit position -> row
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    # clear each pivot bit from every other row (reduced echelon form)
    for lead in sorted(basis, reverse=True):
        for other in basis:
            if other != lead and (basis[other] >> lead) & 1:
                basis[other] ^= basis[lead]
    return {row.bit_length() for row in basis.values()
            if row.bit_count() == 1 and row.bit_length() <= batch}
