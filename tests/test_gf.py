"""GF(2^8) arithmetic against schoolbook oracles; the GF(2) elimination oracle."""

import numpy as np
import pytest

from ncretx.gf import EXP_TABLE, INV_TABLE, MUL_TABLE, POLY, Gf256Basis, mat_vec, solve

from gf2_oracle import constituents_to_bits, gf2_decodable


def mul_schoolbook(a: int, b: int) -> int:
    """Carry-less polynomial multiply reduced mod the field polynomial."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        if a & 0x100:
            a ^= POLY
        b >>= 1
    return r


def test_tables_match_schoolbook_exhaustively():
    for a in range(256):
        for b in range(256):
            assert MUL_TABLE[a, b] == mul_schoolbook(a, b)


def test_identity_and_zero():
    for a in range(256):
        assert MUL_TABLE[a, 1] == a
        assert MUL_TABLE[a, 0] == 0


def test_inverses_against_exhaustive_search():
    # brute-force inverse: the unique b with a*b == 1
    for a in range(1, 256):
        brute = next(b for b in range(1, 256) if mul_schoolbook(a, b) == 1)
        assert INV_TABLE[a] == brute


def test_field_axioms_random_triples():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 256, 10_000)
    b = rng.integers(0, 256, 10_000)
    c = rng.integers(0, 256, 10_000)
    ab = MUL_TABLE[a, b]
    assert np.array_equal(ab, MUL_TABLE[b, a])
    assert np.array_equal(MUL_TABLE[ab, c], MUL_TABLE[a, MUL_TABLE[b, c]])
    assert np.array_equal(MUL_TABLE[a, b ^ c], MUL_TABLE[a, b] ^ MUL_TABLE[a, c])


def test_exp_table_cycles_through_all_nonzero():
    assert sorted(int(x) for x in EXP_TABLE[:255]) == list(range(1, 256))


# -- rank, with a determinant oracle built from permutation expansion --


def rank(rows) -> int:
    """Rank of GF(2^8) vectors: the size of the basis they build."""
    basis = Gf256Basis()
    for row in rows:
        basis.insert(row)
    return basis.rank


def det_oracle(mat: np.ndarray) -> int:
    """Determinant by permutation expansion (characteristic 2: no signs)."""
    from itertools import permutations
    n = mat.shape[0]
    total = 0
    for perm in permutations(range(n)):
        prod = 1
        for i, j in enumerate(perm):
            prod = mul_schoolbook(prod, int(mat[i, j]))
            if prod == 0:
                break
        total ^= prod
    return total


def rank_oracle(mat: np.ndarray) -> int:
    """Largest k with a k x k submatrix of nonzero determinant."""
    from itertools import combinations
    m, n = mat.shape
    for k in range(min(m, n), 0, -1):
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                if det_oracle(mat[np.ix_(rows, cols)]) != 0:
                    return k
    return 0


def test_rank_of_identity():
    eye = np.eye(5, dtype=np.uint8)
    assert rank(list(eye)) == 5


def test_duplicate_row_adds_nothing():
    rows = [np.array([1, 2, 3], dtype=np.uint8)] * 2
    assert rank(rows) == 1


def test_rank_matches_determinant_oracle_on_random_4x4():
    rng = np.random.default_rng(5)
    for trial in range(40):
        mat = rng.integers(0, 256, (4, 4), dtype=np.uint8)
        if trial % 4 == 1:
            mat[2] = mat[0]  # force a dependence
        if trial % 4 == 2:
            mat[3] = MUL_TABLE[mat[1], int(rng.integers(1, 256))]
        if trial % 4 == 3:
            mat[1] = mat[0] ^ mat[2]
        assert rank(list(mat)) == rank_oracle(mat)


def test_rank_invariant_under_swap_and_scale():
    rng = np.random.default_rng(7)
    for _ in range(20):
        mat = rng.integers(0, 256, (5, 6), dtype=np.uint8)
        base = rank(list(mat))
        shuffled = mat[rng.permutation(5)]
        assert rank(list(shuffled)) == base
        scaled = mat.copy()
        scaled[2] = MUL_TABLE[scaled[2], int(rng.integers(1, 256))]
        assert rank(list(scaled)) == base


def test_basis_innovation_flags():
    basis = Gf256Basis()
    assert basis.insert(np.array([1, 0, 0], dtype=np.uint8))
    assert not basis.insert(np.array([7, 0, 0], dtype=np.uint8))  # scaled copy
    assert basis.insert(np.array([1, 1, 0], dtype=np.uint8))
    assert basis.rank == 2


def product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A X over GF(2^8) through MUL_TABLE, for any stack of columns X."""
    return np.bitwise_xor.reduce(MUL_TABLE[a[:, :, None], x[None, :, :]], axis=1)


def combination(rows, rng) -> np.ndarray:
    coeffs = rng.integers(0, 256, (1, len(rows)), dtype=np.uint8)
    return product(coeffs, np.array(rows, dtype=np.uint8))[0]


def elimination_rank(rows) -> int:
    """Rank by textbook Gauss-Jordan with row swaps, one row at a time."""
    m = np.array(rows, dtype=np.uint8)
    r = 0
    for col in range(m.shape[1] if m.ndim == 2 else 0):
        below = [i for i in range(r, len(m)) if m[i, col]]
        if not below:
            continue
        m[[r, below[0]]] = m[[below[0], r]]
        m[r] = MUL_TABLE[m[r], INV_TABLE[m[r, col]]]
        for i in range(len(m)):
            if i != r and m[i, col]:
                m[i] ^= MUL_TABLE[m[r], m[i, col]]
        r += 1
    return r


def test_basis_rows_stay_in_reduced_row_echelon_form():
    rng = np.random.default_rng(19)
    for _ in range(30):
        width = int(rng.integers(1, 25))
        basis = Gf256Basis()
        inserted = []
        for _ in range(int(rng.integers(1, width + 5))):
            vec = rng.integers(0, 256, width, dtype=np.uint8)
            vec[rng.random(width) < rng.random()] = 0  # sparse ones too
            if inserted and rng.random() < 0.3:
                vec = combination(inserted, rng)
            before = basis.rank
            grew = basis.insert(vec)
            inserted.append(vec)
            assert basis.rank == elimination_rank(inserted)
            assert grew == (basis.rank == before + 1)
            rows = basis._rows[:basis.rank]
            pivots = basis._pivots[:basis.rank]
            assert len(set(pivots.tolist())) == basis.rank
            assert np.array_equal(rows[:, pivots], np.eye(basis.rank, dtype=np.uint8))
            # the rows span exactly what was inserted
            assert elimination_rank(list(rows) + inserted) == basis.rank


def test_insert_rejects_combinations_of_earlier_rows():
    rng = np.random.default_rng(23)
    for _ in range(40):
        width = int(rng.integers(1, 30))
        rows = list(rng.integers(0, 256, (int(rng.integers(1, width + 1)), width),
                                 dtype=np.uint8))
        basis = Gf256Basis()
        for row in rows:
            basis.insert(row)
        before = basis.rank
        assert not basis.insert(combination(rows, rng))
        assert basis.rank == before


def test_solve_round_trip():
    rng = np.random.default_rng(13)
    for n in [1, 2, 3, 5, 8, 16, 33, 64]:
        while True:
            a = rng.integers(0, 256, (n, n), dtype=np.uint8)
            if elimination_rank(a) == n:
                break
        x = rng.integers(0, 256, (n, 4), dtype=np.uint8)
        assert np.array_equal(solve(a, product(a, x)), x)
        assert np.array_equal(solve(a, product(a, x[:, :1])[:, 0]), x[:, 0])


def test_solve_rejects_singular():
    a = np.array([[1, 2], [2, 4]], dtype=np.uint8)
    a[1] = MUL_TABLE[a[0], 2]
    with pytest.raises(ValueError):
        solve(a, np.zeros((2, 1), dtype=np.uint8))
    rng = np.random.default_rng(29)
    for n in (16, 40, 64):
        a = rng.integers(0, 256, (n, n), dtype=np.uint8)
        dependent = int(rng.integers(0, n))
        others = [row for r, row in enumerate(a) if r != dependent]
        a[dependent] = combination(others, rng)
        with pytest.raises(ValueError, match="singular"):
            solve(a, rng.integers(0, 256, (n, 3), dtype=np.uint8))


def test_mat_vec_matches_scalar_products():
    rng = np.random.default_rng(31)
    for shape in [(1, 1), (5, 7), (64, 200), (3, 0), (0, 4)]:
        matrix = rng.integers(0, 256, shape, dtype=np.uint8)
        vec = rng.integers(0, 256, shape[1], dtype=np.uint8)
        expected = []
        for row in matrix.tolist():
            acc = 0
            for a, b in zip(row, vec.tolist()):
                acc ^= int(MUL_TABLE[a, b])
            expected.append(acc)
        got = mat_vec(matrix, vec)
        assert got.dtype == np.uint8 and got.tolist() == expected


# -- GF(2) elimination oracle --


def test_constituents_to_bits():
    assert constituents_to_bits({1, 3}, 5) == 0b101
    with pytest.raises(IndexError):
        constituents_to_bits({6}, 5)


def test_gf2_decodable_simple_chain():
    vectors = [0b011, 0b110]  # a^b, b^c: nothing solvable alone
    assert gf2_decodable(vectors, 3) == set()
    assert gf2_decodable(vectors + [0b001], 3) == {1, 2, 3}


def test_gf2_decodable_beats_peeling_structure():
    # a^b, a^c, a^b^c has rank 3 and solves everything by elimination
    assert gf2_decodable([0b011, 0b101, 0b111], 3) == {1, 2, 3}


def test_gf2_decodable_matches_bruteforce_span():
    rng = np.random.default_rng(17)
    for _ in range(60):
        n = int(rng.integers(1, 7))
        vecs = [int(rng.integers(1, 2 ** n)) for _ in range(int(rng.integers(0, 7)))]
        # brute force: packet k decodable iff unit vector e_k is in the span
        span = {0}
        for v in vecs:
            span |= {s ^ v for s in span}
        expected = {k for k in range(1, n + 1) if (1 << (k - 1)) in span}
        assert gf2_decodable(vecs, n) == expected
