"""GF(2^8) arithmetic against schoolbook oracles; the GF(2) elimination oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncretx.gf import INV_TABLE, MUL_TABLE, POLY, Gf256Basis, mat_mul, solve

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
    # brute-force inverse: the unique b with a*b == 1; 0 has none and maps to 0
    assert INV_TABLE[0] == 0
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


def test_basis_rows_stay_in_row_echelon_form():
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
            pivots = basis._pivots
            assert len(set(pivots)) == len(pivots) == basis.rank
            # 1 at its own pivot, 0 at every earlier row's pivot and before its own
            assert np.array_equal(np.tril(rows[:, pivots]), np.eye(basis.rank, dtype=np.uint8))
            assert all(not row[:piv].any() for row, piv in zip(rows, pivots))
            # the rows span exactly what was inserted
            assert elimination_rank(list(rows) + inserted) == basis.rank


@st.composite
def blocks(draw):
    """A width, rows of that width (random, sparse, zero, repeats of earlier
    rows and combinations of them), and how many leading rows go in one at
    a time before the rest go in as one block."""
    width = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["random", "sparse", "zero", "repeat",
                                               "combination"]), max_size=width + 6)):
        row = rng.integers(0, 256, width, dtype=np.uint8)
        if kind == "sparse":
            row[rng.random(width) < 0.7] = 0
        elif kind == "zero":
            row[:] = 0
        elif kind == "repeat" and rows:
            row = rows[int(rng.integers(len(rows)))].copy()
        elif kind == "combination" and rows:
            row = combination(rows, rng)
        rows.append(row)
    head = draw(st.integers(0, len(rows)))
    return np.array(rows, dtype=np.uint8).reshape(-1, width), head


@given(blocks())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_block_insert_matches_inserting_rows_one_at_a_time(case):
    # the head goes in first, so the block meets a non-empty basis too
    rows, head = case
    block_basis, row_basis = Gf256Basis(), Gf256Basis()
    for row in rows[:head]:
        block_basis.insert(row)
        row_basis.insert(row)
    mask = block_basis.insert(rows[head:])
    expected = sum(row_basis.insert(row) << t for t, row in enumerate(rows[head:]))
    assert mask == expected
    assert block_basis.rank == row_basis.rank == elimination_rank(rows)


def test_insert_rejects_a_vector_of_another_width():
    basis = Gf256Basis()
    basis.insert(np.array([1, 2, 3], dtype=np.uint8))
    with pytest.raises(ValueError, match="width 3") as err:
        basis.insert(np.array([1, 2, 3, 4], dtype=np.uint8))
    assert "\n" not in str(err.value) and basis.rank == 1


def test_insert_rejects_a_block_of_another_width():
    basis = Gf256Basis()
    basis.insert(np.eye(3, dtype=np.uint8)[:2])
    with pytest.raises(ValueError, match="width 3") as err:
        basis.insert(np.ones((2, 4), dtype=np.uint8))
    assert "\n" not in str(err.value) and basis.rank == 2


def test_insert_rejects_more_than_two_dimensions():
    fresh, used = Gf256Basis(), Gf256Basis()
    used.insert(np.array([0, 1, 1], dtype=np.uint8))
    for basis in (fresh, used):
        with pytest.raises(ValueError, match="width") as err:
            basis.insert(np.ones((2, 2, 3), dtype=np.uint8))
        assert "\n" not in str(err.value)
    assert (fresh.rank, used.rank) == (0, 1)


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


def test_mat_mul_matches_scalar_products():
    rng = np.random.default_rng(31)
    for r, n, c in [(1, 1, 1), (5, 7, 3), (64, 200, 9), (0, 4, 3), (3, 0, 5), (4, 6, 0)]:
        matrix = rng.integers(0, 256, (r, 2 * n), dtype=np.uint8)
        picked = np.sort(rng.choice(2 * n, n, replace=False))
        # contiguous, a transposed view, and a column fancy-index (the
        # layouts the rlnc payload check passes)
        for layout in (matrix[:, :n].copy(), np.ascontiguousarray(matrix[:, :n].T).T,
                       matrix[:, picked]):
            other = rng.integers(0, 256, (n, c), dtype=np.uint8)
            for right in (other, np.ascontiguousarray(other.T).T):
                expected = [[0] * c for _ in range(r)]
                for i, row in enumerate(layout.tolist()):
                    for j, a in enumerate(row):
                        for col, b in enumerate(right[j].tolist()):
                            expected[i][col] ^= int(MUL_TABLE[a, b])
                got = mat_mul(layout, right)
                assert got.dtype == np.uint8 and got.shape == (r, c)
                assert got.tolist() == expected


def test_basis_one_wide_and_all_zero_inserts():
    basis = Gf256Basis()
    assert not basis.insert(np.zeros(1, dtype=np.uint8))
    assert basis.rank == 0
    assert basis.insert(np.array([37], dtype=np.uint8))
    assert basis.rank == 1 and basis._rows[0].tolist() == [1]
    assert not basis.insert(np.array([200], dtype=np.uint8))
    assert not basis.insert(np.zeros(1, dtype=np.uint8))
    wide = Gf256Basis()
    assert not wide.insert(np.zeros(6, dtype=np.uint8))
    assert wide.insert(np.array([0, 0, 5, 0, 9, 0], dtype=np.uint8))
    assert not wide.insert(np.zeros(6, dtype=np.uint8))
    assert wide.rank == 1
    assert wide._rows[0].tolist() == [0, 0, 1, 0, int(MUL_TABLE[9, INV_TABLE[5]]), 0]


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
