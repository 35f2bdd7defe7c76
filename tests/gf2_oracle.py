"""GF(2) reference oracle: coded-packet constituent sets as bitmask vectors.

Independent of the package's XOR decoder, so tests can check that peeling
never recovers more than Gaussian elimination over GF(2) could.
"""


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
