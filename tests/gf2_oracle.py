"""Reference decoders, independent of the package's XOR decoder.

The GF(2) oracle treats coded-packet constituent sets as bitmask vectors,
so tests can check that peeling never recovers more than Gaussian
elimination over GF(2) could.  ``ListScanReceiver`` is the peeling decoder
that rescans one list of buffered repairs after every recovery, so tests
can check that the package's indexed peeling recovers the same packets, in
the same order, from the same repairs; ``buffer`` reads the same list off the
package's decoder.
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


def buffer(state) -> list:
    """The repairs a ``ReceiverState`` heard but could not decode yet, from
    its ``waiting`` index and ``recovery_slot``: each waiting repair still
    lacking at least two constituents, once, in slot order."""
    pending = {packet.slot: packet for packets in state.waiting.values()
               for packet in packets
               if len(packet.constituents.difference(state.recovery_slot)) >= 2}
    return [pending[slot] for slot in sorted(pending)]


class ListScanReceiver:
    """Peeling by rescanning: ``buffer`` lists the undecoded repairs in
    arrival order, and each recovery walks it whole, rebuilding it without
    the repairs reduced to at most one unknown."""

    def __init__(self) -> None:
        self.recovery_slot: dict[int, int] = {}
        self.source = {}
        self.buffer = []

    def receive_original(self, k: int, slot: int) -> None:
        self.recovery_slot[k] = slot

    def receive(self, packet) -> list[int]:
        unknowns = packet.constituents.difference(self.recovery_slot)
        if not unknowns:
            return []
        if len(unknowns) == 1:
            (k,) = unknowns
            self.recovery_slot[k] = packet.slot
            self.source[k] = packet
            return [k] + self.decode_search(k, packet.slot)
        self.buffer.append(packet)
        return []

    def decode_search(self, newly: int, slot: int) -> list[int]:
        recovered: list[int] = []
        frontier = [newly]
        while frontier:
            known = frontier.pop()
            remaining = []
            for packet in self.buffer:
                if known in packet.constituents:
                    unknowns = packet.constituents.difference(self.recovery_slot)
                    if len(unknowns) == 1:
                        (k,) = unknowns
                        self.recovery_slot[k] = slot
                        self.source[k] = packet
                        recovered.append(k)
                        frontier.append(k)
                    if len(unknowns) <= 1:
                        continue
                remaining.append(packet)
            self.buffer = remaining
        return recovered
