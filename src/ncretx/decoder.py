"""Per-receiver XOR decoding: immediate decode, buffering and peeling search.

A receiver reduces every arriving coded packet by the packets it already
holds.  One remaining unknown means immediate recovery; two or more means
the packet waits in a buffer.  Each recovery triggers a search over the
buffer for packets that the new knowledge unlocks, peeling recursively
until nothing changes.  Decoding is symbolic (sets of packet ids), but each
repaired packet keeps a record of the coded packet it came out of, so the
harness payload check can rebuild the actual bytes along the same path.
"""

from __future__ import annotations

from .model import CodedPacket


class ReceiverState:
    """What one receiver holds: recovered packets plus pending coded packets.

    ``have`` is the set of recovered packet ids and ``recovery_slot`` maps
    each to the slot it became known in, in recovery order.  ``source`` maps
    each packet recovered from a repair to the coded packet that yielded it;
    a packet absent from ``source`` was received as an original.  ``buffer``
    keeps ``(unknowns, packet)`` for coded packets that could not be decoded
    yet, ``unknowns`` being the constituents still missing (always at least
    two).
    """

    def __init__(self) -> None:
        self.have: set[int] = set()
        self.buffer: list[tuple[set[int], CodedPacket]] = []
        self.recovery_slot: dict[int, int] = {}
        self.source: dict[int, CodedPacket] = {}

    def receive_original(self, k: int, slot: int) -> list[int]:
        """An original transmission arrived intact."""
        if k in self.have:
            return []
        return self._learn(k, slot, None)

    def receive(self, packet: CodedPacket) -> list[int]:
        """Process a (losslessly delivered) coded packet.

        Returns every packet id newly recovered, including any unlocked from
        the buffer by the peeling search.
        """
        unknowns = set(packet.constituents) - self.have
        if not unknowns:
            return []  # nothing new in it
        if len(unknowns) == 1:
            return self._learn(unknowns.pop(), packet.slot, packet)
        self.buffer.append((unknowns, packet))
        return []

    def decode_search(self, newly: int, slot: int) -> list[int]:
        """Peel the buffer after ``newly`` became known; returns further recoveries."""
        if newly not in self.have:
            raise ValueError(f"packet {newly} has not been recovered")
        recovered: list[int] = []
        frontier = [newly]
        while frontier:
            known = frontier.pop()
            remaining: list[tuple[set[int], CodedPacket]] = []
            for entry in self.buffer:
                unknowns, packet = entry
                unknowns.discard(known)
                if len(unknowns) == 1:
                    k = unknowns.pop()
                    if k not in self.have:
                        self.have.add(k)
                        self.recovery_slot[k] = slot
                        self.source[k] = packet
                        recovered.append(k)
                        frontier.append(k)
                elif len(unknowns) >= 2:
                    remaining.append(entry)
                # sets reduced to zero unknowns carried no new information
            self.buffer = remaining
        return recovered

    def _learn(self, k: int, slot: int, packet: CodedPacket | None) -> list[int]:
        self.have.add(k)
        self.recovery_slot[k] = slot
        if packet is not None:
            self.source[k] = packet
        return [k] + self.decode_search(k, slot)
