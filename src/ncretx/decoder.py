"""Per-receiver XOR decoding: immediate decode, buffering and peeling search.

A receiver reduces every arriving repair by the packets it already holds.
One remaining unknown means immediate recovery; two or more means the
repair itself waits in a buffer.  Each recovery from a repair triggers a
search over the buffered repairs that hold it, peeling recursively until
nothing changes; an original, sent before every repair that holds it,
unlocks nothing.  Decoding is symbolic (sets of packet ids), but each
repaired packet keeps a record of the coded packet it came out of, so the
harness payload check can rebuild the actual bytes along the same path.
"""

from __future__ import annotations

from .model import CodedPacket


class ReceiverState:
    """What one receiver holds: recovered packets plus pending coded packets.

    ``recovery_slot`` maps each recovered packet id to the slot it became
    known in, in recovery order; its keys are the packets the receiver
    holds.  ``source`` maps each packet recovered from a repair to the coded
    packet that yielded it; a packet absent from ``source`` was received as
    an original.  ``buffer`` keeps the repairs that could not be decoded
    yet, each still lacking at least two of its constituents.
    """

    def __init__(self) -> None:
        self.recovery_slot: dict[int, int] = {}
        self.source: dict[int, CodedPacket] = {}
        self.buffer: list[CodedPacket] = []

    @property
    def have(self):
        """The recovered packet ids: a read-only view of ``recovery_slot``."""
        return self.recovery_slot.keys()

    def receive_original(self, k: int, slot: int) -> None:
        """Packet k's original arrived intact.  It is sent once, before every
        repair that holds it, so it is new and unlocks nothing: no search."""
        self.recovery_slot[k] = slot

    def receive(self, packet: CodedPacket) -> list[int]:
        """Process a (losslessly delivered) repair; returns every packet id
        newly recovered, including any the peeling search unlocks."""
        unknowns = packet.constituents.difference(self.recovery_slot)
        if not unknowns:
            return []  # nothing new in it
        if len(unknowns) == 1:
            (k,) = unknowns
            self.recovery_slot[k] = packet.slot
            self.source[k] = packet
            return [k] + self.decode_search(k, packet.slot)
        self.buffer.append(packet)
        return []

    def decode_search(self, newly: int, slot: int) -> list[int]:
        """Peel the buffer after ``newly`` became known; returns further recoveries.

        A repair is reduced by this search's earlier recoveries too, so the
        search order may pick its ``source``, but never a packet's slot."""
        if newly not in self.recovery_slot:
            raise ValueError(f"packet {newly} has not been recovered")
        recovered: list[int] = []
        frontier = [newly]
        while frontier:
            known = frontier.pop()
            remaining: list[CodedPacket] = []
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
                        continue  # decoded, or reduced to nothing new
                remaining.append(packet)
            self.buffer = remaining
        return recovered
