"""Per-receiver XOR decoding: immediate decode, buffering and peeling search.

A receiver decodes a repair at once when it leaves one unknown; with two
or more the repair waits, filed under each of them.  There is one decode
path.  The sender's ``_Run.send`` reads from its loss masks how many
constituents each receiver misses.  For a receiver missing exactly one it
records the packet's slot and source in the receiver's ``ReceiverState``
and, only when a repair waits on that id, runs ``decode_search``: it
peels the repairs filed under the id recursively until nothing changes.
A receiver missing two or more files the repair through ``receive``.  An
original, sent before every repair that holds it, unlocks nothing.
Decoding is symbolic (sets of packet ids), but each repaired packet keeps a
record of the coded packet it came out of, so the harness payload check can
rebuild the actual bytes along the same path.
"""

from __future__ import annotations

from .model import CodedPacket


class ReceiverState:
    """What one receiver holds: recovered packets plus pending coded packets.

    ``recovery_slot`` maps each recovered packet id to the slot it became
    known in, in recovery order; its keys are the packets the receiver
    holds.  ``source`` maps each packet recovered from a repair to the coded
    packet that yielded it; a packet absent from ``source`` was received as
    an original.  ``waiting`` maps each packet id the receiver lacks to the
    repairs that held it and at least one other unknown on arrival, in
    arrival order; an entry goes once its id has been searched.
    """

    def __init__(self) -> None:
        self.recovery_slot: dict[int, int] = {}
        self.source: dict[int, CodedPacket] = {}
        self.waiting: dict[int, list[CodedPacket]] = {}

    @property
    def have(self):
        """The recovered packet ids: a read-only view of ``recovery_slot``."""
        return self.recovery_slot.keys()

    def receive_original(self, k: int, slot: int) -> None:
        """Packet k's original arrived intact.  It is sent once, before every
        repair that holds it, so it is new and unlocks nothing: no search."""
        self.recovery_slot[k] = slot

    def receive(self, packet: CodedPacket) -> None:
        """File a (losslessly delivered) repair under each of its two or
        more unknowns.  A repair with fewer is decodable now, or tells the
        receiver nothing: that is the caller's to see, so it is an error."""
        unknowns = packet.constituents.difference(self.recovery_slot)
        if len(unknowns) < 2:
            raise ValueError(f"repair {packet} (slot {packet.slot}) leaves {len(unknowns)} "
                             "unknown; receive files only repairs leaving two or more")
        waiting = self.waiting
        for k in unknowns:
            waiting.setdefault(k, []).append(packet)

    def decode_search(self, newly: int, slot: int) -> list[int]:
        """Peel the repairs waiting on ``newly`` after it became known;
        returns further recoveries.

        Each id is recovered once, and every undecoded repair holding it
        was filed under it on arrival, so popping its entry visits those
        repairs in arrival order, as a walk of the whole buffer would; one
        decoded since, through another of its entries, reduces to nothing
        and is skipped.  A repair is reduced by this search's earlier
        recoveries too, so the search order may pick its ``source``, but
        never a packet's slot."""
        if newly not in self.recovery_slot:
            raise ValueError(f"packet {newly} has not been recovered")
        known = self.recovery_slot
        waiting = self.waiting
        recovered: list[int] = []
        frontier = [newly]
        while frontier:
            for packet in waiting.pop(frontier.pop(), ()):
                unknowns = packet.constituents.difference(known)
                if len(unknowns) == 1:
                    (k,) = unknowns
                    known[k] = slot
                    self.source[k] = packet
                    recovered.append(k)
                    frontier.append(k)
                # none left: decoded earlier; two or more: still filed under
                # each of them
        return recovered
