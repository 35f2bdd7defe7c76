"""Core data model: the transmission matrix and coded packets.

A transmission matrix records, for M receivers and a batch of N packets,
which original transmissions were lost (cell value 1) and which were
received (cell value 0).  Receivers are indexed 1..M and packets 1..N
throughout the public API, matching the usual c_1..c_N / R_1..R_M naming.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

RECEIVED = 0
LOST = 1
# The most loss cells (M x N) a matrix file or one replication may hold;
# fig2's largest is 6,000.
MAX_CELLS = 1_000_000


class IntegrityError(RuntimeError):
    """A run violated a structural guarantee (e.g. a packet was never recovered)."""


@dataclass(frozen=True)
class CodedPacket:
    """One repair, sent losslessly in the 1-based time slot ``slot``: the XOR
    of the original packets in ``constituents``, uncoded if there is one."""

    constituents: frozenset[int]
    slot: int

    def __post_init__(self) -> None:
        if not self.constituents:
            raise ValueError("coded packet needs at least one constituent")

    def __str__(self) -> str:
        return "^".join(f"c{k}" for k in sorted(self.constituents))


def _row_ints(bits: np.ndarray) -> tuple[int, ...]:
    """Each row of a 0/1 array as an int, column j in bit j."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    width, raw, from_bytes = packed.shape[1], packed.tobytes(), int.from_bytes
    return tuple([from_bytes(raw[at:at + width], "little") for at in range(0, len(raw), width)])


@dataclass(eq=False)  # compared by identity: a generated __eq__ compares arrays
class TransmissionMatrix:
    """M x N grid of loss outcomes, read-only.

    ``cells[i-1, k-1]`` is 1 if receiver i lost packet k's original
    transmission, else 0.  What runs start from and are checked against is
    built once, on first use: ``loss_masks``, ``loss_rows``,
    ``received_slots`` and ``max_receiver_losses``.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        cells = np.array(self.cells, dtype=np.uint8)  # a copy: never the caller's array
        if cells.ndim != 2:
            raise ValueError("cells must be a 2-d array")
        m, n = cells.shape
        if m < 2:
            raise ValueError(f"need at least 2 receivers, got {m}")
        if n < 1:
            raise ValueError(f"need at least 1 packet, got {n}")
        if cells.max() > LOST:  # uint8: nothing below RECEIVED
            raise ValueError("cells must contain only 0 (received) or 1 (lost)")
        cells.flags.writeable = False
        self.cells = cells

    @cached_property
    def loss_masks(self) -> tuple[int, ...]:
        """Packet k's loss column as an int: bit i-1 is set if receiver i
        lost it."""
        return _row_ints(self.cells.T)

    @cached_property
    def loss_rows(self) -> tuple[int, ...]:
        """Receiver i's loss row as an int: bit k-1 is set if it lost packet
        k.  The bit transpose of ``loss_masks``."""
        return _row_ints(self.cells)

    @cached_property
    def received_slots(self) -> tuple[MappingProxyType[int, int], ...]:
        """Per receiver, a read-only view of the ``recovery_slot`` the batch
        leaves it: packet k in slot k for each k it did not lose.  A run
        starts from a ``copy()``, which is a dict."""
        return tuple(MappingProxyType({k: k for k, lost in enumerate(row, 1) if not lost})
                     for row in self.cells.tolist())

    @cached_property
    def max_receiver_losses(self) -> int:
        """max_i L_i, the repair floor: the most originals one receiver lost."""
        return int(self.cells.sum(axis=1).max())

    @property
    def receivers(self) -> int:
        return self.cells.shape[0]

    @property
    def batch(self) -> int:
        return self.cells.shape[1]

    def _col(self, k: int) -> int:
        if not 1 <= k <= self.batch:
            raise IndexError(f"packet id {k} out of range 1..{self.batch}")
        return k - 1

    def _row(self, i: int) -> int:
        if not 1 <= i <= self.receivers:
            raise IndexError(f"receiver index {i} out of range 1..{self.receivers}")
        return i - 1

    def is_lost(self, i: int, k: int) -> bool:
        return self.cells[self._row(i), self._col(k)] == LOST

    def column_utility(self, k: int) -> int:
        """Number of receivers still missing packet k (cu_k)."""
        return int(self.cells[:, self._col(k)].sum())

    def mark_received(self, i: int, k: int) -> None:
        """Flip cell (i, k) to received.  Idempotent.  The grid stays
        read-only: an edited copy replaces it, and what was computed from
        the old one is dropped."""
        cells = self.cells.copy()
        cells[self._row(i), self._col(k)] = RECEIVED
        cells.flags.writeable = False
        self.cells = cells
        for name in ("loss_masks", "loss_rows", "received_slots", "max_receiver_losses"):
            vars(self).pop(name, None)

    # -- text format: first line "M N", then M rows of N space-separated 0/1 --

    @classmethod
    def from_rows(cls, rows) -> "TransmissionMatrix":
        return cls(np.array(rows, dtype=np.uint8))

    @classmethod
    def parse(cls, text: str) -> "TransmissionMatrix":
        stripped = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), start=1)
                    if ln.strip()]
        if not stripped:
            raise ValueError("line 1: empty matrix file")
        no, header = stripped[0]
        try:
            m, n = map(int, header.split())  # also a ValueError on other than two fields
        except ValueError:
            raise ValueError(f"line {no}: expected header 'M N', got {header!r}") from None
        # checked before any row is read: a run's memory grows with M x N
        if m < 2 or n < 1:
            raise ValueError(f"line {no}: need at least 2 receivers and 1 packet, got {m} x {n}")
        if m * n > MAX_CELLS:
            raise ValueError(f"line {no}: {m} x {n} is {m * n} loss cells; at most {MAX_CELLS}")
        body = stripped[1:]
        if len(body) != m:
            raise ValueError(f"expected {m} matrix rows, found {len(body)}")
        rows = []
        for no, ln in body:
            digits = ln.split()
            if len(digits) != n or any(d not in ("0", "1") for d in digits):
                raise ValueError(f"line {no}: expected {n} space-separated 0/1 digits")
            rows.append([int(d) for d in digits])
        return cls.from_rows(rows)

    def format(self) -> str:
        out = [f"{self.receivers} {self.batch}"]
        for row in self.cells:
            out.append(" ".join(str(int(v)) for v in row))
        return "\n".join(out) + "\n"
