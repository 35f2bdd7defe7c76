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


@dataclass
class TransmissionMatrix:
    """M x N grid of loss outcomes, read-only.

    ``cells[i-1, k-1]`` is 1 if receiver i lost packet k's original
    transmission, else 0.  What every run starts from is computed from the
    grid once, on first use: ``loss_masks`` and ``received_slots``.
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
        packed = np.packbits(self.cells.T, axis=1, bitorder="little")
        width, raw = packed.shape[1], packed.tobytes()
        return tuple(int.from_bytes(raw[at:at + width], "little")
                     for at in range(0, len(raw), width))

    @cached_property
    def received_slots(self) -> tuple[MappingProxyType[int, int], ...]:
        """Per receiver, a read-only view of the ``recovery_slot`` the batch
        leaves it: packet k in slot k for each k it did not lose.  A run
        starts from a ``copy()``, which is a dict."""
        return tuple(MappingProxyType({k: k for k, lost in enumerate(row, 1) if not lost})
                     for row in self.cells.tolist())

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
        for name in ("loss_masks", "received_slots"):
            vars(self).pop(name, None)

    # -- text format: first line "M N", then M rows of N space-separated 0/1 --

    @classmethod
    def from_rows(cls, rows) -> "TransmissionMatrix":
        return cls(np.array(rows, dtype=np.uint8))

    @classmethod
    def parse(cls, text: str) -> "TransmissionMatrix":
        lines = [ln for ln in text.splitlines()]
        stripped = [(no, ln.strip()) for no, ln in enumerate(lines, start=1) if ln.strip()]
        if not stripped:
            raise ValueError("line 1: empty matrix file")
        no, header = stripped[0]
        parts = header.split()
        if len(parts) != 2:
            raise ValueError(f"line {no}: expected header 'M N', got {header!r}")
        try:
            m, n = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {no}: expected header 'M N', got {header!r}") from None
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
