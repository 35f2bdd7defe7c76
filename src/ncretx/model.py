"""Core data model: the transmission matrix and coded packets.

A transmission matrix records, for M receivers and a batch of N packets,
which original transmissions were lost (cell value 1) and which were
received (cell value 0).  Receivers are indexed 1..M and packets 1..N
throughout the public API, matching the usual c_1..c_N / R_1..R_M naming.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RECEIVED = 0
LOST = 1


class IntegrityError(RuntimeError):
    """A run violated a structural guarantee (e.g. a packet was never recovered)."""


@dataclass(frozen=True)
class CodedPacket:
    """One transmission: the XOR of a set of original packets.

    A single-element constituent set denotes an uncoded (re)transmission.
    ``slot`` is the 1-based index of the time slot the packet went out in.
    ``original`` marks a packet's first transmission over the lossy channel;
    every other transmission is a lossless repair.
    """

    constituents: frozenset[int]
    slot: int
    original: bool = False

    def __post_init__(self) -> None:
        if not self.constituents:
            raise ValueError("coded packet needs at least one constituent")

    @property
    def is_uncoded(self) -> bool:
        return len(self.constituents) == 1

    def __str__(self) -> str:
        return "^".join(f"c{k}" for k in sorted(self.constituents))


@dataclass
class TransmissionMatrix:
    """M x N grid of loss outcomes.

    ``cells[i-1, k-1]`` is 1 if receiver i lost packet k's original
    transmission and has not recovered it yet, else 0.  Utilities are always
    recomputed from the grid; there are no cached counters to go stale.
    """

    cells: np.ndarray

    def __post_init__(self) -> None:
        self.cells = np.asarray(self.cells, dtype=np.uint8)
        if self.cells.ndim != 2:
            raise ValueError("cells must be a 2-d array")
        m, n = self.cells.shape
        if m < 2:
            raise ValueError(f"need at least 2 receivers, got {m}")
        if n < 1:
            raise ValueError(f"need at least 1 packet, got {n}")
        if not np.all((self.cells == LOST) | (self.cells == RECEIVED)):
            raise ValueError("cells must contain only 0 (received) or 1 (lost)")

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
        """Flip cell (i, k) to received.  Idempotent."""
        self.cells[self._row(i), self._col(k)] = RECEIVED

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
