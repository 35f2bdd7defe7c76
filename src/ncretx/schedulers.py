"""Retransmission schedulers for single-hop multicast over a lossy batch.

Five algorithms share one contract: take a sampled loss realization and
produce the complete transmission schedule (originals plus repairs) along
with each receiver's decoding state, ending with every packet recovered
everywhere.

  arq           one uncoded multicast retransmission per lost packet
  greedy        XOR sets grown in arrival order under the strict rule that
                every receiver must be able to decode immediately
  sort-utility  the same greedy growth, but seeded in descending order of
                packet utility (receivers still missing the packet)
  rlnc          random linear combinations over GF(2^8) until every
                receiver holds a full-rank system
  benefit       utility-driven coding that deliberately relaxes the strict
                rule: a coded packet may leave some receivers waiting, as
                long as enough receivers benefit now or later

Repairs are lossless (channel contract), so only the N originals consult
the sampled matrix.  Identical inputs always produce identical schedules.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import ReceiverState
from .gf import Gf256Basis
from .model import RECEIVED, CodedPacket, IntegrityError, TransmissionMatrix

SCHEDULER_NAMES = ("arq", "greedy", "sort-utility", "benefit", "rlnc")


@dataclass
class Schedule:
    """All transmissions of a run: the N originals and the repairs."""

    transmissions: list[CodedPacket]

    @property
    def retransmission_count(self) -> int:
        return sum(not packet.original for packet in self.transmissions)


@dataclass
class RunResult:
    algorithm: str
    schedule: Schedule
    receivers: list[ReceiverState]
    original_slot: np.ndarray   # the slot each packet's original went out in
    losses: np.ndarray          # the loss cells the run started from
    coefficients: list[np.ndarray] | None = None  # rlnc coding vectors, one per repair
    audit: list["BenefitAudit"] | None = None     # benefit gate log, one per repair

    @property
    def max_receiver_losses(self) -> int:
        return int(self.losses.sum(axis=1).max())


# ---------------------------------------------------------------- run record


def _init_states(states: list[ReceiverState], losses: np.ndarray) -> None:
    """Hand each receiver the originals it did not lose, packet k in slot k."""
    for state, row in zip(states, losses):
        for k0 in np.flatnonzero(row == RECEIVED).tolist():
            state.receive_original(k0 + 1, k0 + 1)


class _Run:
    """The record of one run: what was sent, when, and who recovered what.

    ``losses`` is a read-only copy of the sampled matrix's cells.  ``cells``
    starts as another copy and has each receiver's recoveries cleared as
    they happen, so it always shows what is still missing.  A
    transmission's slot is its position in ``tx``.
    """

    def __init__(self, matrix: TransmissionMatrix):
        self.losses = matrix.cells.copy()
        self.losses.flags.writeable = False
        self.cells = matrix.cells.copy()
        self.states = [ReceiverState() for _ in range(matrix.receivers)]
        self.tx: list[CodedPacket] = []
        self.original_slot = np.zeros(matrix.batch, dtype=np.int64)

    def send_batch(self) -> None:
        """Send the originals of packets 1..N in slots 1..N."""
        n = self.losses.shape[1]
        self.tx.extend(CodedPacket(frozenset((k,)), k, original=True)
                       for k in range(1, n + 1))
        self.original_slot[:] = np.arange(1, n + 1)
        _init_states(self.states, self.losses)

    def send_original(self, k: int) -> None:
        """Send packet k's original in the next slot to every receiver that
        did not lose it.  A fresh original sits in no buffer, so it unlocks
        nothing more."""
        packet = self.append((k,), original=True)
        self.original_slot[k - 1] = packet.slot
        for i0 in np.flatnonzero(self.losses[:, k - 1] == RECEIVED).tolist():
            self.states[i0].receive_original(k, packet.slot)

    def send(self, constituents) -> list[tuple[int, int]]:
        """Send the XOR of ``constituents`` as a repair, which every receiver
        gets; returns the (receiver row, packet) pairs it recovered."""
        packet = self.append(constituents)
        recovered = []
        for i0, state in enumerate(self.states):
            for k in state.receive(packet):
                self.cells[i0, k - 1] = RECEIVED
                recovered.append((i0, k))
        return recovered

    def append(self, constituents, original: bool = False) -> CodedPacket:
        """Record a transmission in the next slot."""
        packet = CodedPacket(frozenset(constituents), len(self.tx) + 1, original)
        self.tx.append(packet)
        return packet

    def result(self, algorithm: str, **extra) -> RunResult:
        if self.cells.any():
            raise IntegrityError(f"{algorithm} finished with unrecovered cells")
        return RunResult(algorithm, Schedule(self.tx), self.states,
                         self.original_slot, self.losses, **extra)


def _grow_coded_set(cells: np.ndarray, ordered: list[int]) -> list[int]:
    """Extend ordered[0] with later packets while every receiver that misses
    any constituent misses at most one (immediate decodability for all).

    Candidates are tried in the given order; once rejected a packet would be
    rejected against any larger set too, so each acceptance only rescans the
    candidates after it.
    """
    chosen = [ordered[0]]
    misses = cells[:, ordered[0] - 1].astype(np.int64)
    rest = np.array([k - 1 for k in ordered[1:]], dtype=np.intp)
    while rest.size:
        fits = (misses[:, None] + cells[:, rest]).max(axis=0) <= 1
        hits = np.flatnonzero(fits)
        if hits.size == 0:
            break
        col = int(rest[hits[0]])
        chosen.append(col + 1)
        misses = misses + cells[:, col]
        rest = rest[hits[0] + 1:]
    return chosen


# ---------------------------------------------------------------- schedulers


def baseline_arq(matrix: TransmissionMatrix) -> RunResult:
    """Plain ARQ reference: each packet lost anywhere is multicast once more."""
    run = _Run(matrix)
    run.send_batch()
    for k0 in np.flatnonzero(run.losses.any(axis=0)).tolist():
        run.send((k0 + 1,))
    return run.result("arq")


def greedy_nc(matrix: TransmissionMatrix) -> RunResult:
    """Grow XOR sets over lost packets in arrival order, strict rule enforced."""
    run = _Run(matrix)
    run.send_batch()
    while True:
        lost = (np.flatnonzero(run.cells.any(axis=0)) + 1).tolist()
        if not lost:
            break
        run.send(_grow_coded_set(run.cells, lost))
    return run.result("greedy")


def sort_by_utility(matrix: TransmissionMatrix) -> RunResult:
    """Greedy coding seeded by descending packet utility (ties: lower id first).

    The order is fixed once, from post-original utilities; packets whose
    utility hits zero through earlier coded repairs are skipped when their
    turn comes.
    """
    run = _Run(matrix)
    run.send_batch()
    cu = run.cells.sum(axis=0, dtype=np.int64)
    # 0-based columns by descending utility, ties lower id first
    order = np.argsort(-cu, kind="stable")[:np.count_nonzero(cu)]
    for idx, col in enumerate(order):
        missing = run.cells.any(axis=0)
        if not missing[col]:
            continue
        pending = order[idx:]
        run.send(_grow_coded_set(run.cells, (pending[missing[pending]] + 1).tolist()))
    return run.result("sort-utility")


def rlnc(matrix: TransmissionMatrix, seed: int = 0) -> RunResult:
    """Random linear coding: repair with uniform GF(2^8) combinations of the
    whole batch until every receiver has N innovative packets.

    Packets received as originals are known at their own slot; everything
    else becomes known in the slot where the receiver's coefficient matrix
    first reaches full rank and inversion is possible.  A received original
    is a unit vector, so a repair is innovative to a receiver iff its
    coefficients on that receiver's lost columns are, and each receiver's
    basis spans only those columns.
    """
    run = _Run(matrix)
    run.send_batch()
    n = matrix.batch
    lost = [np.flatnonzero(row) for row in run.losses]
    bases = [Gf256Basis() for _ in run.states]
    rng = np.random.default_rng(seed)
    coefficients: list[np.ndarray] = []
    while any(b.rank < cols.size for b, cols in zip(bases, lost)):
        vec = rng.integers(0, 256, size=n, dtype=np.uint8)
        while not vec.any():  # an all-zero draw carries nothing; redraw
            vec = rng.integers(0, 256, size=n, dtype=np.uint8)
        coefficients.append(vec)
        slot = run.append((np.flatnonzero(vec) + 1).tolist()).slot
        for i0, (state, basis, cols) in enumerate(zip(run.states, bases, lost)):
            if (basis.rank < cols.size and basis.insert(vec[cols])
                    and basis.rank == cols.size):
                for k0 in cols.tolist():
                    state.have.add(k0 + 1)
                    state.recovery_slot[k0 + 1] = slot
                run.cells[i0, cols] = RECEIVED
    return run.result("rlnc", coefficients=coefficients)


# ---------------------------------------------------------------- benefit


@dataclass(frozen=True)
class BenefitAudit:
    """Gate values recorded at the moment a repair was sent."""

    slot: int
    constituents: tuple[int, ...]
    cycle: int
    desired_benefit: int
    decode_benefit: int
    minimum_benefit: int
    combination_benefit: int
    forced: bool = False  # always False; kept because perfbench reads it


def benefit(matrix: TransmissionMatrix,
            initial_desired_benefit: int | None = None) -> RunResult:
    """Utility-driven scheduler that may send repairs not everyone can decode yet.

    The sender keeps an ordered list of prospective coding packets (its head
    is the anchor) and repeatedly either scans an outstanding packet or, in
    the first cycle, transmits the next original.  The scanned/new packet
    joins the prospectives as a coding candidate, which must clear three
    gates before the XOR of the set is sent:

      * every candidate constituent must be decodable by at least one
        receiver from this very transmission (otherwise the newcomer is
        rejected and waits for a different constellation);
      * at least as many receivers must decode something immediately as the
        smallest utility among the constituents (otherwise retransmitting
        that weakest packet uncoded would have been just as good);
      * the number of receivers helped now or later must reach the current
        desired benefit.

    Only the last gate failing stores the candidate as the new prospective
    list.  Each scan cycle after the batch relaxes the desired benefit by
    one, down to 1; a cycle at 1 leaves nothing missing.
    Lowering the initial desired benefit trades bandwidth for latency.
    """
    return _BenefitRun(matrix, initial_desired_benefit).execute()


# Why a packet is not scanned right now.  Each reason lasts until its own
# event; a packet holds at most one, since only free packets are considered.
_FREE = 0
_SOFT = 1         # lost the decode-benefit gate: until the prospective set changes
_HARD = 2         # a constituent would reach no receiver: until a set is sent
_PROSPECTIVE = 3  # in the prospective set: until the set is sent or dropped
_ANCHOR = 4       # anchored a prospective set: until the next scan cycle


class _BenefitRun(_Run):
    """Sender-side state of one benefit run.

    ``prospective`` is the ordered list of packets waiting to be coded
    together (its head is the anchor), ``desired_benefit`` the current
    requirement on how many receivers a coded repair must help now or
    later, relaxed by one per scan cycle.  Cycle 1 interleaves originals
    with repairs; cycles 2..M only rescan outstanding packets.  Gates only
    ever look at the ``cells`` of packets already sent.
    """

    def __init__(self, matrix: TransmissionMatrix,
                 initial_desired_benefit: int | None):
        self.m = matrix.receivers
        self.n = matrix.batch
        start = self.m if initial_desired_benefit is None else initial_desired_benefit
        if not 1 <= start <= self.m:
            raise ValueError(f"initial desired benefit {start} outside 1..{self.m}")
        super().__init__(matrix)
        self.cu = self.cells.sum(axis=0).astype(np.int64)  # kept in step with cells
        self.audit: list[BenefitAudit] = []
        self.sent = 0
        self.cycle = 1
        self.desired_benefit = start
        self.prospective: list[int] = []
        self._wait = np.full(self.n, _FREE, dtype=np.int8)
        # per-receiver missing-packet bitmasks (bit k-1 = packet k missing)
        self._row_miss = [
            int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little")
            for row in self.cells
        ]
        # prospective-set summary, maintained incrementally
        self._pros_mask = 0
        self._pros_min_cu = 0

    def execute(self) -> RunResult:
        self._scan()
        # every original is out now, so cu counts all outstanding cells
        while self.cu.any() and self.desired_benefit > 1:
            self.cycle += 1
            self.desired_benefit -= 1
            self._clear_prospective()
            self._wait[:] = _FREE
            self._scan()
        # No straggler sweep: a cycle at desired benefit 1 drains every
        # outstanding packet.  A lone free packet passes all three gates and a
        # prospective set always flushes, so the cycle leaves every non-anchor
        # at cu == 0; each anchor's set went out before any later anchor's, so
        # backwards through the anchors every buffered XOR peels to its anchor.
        # Started at 1, cycle 1 repairs each lost original uncoded at once.
        # result() raises IntegrityError should a cell still be lost.
        return self.result("benefit", audit=self.audit)

    def _scan(self) -> None:
        """One scan cycle: consider outstanding packets, flush passing sets
        and, while the batch lasts, send the next original."""
        while True:
            k = self._next_scan_target()
            if k is not None:
                self._consider(k)
            elif self._flush_passing():
                continue
            elif self.sent < self.n:
                self.sent += 1
                k = self.sent
                self.send_original(k)
                cu = int(self.cu[k - 1])
                if cu >= self.desired_benefit:
                    # missed by enough receivers on its own: repair it uncoded
                    # right away, no coding partner search.  A fresh original
                    # sits in no buffer and no prospective set, so this leaves
                    # the coding state untouched.
                    self._transmit_repair([k], self._read_gates(1 << (k - 1)), cu)
                else:
                    self._consider(k)
            else:
                return

    # -- scan order --

    def _next_scan_target(self) -> int | None:
        """Outstanding packet to consider next: highest utility, lowest id.

        Cycle 1 scans only packets that are partially missing (1 <= cu < M);
        later cycles scan anything still missing.  Either way the packet
        must have no reason to wait (``_wait``).
        """
        cu = self.cu[:self.sent]
        mask = (cu >= 1) & (self._wait[:self.sent] == _FREE)
        if self.cycle == 1:
            mask &= cu < self.m
        idx = np.flatnonzero(mask)
        if idx.size == 0:
            return None
        return int(idx[np.argmax(cu[idx])]) + 1  # argmax ties break low-id

    # -- transmission plumbing --

    def _transmit_repair(self, ids: list[int], gates: tuple[int, int],
                         min_cu: int) -> None:
        for i0, k in self.send(ids):
            self.cu[k - 1] -= 1
            self._row_miss[i0] &= ~(1 << (k - 1))
        decode_benefit, combination_benefit = gates
        self.audit.append(BenefitAudit(
            len(self.tx), tuple(ids), self.cycle, self.desired_benefit,
            decode_benefit, min_cu, combination_benefit))

    # -- gate machinery --

    def _consider(self, newcomer: int) -> None:
        # bitmask bookkeeping makes each consideration a handful of popcounts
        cand_mask = self._pros_mask | (1 << (newcomer - 1))
        min_cu = int(self.cu[newcomer - 1])
        if self.prospective:
            min_cu = min(min_cu, self._pros_min_cu)
        gates = self._read_gates(cand_mask)
        if gates is None:
            # some constituent would reach no receiver immediately; growing
            # the set only loses decoders, so wait until a set is sent
            self._wait[newcomer - 1] = _HARD
            return
        if gates[0] < min_cu:
            # coding would not beat retransmitting the weakest constituent
            # uncoded; the newcomer waits for a different constellation
            self._wait[newcomer - 1] = _SOFT
            return
        # keep the candidate either way: a set short of the desired benefit
        # waits for reinforcements, a passing one is still grown until no
        # further packet fits and is then flushed
        self._wait[self._wait == _SOFT] = _FREE
        self._wait[newcomer - 1] = _PROSPECTIVE if self.prospective else _ANCHOR
        self.prospective.append(newcomer)
        self._pros_mask = cand_mask
        self._pros_min_cu = min_cu

    def _flush_passing(self) -> bool:
        """Transmit the prospective set if it clears all gates; True if sent."""
        if not self.prospective:
            return False
        gates = self._read_gates(self._pros_mask)
        if gates is None or gates[0] < self._pros_min_cu \
                or gates[1] < self.desired_benefit:
            return False
        self._transmit_repair(self.prospective, gates, self._pros_min_cu)
        self._clear_prospective()
        return True

    def _read_gates(self, cand_mask: int) -> tuple[int, int] | None:
        """(decode benefit, combination benefit) of a candidate set, or None
        if some constituent is not immediately decodable by any receiver."""
        dec = 0
        comb = 0
        gain_union = 0
        for row in self._row_miss:
            overlap = row & cand_mask
            if overlap:
                comb += 1
                if not overlap & (overlap - 1):  # single bit: decodes now
                    dec += 1
                    gain_union |= overlap
        if gain_union != cand_mask:
            return None
        return dec, comb

    def _clear_prospective(self) -> None:
        self.prospective = []
        self._pros_mask = 0
        self._pros_min_cu = 0
        self._wait[self._wait != _ANCHOR] = _FREE


# ---------------------------------------------------------------- dispatch


def run_scheduler(name: str, matrix: TransmissionMatrix, seed: int = 0,
                  initial_desired_benefit: int | None = None) -> RunResult:
    """Run one scheduler by its public name on (a copy of) the given matrix."""
    if name == "arq":
        return baseline_arq(matrix)
    if name == "greedy":
        return greedy_nc(matrix)
    if name == "sort-utility":
        return sort_by_utility(matrix)
    if name == "benefit":
        return benefit(matrix, initial_desired_benefit)
    if name == "rlnc":
        return rlnc(matrix, seed=seed)
    raise ValueError(f"unknown scheduler {name!r}; choose from {', '.join(SCHEDULER_NAMES)}")
