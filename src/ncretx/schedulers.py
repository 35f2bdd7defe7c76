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
    matrix: TransmissionMatrix  # final state: fully received, slots as realized
    losses: np.ndarray          # the loss cells the run started from
    coefficients: list[np.ndarray] | None = None  # rlnc coding vectors, one per repair
    audit: list["BenefitAudit"] | None = None     # benefit gate log, one per repair

    @property
    def max_receiver_losses(self) -> int:
        return int(self.losses.sum(axis=1).max())


# ---------------------------------------------------------------- helpers


def _original_packets(matrix: TransmissionMatrix) -> list[CodedPacket]:
    return [CodedPacket(frozenset((k,)), int(matrix.original_slot[k - 1]), original=True)
            for k in range(1, matrix.batch + 1)]


def _init_states(matrix: TransmissionMatrix) -> list[ReceiverState]:
    states = [ReceiverState() for _ in range(matrix.receivers)]
    slots = matrix.original_slot.tolist()
    for state, row in zip(states, matrix.cells):
        for k0 in np.flatnonzero(row == RECEIVED).tolist():
            state.receive_original(k0 + 1, slots[k0])
    return states


def _deliver(packet: CodedPacket, states: list[ReceiverState],
             matrix: TransmissionMatrix) -> None:
    # repairs reach every receiver; the matrix tracks what each recovery unlocks
    for i, state in enumerate(states, start=1):
        for k in state.receive(packet):
            matrix.mark_received(i, k)


def _check_recovered(matrix: TransmissionMatrix, algorithm: str) -> None:
    if matrix.lost_cell_count():
        raise IntegrityError(f"{algorithm} finished with unrecovered cells")


def _result(algorithm: str, started_from: np.ndarray, tx: list[CodedPacket],
            states: list, work: TransmissionMatrix, **extra) -> RunResult:
    _check_recovered(work, algorithm)
    return RunResult(algorithm, Schedule(tx), states, work, started_from, **extra)


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
    losses = matrix.cells.copy()
    work = matrix.copy()
    states = _init_states(work)
    tx = _original_packets(work)
    slot = work.batch
    for k in work.lost_columns():
        slot += 1
        packet = CodedPacket(frozenset((k,)), slot)
        tx.append(packet)
        _deliver(packet, states, work)
    return _result("arq", losses, tx, states, work)


def greedy_nc(matrix: TransmissionMatrix) -> RunResult:
    """Grow XOR sets over lost packets in arrival order, strict rule enforced."""
    losses = matrix.cells.copy()
    work = matrix.copy()
    states = _init_states(work)
    tx = _original_packets(work)
    slot = work.batch
    while True:
        lost = work.lost_columns()
        if not lost:
            break
        chosen = _grow_coded_set(work.cells, lost)
        slot += 1
        packet = CodedPacket(frozenset(chosen), slot)
        tx.append(packet)
        _deliver(packet, states, work)
    return _result("greedy", losses, tx, states, work)


def sort_by_utility(matrix: TransmissionMatrix) -> RunResult:
    """Greedy coding seeded by descending packet utility (ties: lower id first).

    The order is fixed once, from post-original utilities; packets whose
    utility hits zero through earlier coded repairs are skipped when their
    turn comes.
    """
    losses = matrix.cells.copy()
    work = matrix.copy()
    states = _init_states(work)
    tx = _original_packets(work)
    slot = work.batch
    cu = work.cells.sum(axis=0, dtype=np.int64)
    # 0-based columns by descending utility, ties lower id first
    order = np.argsort(-cu, kind="stable")[:np.count_nonzero(cu)]
    for idx, col in enumerate(order):
        missing = work.cells.any(axis=0)
        if not missing[col]:
            continue
        pending = order[idx:]
        chosen = _grow_coded_set(work.cells, (pending[missing[pending]] + 1).tolist())
        slot += 1
        packet = CodedPacket(frozenset(chosen), slot)
        tx.append(packet)
        _deliver(packet, states, work)
    return _result("sort-utility", losses, tx, states, work)


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
    losses = matrix.cells.copy()
    work = matrix.copy()
    n = work.batch
    states = _init_states(work)
    lost = [np.flatnonzero(row) for row in work.cells]
    bases = [Gf256Basis() for _ in states]

    tx = _original_packets(work)
    rng = np.random.default_rng(seed)
    slot = n
    coefficients: list[np.ndarray] = []
    while any(b.rank < cols.size for b, cols in zip(bases, lost)):
        slot += 1
        vec = rng.integers(0, 256, size=n, dtype=np.uint8)
        while not vec.any():  # an all-zero draw carries nothing; redraw
            vec = rng.integers(0, 256, size=n, dtype=np.uint8)
        coefficients.append(vec)
        tx.append(CodedPacket(frozenset(int(k) + 1 for k in np.flatnonzero(vec)), slot))
        for i, (state, basis, cols) in enumerate(zip(states, bases, lost), start=1):
            if (basis.rank < cols.size and basis.insert(vec[cols])
                    and basis.rank == cols.size):
                for k0 in cols.tolist():
                    state.have.add(k0 + 1)
                    state.recovery_slot[k0 + 1] = slot
                    work.mark_received(i, k0 + 1)
    return _result("rlnc", losses, tx, states, work, coefficients=coefficients)


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
    forced: bool = False


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
    one, down to 1; anything still missing after that goes out uncoded.
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


class _BenefitRun:
    """Sender-side state of one benefit run.

    ``prospective`` is the ordered list of packets waiting to be coded
    together (its head is the anchor), ``desired_benefit`` the current
    requirement on how many receivers a coded repair must help now or
    later, relaxed by one per scan cycle.  Cycle 1 interleaves originals
    with repairs; cycles 2..M only rescan outstanding packets.
    """

    def __init__(self, matrix: TransmissionMatrix,
                 initial_desired_benefit: int | None):
        self.m = matrix.receivers
        self.n = matrix.batch
        start = self.m if initial_desired_benefit is None else initial_desired_benefit
        if not 1 <= start <= self.m:
            raise ValueError(f"initial desired benefit {start} outside 1..{self.m}")
        self.losses = matrix.cells.copy()
        # loss outcomes are consumed column by column as originals go out;
        # gates only ever look at already-transmitted packets
        self.work = TransmissionMatrix(matrix.cells.copy(),
                                       np.zeros(self.n, dtype=np.int64))
        self.cells = self.work.cells
        self.cu = self.cells.sum(axis=0).astype(np.int64)  # kept in step with cells
        self.states = [ReceiverState() for _ in range(self.m)]
        self.tx: list[CodedPacket] = []
        self.audit: list[BenefitAudit] = []
        self.slot = 0
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
        if self.cu.any():
            self._final_sweep()
        return _result("benefit", self.losses, self.tx, self.states, self.work,
                       audit=self.audit)

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
                k = self._transmit_original()
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

    def _transmit_original(self) -> int:
        self.sent += 1
        self.slot += 1
        k = self.sent
        self.work.original_slot[k - 1] = self.slot
        self.tx.append(CodedPacket(frozenset((k,)), self.slot, original=True))
        # a fresh original sits in no buffer, so it unlocks nothing more
        for i0 in np.flatnonzero(self.losses[:, k - 1] == RECEIVED).tolist():
            self.states[i0].receive_original(k, self.slot)
        return k

    def _transmit_repair(self, ids: list[int], gates: tuple[int, int],
                         min_cu: int, forced: bool = False) -> None:
        self.slot += 1
        packet = CodedPacket(frozenset(ids), self.slot)
        self.tx.append(packet)
        for i0, state in enumerate(self.states):
            for kk in state.receive(packet):
                self._mark(i0, kk)
        decode_benefit, combination_benefit = gates
        self.audit.append(BenefitAudit(
            self.slot, tuple(ids), self.cycle, self.desired_benefit,
            decode_benefit, min_cu, combination_benefit, forced))

    def _mark(self, i0: int, k: int) -> None:
        if self.cells[i0, k - 1]:
            self.cells[i0, k - 1] = 0
            self.cu[k - 1] -= 1
            self._row_miss[i0] &= ~(1 << (k - 1))

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

    def _final_sweep(self) -> None:
        # desired benefit exhausted: clear the stragglers uncoded
        for k in range(1, self.n + 1):
            cu = int(self.cu[k - 1])
            if cu:
                gates = self._read_gates(1 << (k - 1))
                assert gates is not None  # an outstanding packet always reaches someone
                self._transmit_repair([k], gates, cu, forced=True)


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
