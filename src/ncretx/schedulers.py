"""Retransmission schedulers for single-hop multicast over a lossy batch.

Five algorithms share one contract: take a sampled loss realization and
produce the repair schedule and the slot of each original, along with each
receiver's decoding state, ending with every packet recovered everywhere.

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

from bisect import insort
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce
from itertools import chain

import numpy as np

from .decoder import ReceiverState
from .gf import Gf256Basis
from .model import CodedPacket, IntegrityError, TransmissionMatrix

SCHEDULER_NAMES = ("arq", "greedy", "sort-utility", "benefit", "rlnc")


@dataclass
class Schedule:
    """A run's repairs in slot order; ``RunResult.original_slot`` has the originals."""

    repairs: list[CodedPacket]

    @property
    def retransmission_count(self) -> int:
        return len(self.repairs)


@dataclass
class RunResult:
    algorithm: str
    schedule: Schedule
    receivers: list[ReceiverState]
    original_slot: np.ndarray   # the slot each packet's original went out in
    losses: np.ndarray          # the loss cells the run started from
    coefficients: list[np.ndarray] | None = None  # rlnc coding vectors, one per repair
    audit: list["BenefitAudit"] | None = None     # benefit gate log, one per repair


# ---------------------------------------------------------------- run record


def _init_states(states: list[ReceiverState], matrix: TransmissionMatrix) -> None:
    """Hand each fresh receiver the originals it did not lose, packet k in
    slot k: a copy of the matrix's record, which is built once per matrix,
    not a ``receive_original`` per cell."""
    for state, slots in zip(states, matrix.received_slots):
        state.recovery_slot = slots.copy()


class _Run:
    """The record of one run: what was sent, when, and who recovered what.

    ``losses`` is the sampled matrix's read-only cells, shared, not copied.
    ``missing[k-1]`` is an int with bit i-1 set while receiver i still lacks
    packet k: it starts as packet k's loss column and has each recovery
    cleared as it happens.  ``lacking``, first the union of the loss columns,
    loses bit i-1 once receiver i holds the whole batch, from a repair or the
    last original: it only shrinks, and covers every ``missing`` mask.
    ``slot`` is the last slot used.
    """

    def __init__(self, matrix: TransmissionMatrix):
        self.matrix = matrix
        self.losses = matrix.cells
        self.missing = list(matrix.loss_masks)
        self.lacking = reduce(int.__or__, self.missing, 0)
        self.states = [ReceiverState() for _ in range(matrix.receivers)]
        self.repairs: list[CodedPacket] = []
        self.slot = 0
        self.original_slot = np.zeros(matrix.batch, dtype=np.int64)

    def send_batch(self) -> None:
        """Send the originals of packets 1..N in slots 1..N."""
        self.slot = n = self.losses.shape[1]
        self.original_slot[:] = np.arange(1, n + 1)
        _init_states(self.states, self.matrix)

    def send_original(self, k: int) -> None:
        """Send packet k's original in the next slot to every receiver that
        did not lose it.  Originals go out in id order, and no repair holds an
        unsent packet, so no receiver holds the whole batch before the last
        one: only then does ``lacking`` become the ``missing`` masks' union."""
        self.slot += 1
        self.original_slot[k - 1] = self.slot
        # no repair holds k before its original, so missing[k-1] is its loss column
        got = ~self.missing[k - 1] & ((1 << len(self.states)) - 1)
        while got:
            bit = got & -got
            got ^= bit
            self.states[bit.bit_length() - 1].receive_original(k, self.slot)
        if k == len(self.missing):
            self.lacking = reduce(int.__or__, self.missing, 0)

    def send(self, constituents) -> list[int]:
        """Send the XOR of ``constituents`` as a repair, which every receiver
        gets; returns the packet of each recovery it caused: each constituent
        once per receiver that recovers it from this repair, then what
        peeling unlocked for each of them, receivers in index order.

        A carry-save count over the ``missing`` masks splits the receivers:
        ``ones`` holds those missing at least one constituent, ``twos`` those
        missing two or more.  One in ``missing[k-1] & ones & ~twos`` misses
        only k, so it recovers k now: its slot and source are recorded,
        ``decode_search`` peels the repairs filed under k, if any, and its
        ``lacking`` bit goes once it holds the whole batch.  One in ``twos``
        files the repair (``ReceiverState.receive``).  Any other holds every
        constituent.  This is the only place an XOR repair is decoded."""
        packet = self.append(constituents)
        missing, states, slot = self.missing, self.states, self.slot
        n = len(missing)
        ones = twos = 0
        for k in packet.constituents:
            col = missing[k - 1]
            twos |= ones & col
            ones |= col
        once = ones & ~twos
        recovered = []
        for k in packet.constituents:
            decoders = missing[k - 1] & once
            if not decoders:
                continue
            # peeling recovers only what these receivers still lack, so
            # never k: its bits can go first
            missing[k - 1] ^= decoders
            recovered += [k] * decoders.bit_count()
            while decoders:
                bit = decoders & -decoders
                decoders ^= bit
                state = states[bit.bit_length() - 1]
                held, waiting = state.recovery_slot, state.waiting
                held[k] = slot
                state.source[k] = packet
                if waiting and k in waiting:
                    for j in state.decode_search(k, slot):
                        missing[j - 1] &= ~bit
                        recovered.append(j)
                if len(held) == n:
                    self.lacking &= ~bit
        while twos:
            bit = twos & -twos
            twos ^= bit
            states[bit.bit_length() - 1].receive(packet)
        return recovered

    def append(self, constituents) -> CodedPacket:
        """Record a repair in the next slot."""
        self.slot += 1
        packet = CodedPacket(frozenset(constituents), self.slot)
        self.repairs.append(packet)
        return packet

    def result(self, algorithm: str, **extra) -> RunResult:
        if any(self.missing):
            raise IntegrityError(f"{algorithm} finished with unrecovered cells")
        return RunResult(algorithm, Schedule(self.repairs), self.states,
                         self.original_slot, self.losses, **extra)


def _strict_repairs(run: _Run, buckets: list[int]) -> None:
    """Repair every lost packet under the strict rule, in one pass.

    ``buckets`` holds the lost packets as id masks (bit k-1 for packet k) in
    priority order: bucket by bucket, lower id first inside one.  The first
    ``pending`` packet heads an XOR set, grown along the rest of the order
    while every receiver missing a constituent misses just one, so all
    decode it at once.  Rejection is in bulk: ``blocked``, the OR of the loss
    rows of the receivers the set covers, only grows, and the next member is
    the first pending packet outside it.  No receiver files a strict repair,
    so a packet's ``missing`` column is its loss column until the one repair
    that holds it, and 0 after.  ``result()`` catches a failed pass.
    """
    missing, rows = run.missing, run.matrix.loss_rows
    pending = reduce(int.__or__, buckets, 0)
    for at, bucket in enumerate(buckets):
        while bucket & pending:
            free, blocked, chosen = pending, 0, []
            for tier in buckets[at:]:
                tier &= free
                while tier:
                    bit = tier & -tier
                    k = bit.bit_length()
                    chosen.append(k)
                    pending, free = pending ^ bit, free ^ bit
                    covered = missing[k - 1]
                    while covered:
                        low = covered & -covered
                        covered ^= low
                        blocked |= rows[low.bit_length() - 1]
                    free &= ~blocked
                    tier &= free
                if not free:
                    break
            run.send(chosen)


# ---------------------------------------------------------------- schedulers


def baseline_arq(matrix: TransmissionMatrix) -> RunResult:
    """Plain ARQ reference: each packet lost anywhere is multicast once more."""
    run = _Run(matrix)
    run.send_batch()
    for k in [k for k, col in enumerate(run.missing, 1) if col]:
        run.send((k,))
    return run.result("arq")


def greedy_nc(matrix: TransmissionMatrix) -> RunResult:
    """Grow XOR sets over lost packets in arrival order (one priority bucket), strict rule."""
    run = _Run(matrix)
    run.send_batch()
    _strict_repairs(run, [reduce(int.__or__, matrix.loss_rows, 0)])
    return run.result("greedy")


def sort_by_utility(matrix: TransmissionMatrix) -> RunResult:
    """Greedy coding seeded by descending packet utility (ties: lower id first).

    The order is fixed once, from post-original utilities, as one priority
    bucket per utility, highest first; packets whose utility hits zero
    through earlier coded repairs are skipped when their turn comes.
    """
    run = _Run(matrix)
    run.send_batch()
    by_cu = [0] * (matrix.receivers + 1)
    for k0, col in enumerate(run.missing):
        by_cu[col.bit_count()] |= 1 << k0
    _strict_repairs(run, [bucket for bucket in by_cu[:0:-1] if bucket])
    return run.result("sort-utility")


def rlnc(matrix: TransmissionMatrix, seed: int = 0) -> RunResult:
    """Random linear coding: repair with uniform GF(2^8) combinations of the
    whole batch until every receiver has N innovative packets.

    Packets received as originals are known at their own slot; everything
    else becomes known in the slot where the receiver's coefficient matrix
    first reaches full rank and inversion is possible.  A received original
    is a unit vector, so a repair is innovative to a receiver iff its
    coefficients on that receiver's lost columns are, and each receiver's
    basis spans only those columns.  Full rank takes at least L_i repairs:
    the first L_i go in as one block when the L_i-th is drawn, and later
    ones one at a time only if that block fell short.
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
        drawn = len(coefficients)
        for i0, (state, basis, cols) in enumerate(zip(run.states, bases, lost)):
            if drawn < cols.size or basis.rank == cols.size:
                continue
            basis.insert(np.array(coefficients)[:, cols] if drawn == cols.size else vec[cols])
            if basis.rank == cols.size:
                for k0 in cols.tolist():
                    state.recovery_slot[k0 + 1] = slot
                    run.missing[k0] &= ~(1 << i0)
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


def benefit(matrix: TransmissionMatrix) -> RunResult:
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
        desired benefit, which starts at M.

    Only the last gate failing stores the candidate as the new prospective
    list, which is sent once it reaches the desired benefit: its first two
    gates cannot move while it waits.  Each scan cycle after the batch
    relaxes the desired benefit by one, down to 1; a cycle at 1 leaves
    nothing missing.  A cycle that cannot send is skipped (see ``execute``);
    an audit's cycle still reads M + 1 - desired benefit.
    """
    return _BenefitRun(matrix).execute()


class _BenefitRun(_Run):
    """Sender-side state of one benefit run.

    ``prospective`` is the ordered list of packets waiting to be coded
    together (its head is the anchor), ``_summary`` its fold (see
    ``_judge``), grown once per admission, ``desired_benefit`` the
    current requirement on how many receivers a coded repair must help now
    or later, M + 1 - c in scan cycle c.  Packet k's utility ``cu`` is
    ``missing[k-1].bit_count()``, the receivers still lacking it.
    ``_by_cu[c]`` lists the sent packets (0-based ids) whose ``cu`` is c, in
    id order, for c >= 1; ``_by_cu[0]`` stays empty.  Read from the top
    bucket down it is the scan's walk order, kept as ``cu`` falls.

    Each prospective set has one walk over that order (``_walk``), resumed
    where it stopped after each admission and cut short once the set
    reaches every receiver still ``lacking`` a packet (see ``_admit_first``),
    and ``_soft``, the packets it rejected on the minimum-utility
    gate, in walk order, which are judged again whenever the set grows.
    ``_epoch`` counts the sets sent this cycle, and packet k is not judged
    while ``_wait[k-1] >= _epoch``.  A hard rejection and a prospective
    member are stamped with the current epoch, so the next flush frees
    them.  An anchor is stamped ``n``, which no epoch of its cycle reaches:
    each set sent has its own anchor, and an anchor is never judged again
    in its cycle.  A new cycle clears every stamp.  Cycle 1 interleaves
    originals with repairs; cycles 2..M only rescan outstanding packets, and
    ``execute`` skips those that cannot send.  Gates only ever look at the
    ``missing`` masks of packets already sent.
    """

    def __init__(self, matrix: TransmissionMatrix):
        self.m = matrix.receivers
        self.n = matrix.batch
        super().__init__(matrix)
        self._by_cu: list[list[int]] = [[] for _ in range(self.m + 1)]
        self.audit: list[BenefitAudit] = []
        self.sent = 0
        self.desired_benefit = self.m
        self._new_cycle()

    def execute(self) -> RunResult:
        self._scan()
        while any(self.missing) and self.desired_benefit > 1:
            # Skip the cycles that cannot send: each that runs sends what it
            # would stepping by one.  A cycle >= 2 sends only sets reaching the
            # desired benefit, and a set's ``ones`` lies in ``lacking``.  One
            # that sent nothing built one set, from fresh stamps, moved no mask
            # and never read the desired benefit, so each cycle after it builds
            # that set again until the desired benefit falls to its ``ones``.
            self.desired_benefit = min(self.desired_benefit - 1, self.lacking.bit_count())
            slot = self.slot
            self._new_cycle()
            self._scan()
            if self.slot == slot:
                self.desired_benefit = self._summary[0].bit_count() + 1
        # No straggler sweep: a cycle at desired benefit 1 drains every
        # outstanding packet.  A lone free packet passes all three gates and a
        # prospective set always flushes, so the cycle leaves every non-anchor
        # at cu == 0; each anchor's set went out before any later anchor's, so
        # backwards through the anchors every buffered XOR peels to its anchor.
        # result() raises IntegrityError should a cell still be lost.
        return self.result("benefit", audit=self.audit)

    def _scan(self) -> None:
        """One scan cycle: grow the prospective set along its walk and flush
        it once it passes; when it can do neither and the batch lasts, send
        originals until one joins the set.  The walk goes on only after an
        admission: an original that does not join changes no verdict the
        walk has reached, and a flush starts a new set and walk."""
        while True:
            if self._admit_first() or self._flush_passing():
                continue
            while True:
                if self.sent == self.n:
                    return
                if self._admit_original():
                    break

    def _admit_first(self) -> bool:
        """Resume the prospective set's walk; True if a packet was admitted.

        It is called on a new set and after each admission, so the set's
        soft rejections are first judged again, in walk order, against the
        grown set; then the walk goes on from where it stopped.  This judges
        every packet exactly as a walk restarted from the top bucket would.
        No ``cu`` moves between admissions, which send nothing, so the walk
        order stands.  A packet still waiting stays skipped.  A hard
        rejection stays hard as the set grows, because ``ones`` only grows
        and each member's decoders only shrink.  So of the packets before
        the walk's place, only the soft rejections can have a new verdict.

        Once ``ones`` covers ``lacking``, this returns False at once: every
        ``col`` lies inside ``lacking``, so has no fresh receiver and is a
        hard rejection, until the set is flushed or its cycle ends, since
        ``lacking`` only shrinks and ``ones`` only grows.  The walk's place,
        stamps and soft rejections it would have left die with the set.
        """
        if not self.lacking & ~self._summary[0]:
            return False
        again, self._soft = self._soft, []
        rest = iter(again)
        if self._judge(rest, self._soft):
            self._soft += rest  # in walk order; the next call judges them
            return True
        return self._judge(self._walk, self._soft)

    def _admit_original(self) -> bool:
        """Send the next original; True if it joined the prospective set.

        Sending it moved no other packet's mask and not the set, so every
        other packet would be judged as before, and the original is judged
        alone.  One that every receiver got is done.  One missed by at least
        the desired benefit is repaired uncoded at once, with no coding
        partner search; it sits in no buffer and no set, so this leaves the
        coding state untouched.  One rejected on the minimum-utility gate
        takes its walk-order place among the soft rejections.
        """
        self.sent += 1
        k = self.sent
        self.send_original(k)
        c = self.missing[k - 1].bit_count()
        if not c:
            return False
        # k - 1 is the largest id sent, so its bucket stays in order
        self._by_cu[c].append(k - 1)
        if c >= self.desired_benefit:
            self._transmit_repair([k], (c, c, c))
            return False
        soft: list[int] = []
        if self._judge((k - 1,), soft):
            return True
        if soft:  # after each soft rejection of cu >= c, as the largest id
            insort(self._soft, k - 1, key=lambda k0: -self.missing[k0].bit_count())
        return False

    def _judge(self, order: Iterable[int], soft: list[int]) -> bool:
        """Judge the packets of ``order`` (0-based ids, each with cu >= 1)
        against the prospective set until one passes, and admit it.  True if
        one was admitted.  A waiting packet is skipped, a hard rejection is
        stamped, and a soft one is appended to ``soft``.

        No packet with cu == M is ever outstanding: the desired benefit is M
        throughout cycle 1, so such an original is repaired uncoded at once,
        and cu never rises.

        The set's summary ``(ones, decoders, minimum, decodes_own)`` holds
        the receivers missing any constituent, those missing exactly one
        (they decode now), the minimum utility, and per constituent the
        receivers that decode it now; it is unpacked once per call.  A
        receiver decodes the grown set now if it missed exactly one old
        constituent and not the newcomer, or only the newcomer.  So an old
        constituent stays decodable iff the newcomer's ``col`` leaves one of
        its decoders out, and the newcomer is decodable iff some receiver
        misses it alone.  A newcomer that passes both is admitted when the
        grown set's decoders number at least its minimum utility.
        """
        wait, epoch, missing = self._wait, self._epoch, self.missing
        ones, decoders, minimum, decodes_own = self._summary
        for k0 in order:
            if wait[k0] >= epoch:
                continue
            col = missing[k0]
            fresh = col & ~ones  # the receivers that would miss only the newcomer
            hard = not fresh
            if not hard:
                for own in decodes_own:
                    if not own & ~col:
                        hard = True
                        break
            if hard:
                # some constituent would reach no receiver immediately; growing
                # the set only loses decoders, so wait until a set is sent
                wait[k0] = epoch
                continue
            grown = (decoders & ~col) | fresh
            least = col.bit_count()
            if minimum < least:
                least = minimum
            if grown.bit_count() >= least:
                # keep the candidate either way: a set short of the desired
                # benefit waits for reinforcements, a passing one is still
                # grown until no further packet fits and is then flushed.
                # Every old constituent's mask lies inside ``ones``, so this
                # equals a fresh fold of the grown set.
                self._summary = (ones | col, grown, least,
                                 [own & ~col for own in decodes_own] + [fresh])
                wait[k0] = epoch if self.prospective else self.n
                self.prospective.append(k0 + 1)
                return True
            # else coding would not beat retransmitting the weakest
            # constituent uncoded, until the set grows
            soft.append(k0)
        return False

    # -- transmission plumbing --

    def _transmit_repair(self, ids: list[int], gates: tuple[int, int, int]) -> None:
        """Send the XOR of ``ids``; move each packet it recovered (peeling may
        add some outside ``ids``) once, down one bucket per receiver that did."""
        missing, by_cu, counts = self.missing, self._by_cu, {}
        for k in self.send(ids):
            counts[k] = counts.get(k, 0) + 1
        for k, times in counts.items():
            c = missing[k - 1].bit_count()
            by_cu[c + times].remove(k - 1)
            if c:
                insort(by_cu[c], k - 1)
        self.audit.append(BenefitAudit(self.slot, tuple(ids), self.m + 1 - self.desired_benefit,
                                       self.desired_benefit, *gates))

    # -- gate machinery --

    def _flush_passing(self) -> bool:
        """Transmit the prospective set if it reaches the desired benefit;
        True if sent.  Its summary is still a fold of its members: since
        their admission only fresh originals and their uncoded repairs went
        out, and no buffered repair holds a fresh original, so no
        constituent's ``missing`` mask has moved."""
        if not self.prospective:
            return False
        ones, decoders, minimum, _ = self._summary
        if ones.bit_count() < self.desired_benefit:
            return False
        self._transmit_repair(self.prospective,
                              (decoders.bit_count(), minimum, ones.bit_count()))
        self._epoch += 1  # frees the members and the hard rejections; anchors stay
        self._clear_prospective()
        return True

    def _clear_prospective(self) -> None:
        """Start an empty prospective set, its fold, its soft rejections and
        its walk from the top bucket.  The walk reads the buckets lazily: no
        ``cu`` moves while it is under way, and it has ended before an
        original is sent."""
        self.prospective: list[int] = []
        self._summary: tuple[int, int, int, list[int]] = (0, 0, self.m, [])
        self._soft: list[int] = []
        self._walk = chain.from_iterable(reversed(self._by_cu))

    def _new_cycle(self) -> None:
        """Clear every stamp and start an empty prospective set."""
        self._wait = [-1] * self.n
        self._epoch = 0
        self._clear_prospective()


# ---------------------------------------------------------------- dispatch


def run_scheduler(name: str, matrix: TransmissionMatrix, seed: int = 0) -> RunResult:
    """Run one scheduler by its public name on the given matrix, which it reads only."""
    if name == "arq":
        return baseline_arq(matrix)
    if name == "greedy":
        return greedy_nc(matrix)
    if name == "sort-utility":
        return sort_by_utility(matrix)
    if name == "benefit":
        return benefit(matrix)
    if name == "rlnc":
        return rlnc(matrix, seed=seed)
    raise ValueError(f"unknown scheduler {name!r}; choose from {', '.join(SCHEDULER_NAMES)}")
