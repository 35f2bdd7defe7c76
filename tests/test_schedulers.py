"""The five schedulers: worked-example traces, rule compliance, invariants."""

import functools
from collections import Counter
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncretx import (
    ChannelParams,
    CodedPacket,
    ReceiverState,
    TransmissionMatrix,
    baseline_arq,
    benefit,
    greedy_nc,
    rlnc,
    run_metrics,
    run_scheduler,
    sample_matrix,
    sort_by_utility,
)
from ncretx.schedulers import BenefitAudit, _BenefitRun, _Run

from gf2_oracle import ListScanReceiver

from conftest import (EveryCycleBenefit, UnguardedBenefit, assert_peeling_sound, benefit_record,
                      loss_matrices, random_matrix, recorded_run, records, replay, slot_order)

ALL = ("arq", "greedy", "sort-utility", "benefit", "rlnc")


def constituent_sets(result):
    return [set(cp.constituents) for cp in result.schedule.repairs]


def repair_record(result):
    return [(cp.slot, cp.constituents) for cp in result.schedule.repairs]


# ---------------------------------------------------------------- arq


def test_arq_worked_example(worked_example):
    result = baseline_arq(worked_example)
    assert result.schedule.retransmission_count == 5
    assert constituent_sets(result) == [{1}, {2}, {3}, {4}, {5}]


def test_arq_nothing_lost():
    mat = TransmissionMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert baseline_arq(mat).schedule.retransmission_count == 0


def test_arq_one_receiver_missing_everything():
    mat = TransmissionMatrix.from_rows([[1] * 4, [0] * 4])
    assert baseline_arq(mat).schedule.retransmission_count == 4


# ---------------------------------------------------------------- greedy


def test_greedy_first_set_on_worked_example(worked_example):
    result = greedy_nc(worked_example)
    repairs = constituent_sets(result)
    assert repairs[0] == {1, 3}
    assert result.schedule.retransmission_count == 4


def test_greedy_disjoint_losses_single_repair():
    mat = TransmissionMatrix.from_rows([[1, 0], [0, 1]])
    result = greedy_nc(mat)
    assert constituent_sets(result) == [{1, 2}]


def test_greedy_saturated_receiver_forces_uncoded():
    mat = TransmissionMatrix.from_rows([[1, 1, 1], [0, 0, 0]])
    result = greedy_nc(mat)
    assert result.schedule.retransmission_count == 3
    assert all(len(cp.constituents) == 1 for cp in result.schedule.repairs)


# ---------------------------------------------------------------- sort-utility


def test_sort_utility_worked_example(worked_example):
    result = sort_by_utility(worked_example)
    assert constituent_sets(result) == [{2}, {1, 3}, {4}, {5}]
    assert result.schedule.retransmission_count == 4
    metrics = run_metrics(result, baseline_arq(worked_example))
    assert metrics.ttd_mean == pytest.approx(4.4, abs=1e-12)


def test_sort_utility_nothing_lost():
    mat = TransmissionMatrix.from_rows([[0, 0], [0, 0]])
    assert sort_by_utility(mat).schedule.retransmission_count == 0


def grown_set(cells, order):
    """The set the strict rule grows along ``order`` (0-based columns): every
    still-lost column that keeps each receiver missing at most one."""
    chosen = []
    for col in order:
        if cells[:, col].any() and (cells[:, chosen + [col]].sum(axis=1) <= 1).all():
            chosen.append(col)
    return {col + 1 for col in chosen}


def test_strict_rule_holds_for_every_repair(worked_example):
    # each repair obeys the rule and is the full growth along the scheduler's
    # order: lost packets ascending for greedy, and for sort-utility the
    # original utility order, whose already recovered packets are passed over
    rng = np.random.default_rng(3)
    matrices = [worked_example] + [random_matrix(rng) for _ in range(120)]
    for mat in matrices:
        orders = {greedy_nc: range(mat.batch),
                  sort_by_utility: np.argsort(-mat.cells.sum(axis=0), kind="stable").tolist()}
        for scheduler, order in orders.items():
            for packet, lacking, _, _ in replay(mat, scheduler(mat)):
                cols = [k - 1 for k in packet.constituents]
                assert (lacking[:, cols].sum(axis=1) <= 1).all()
                assert set(packet.constituents) == grown_set(lacking, order)


# ---------------------------------------------------------------- rlnc


def test_rlnc_nothing_lost_sends_nothing():
    mat = TransmissionMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert rlnc(mat).schedule.retransmission_count == 0


def test_rlnc_repair_floor():
    rng = np.random.default_rng(9)
    for t in range(40):
        mat = random_matrix(rng)
        result = rlnc(mat, seed=t)
        assert result.schedule.retransmission_count >= mat.max_receiver_losses


def test_rlnc_rarely_needs_extra_repairs():
    # one deficient receiver missing 5 of 30: 5 repairs suffice unless a draw
    # is dependent; excess should show in well under 5% of seeded runs
    rows = [[0] * 30, [0] * 30]
    rows[0][3] = rows[0][7] = rows[0][11] = rows[0][19] = rows[0][28] = 1
    mat = TransmissionMatrix.from_rows(rows)
    excess = sum(rlnc(mat, seed=s).schedule.retransmission_count > 5
                 for s in range(1000))
    assert excess < 50


def test_rlnc_recovery_slots_at_full_rank(worked_example):
    result = rlnc(worked_example, seed=1)
    done = result.schedule.repairs[-1].slot
    # max-loss receivers reach full rank only at the end
    assert result.receivers[0].recovery_slot[1] == done


def _schoolbook_products() -> np.ndarray:
    # carry-less multiply mod x^8 + x^4 + x^3 + x + 1, for every byte pair
    table = np.zeros((256, 256), dtype=np.uint8)
    for a0 in range(256):
        for b0 in range(256):
            a, b, r = a0, b0, 0
            while b:
                if b & 1:
                    r ^= a
                a <<= 1
                if a & 0x100:
                    a ^= 0x11B
                b >>= 1
            table[a0, b0] = r
    return table


PRODUCTS = _schoolbook_products()
INVERSES = np.array([0] + [int(np.flatnonzero(PRODUCTS[a] == 1)[0]) for a in range(1, 256)],
                    dtype=np.uint8)


def rlnc_oracle(mat, seed):
    """Reference rlnc on full-width systems: every receiver starts from the
    unit rows of the packets it received and eliminates each repair against
    its pivots one at a time, in the order they were found.

    Returns the coefficient vectors and each receiver's recovery slots.
    """
    m, n = mat.cells.shape
    pivots = [{} for _ in range(m)]  # pivot column -> row with a 1 there
    recovery = [{} for _ in range(m)]
    for i in range(m):
        for k0 in np.flatnonzero(mat.cells[i] == 0).tolist():
            unit = np.zeros(n, dtype=np.uint8)
            unit[k0] = 1
            pivots[i][k0] = unit
            recovery[i][k0 + 1] = k0 + 1
    rng = np.random.default_rng(seed)
    slot = n
    coefficients = []
    while any(len(p) < n for p in pivots):
        slot += 1
        vec = rng.integers(0, 256, size=n, dtype=np.uint8)
        while not vec.any():
            vec = rng.integers(0, 256, size=n, dtype=np.uint8)
        coefficients.append(vec)
        for i in range(m):
            if len(pivots[i]) == n:
                continue
            v = vec.copy()
            for col, row in pivots[i].items():
                if v[col]:
                    v ^= PRODUCTS[row, v[col]]
            if not v.any():
                continue
            col = int(np.flatnonzero(v)[0])
            pivots[i][col] = PRODUCTS[v, INVERSES[v[col]]]
            if len(pivots[i]) == n:
                for k0 in np.flatnonzero(mat.cells[i]).tolist():
                    recovery[i][k0 + 1] = slot
    return coefficients, recovery


@given(loss_matrices(), st.integers(0, 2**32 - 1))
@example(TransmissionMatrix(np.ones((2, 1), dtype=np.uint8)), 0)
@example(TransmissionMatrix(np.ones((10, 40), dtype=np.uint8)), 1)
@example(TransmissionMatrix(np.zeros((10, 40), dtype=np.uint8)), 2)
# one receiver's first L_i repairs are dependent, so it goes on one at a time
@example(TransmissionMatrix.from_rows([[1, 0], [0, 1]]), 81)
@example(TransmissionMatrix.from_rows([[1, 1, 0], [0, 1, 1]]), 90)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rlnc_matches_full_width_oracle(mat, seed):
    coefficients, recovery = rlnc_oracle(mat, seed)
    result = rlnc(mat, seed=seed)
    assert len(result.coefficients) == len(coefficients)
    assert all(np.array_equal(a, b) for a, b in zip(result.coefficients, coefficients))
    assert result.schedule.retransmission_count == len(coefficients)
    # the batch first, then one repair per coefficient vector
    assert result.original_slot.tolist() == list(range(1, mat.batch + 1))
    assert [cp.slot for cp in result.schedule.repairs] == \
        list(range(mat.batch + 1, mat.batch + len(coefficients) + 1))
    assert [state.recovery_slot for state in result.receivers] == recovery


# ---------------------------------------------------------------- benefit


GOLDEN = ["c1", "c2", "c1^c2", "c3", "c4", "c2^c3^c4", "c5", "c5"]


def test_benefit_worked_example_schedule(worked_example):
    result = benefit(worked_example)
    assert [str(cp) for _, cp in slot_order(result)] == GOLDEN
    assert result.schedule.retransmission_count == 3


def test_benefit_worked_example_metrics(worked_example):
    metrics = run_metrics(benefit(worked_example), baseline_arq(worked_example))
    assert metrics.ttd_mean == pytest.approx(1.9, abs=1e-12)
    assert sorted(metrics.ttd_samples) == [1, 1, 1, 1, 1, 1, 2, 2, 4, 5]


def test_benefit_worked_example_final_repair_cycle(worked_example):
    # the last packet goes out uncoded in the third cycle after the desired
    # benefit has been relaxed twice (4 -> 2)
    result = benefit(worked_example)
    last = result.audit[-1]
    assert last.constituents == (5,)
    assert last.cycle == 3
    assert last.desired_benefit == 2
    assert not last.forced


def test_benefit_lossless_run_is_just_the_batch():
    mat = sample_matrix(ChannelParams.homogeneous(4, 0.0, seed=1), 12)
    result = benefit(mat)
    assert result.schedule.retransmission_count == 0
    assert result.original_slot.tolist() == list(range(1, 13))


def test_benefit_interleaves_repairs(worked_example):
    slots = {str(cp): cp.slot for cp in benefit(worked_example).schedule.repairs}
    assert slots["c1^c2"] == 3  # repair before the batch has finished
    assert benefit(worked_example).original_slot.tolist() == [1, 2, 4, 5, 7]


def test_benefit_audit_matches_independent_replay(worked_example):
    rng = np.random.default_rng(4)
    for mat in [worked_example] + [random_matrix(rng) for _ in range(360)]:
        result = benefit(mat)
        audit = {a.slot: a for a in result.audit}
        for packet, lacking, _, _ in replay(mat, result):
            entry = audit[packet.slot]
            assert set(entry.constituents) == set(packet.constituents)
            ru = lacking[:, [k - 1 for k in entry.constituents]].sum(axis=1)
            dec = int((ru == 1).sum())
            comb = int((ru >= 1).sum())
            minb = min(int(lacking[:, k - 1].sum()) for k in entry.constituents)
            assert (dec, minb, comb) == (entry.decode_benefit,
                                         entry.minimum_benefit,
                                         entry.combination_benefit)
            assert dec >= minb
            assert comb >= entry.desired_benefit
            # every constituent immediately decodable somewhere
            one = np.flatnonzero(ru == 1)
            for k in entry.constituents:
                assert lacking[one, k - 1].any()


def direct_fold(missing, m, ids):
    """The summary ``(ones, decoders, minimum, decodes_own)`` of a set,
    folded directly from its members' masks."""
    ones = twos = 0
    minimum = m
    for k in ids:
        col = missing[k - 1]
        twos |= ones & col
        ones |= col
        minimum = min(minimum, col.bit_count())
    decoders = ones & ~twos
    return ones, decoders, minimum, [missing[k - 1] & decoders for k in ids]


def direct_gates(missing, m, ids):
    """(decode, minimum, combination benefit) of a candidate set by a direct
    fold, or None if some constituent reaches no receiver immediately."""
    ones, decoders, minimum, decodes_own = direct_fold(missing, m, ids)
    if not all(decodes_own):
        return None
    return decoders.bit_count(), minimum, ones.bit_count()


def assert_benefit_state_consistent(run):
    """The incremental benefit state equals what the receivers, the losses
    and ``prospective`` say it should be."""
    for k in range(1, run.n + 1):
        if k <= run.sent:
            lacking = [i0 for i0, state in enumerate(run.states) if k not in state.recovery_slot]
        else:
            lacking = np.flatnonzero(run.losses[:, k - 1]).tolist()
        assert run.missing[k - 1] == sum(1 << i0 for i0 in lacking)
    # the utility buckets read top down are the sent packets by descending
    # cu, equal cu in id order, without those at cu == 0
    cu = [col.bit_count() for col in run.missing]
    assert list(chain.from_iterable(reversed(run._by_cu))) == \
        [k0 for k0 in sorted(range(run.sent), key=cu.__getitem__, reverse=True) if cu[k0]]
    pros, wait, epoch = run.prospective, run._wait, run._epoch
    anchors = [k0 for k0, stamp in enumerate(wait) if stamp >= run.n]
    stamped = [k0 for k0, stamp in enumerate(wait) if epoch <= stamp < run.n]
    # an anchor outlasts its cycle: every set sent this cycle, and the
    # current one, has its own anchor, so no epoch of the cycle reaches n
    assert len(anchors) == epoch + bool(pros)
    if pros:
        assert pros[0] - 1 in anchors
    # members and hard rejections carry the current epoch, the next flush's
    assert all(wait[k0] == epoch for k0 in stamped)
    assert {k - 1 for k in pros[1:]} <= set(stamped)
    assert run._summary == direct_fold(run.missing, run.m, pros)
    # a stamped non-member is still hard against the current set: some
    # constituent would reach no receiver immediately
    for k0 in stamped:
        if k0 + 1 not in pros:
            assert direct_gates(run.missing, run.m, pros + [k0 + 1]) is None
    # after a flush, only anchors wait: nothing is hard against an empty set
    if not pros:
        assert stamped == []
    # the soft rejections wait for nothing, are outstanding, and keep walk order
    assert all(wait[k0] < epoch and cu[k0] for k0 in run._soft)
    assert run._soft == sorted(run._soft, key=lambda k0: (-cu[k0], k0))


@given(loss_matrices(max_receivers=12))
@example(TransmissionMatrix(np.ones((2, 1), dtype=np.uint8)))
@example(TransmissionMatrix(np.ones((12, 40), dtype=np.uint8)))
@example(TransmissionMatrix(np.zeros((12, 40), dtype=np.uint8)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_benefit_incremental_state_matches_recomputation(mat):
    # every transmission is followed by a walk, an original, a repair of a
    # fresh original, or the run's end, so checking on entry to the three
    # and at the end checks the state after each transmission; checking on
    # entry to a walk also sees the marks the walk before it left
    checked_slots = set()

    def checking(method):
        def wrapper(self, *args, **kwargs):
            assert_benefit_state_consistent(self)
            checked_slots.add(self.slot)
            return method(self, *args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_admit_first", "_admit_original", "_transmit_repair"):
            mp.setattr(_BenefitRun, name, checking(getattr(_BenefitRun, name)))
        run = _BenefitRun(mat)
        result = run.execute()
    assert_benefit_state_consistent(run)
    checked_slots.add(run.slot)
    assert checked_slots >= set(range(1, mat.batch + result.schedule.retransmission_count + 1))
    assert not any(a.forced for a in result.audit)


def reference_benefit(mat):
    """Reference benefit scan that shares only the run record (``_Run``)
    with the scheduler.

    Each step judges the single next free packet (highest utility, lowest
    id) by a direct fold over the whole candidate set, and after every
    admission the next step starts again from the top.  It keeps the
    cycle-1 cap (cu < M) that the scheduler omits, so every example also
    checks that the cap never decides.  It caches a rejection by the
    decode-benefit gate (``soft``) until the prospective set gains a member
    or is sent, so every example also checks that judging such a packet
    again before then never decides differently.  Each repair's audited
    gates are read by a direct fold too, and its cycle from a counter of
    its own, where the scheduler derives it from the desired benefit."""
    run = _Run(mat)
    m, n = mat.receivers, mat.batch
    audit, sent, cycle, desired = [], 0, 1, m

    def repair(ids):
        gates = direct_gates(run.missing, m, ids)
        run.send(ids)
        audit.append(BenefitAudit(run.slot, tuple(ids), cycle, desired, *gates))

    while True:
        pros, anchors, hard, soft = [], set(), set(), set()
        while True:
            top = m if cycle == 1 else m + 1
            cu = [col.bit_count() for col in run.missing]
            free = [k0 for k0 in range(sent) if 1 <= cu[k0] < top and k0 + 1 not in pros
                    and k0 not in anchors and k0 not in hard and k0 not in soft]
            if free:
                k0 = min(free, key=lambda k0: (-cu[k0], k0))
                gates = direct_gates(run.missing, m, pros + [k0 + 1])
                if gates is None:
                    hard.add(k0)
                elif gates[0] < gates[1]:
                    soft.add(k0)
                else:
                    if not pros:
                        anchors.add(k0)
                    pros.append(k0 + 1)
                    soft = set()
                continue
            if pros and direct_gates(run.missing, m, pros)[2] >= desired:
                repair(pros)
                pros, hard, soft = [], set(), set()
                continue
            if sent == n:
                break
            sent += 1
            run.send_original(sent)
            if run.missing[sent - 1].bit_count() >= desired:
                repair([sent])
        if not any(run.missing) or desired == 1:
            return run.result("benefit", audit=audit)
        cycle += 1
        desired -= 1


@given(loss_matrices(max_receivers=12))
@example(TransmissionMatrix(np.ones((2, 1), dtype=np.uint8)))
@example(TransmissionMatrix(np.ones((12, 40), dtype=np.uint8)))
@example(TransmissionMatrix(np.zeros((12, 40), dtype=np.uint8)))
@example(sample_matrix(ChannelParams.homogeneous(30, 0.5, seed=8), 100))
# c2 (cu 4), then c3 (cu 5) fail the minimum-utility gate as they are sent;
# once c4 joins c1, c3 must be judged again before c2, by utility
@example(TransmissionMatrix.from_rows([[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 1], [0, 0, 0, 1],
                                       [0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1], [1, 1, 1, 0]]))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_benefit_bulk_rejection_matches_one_candidate_per_call(mat):
    result = benefit(mat)
    reference = reference_benefit(mat)
    assert result.original_slot.tolist() == reference.original_slot.tolist()
    assert repair_record(result) == repair_record(reference)
    assert result.audit == reference.audit
    for state, ref in zip(result.receivers, reference.receivers):
        assert list(state.recovery_slot.items()) == list(ref.recovery_slot.items())
        assert state.source == ref.source


# ---------------------------------------------------------------- shared invariants


@given(loss_matrices(), st.integers(0, 2**32 - 1))
@example(TransmissionMatrix(np.ones((2, 1), dtype=np.uint8)), 0)
@example(TransmissionMatrix(np.ones((10, 40), dtype=np.uint8)), 1)
@example(TransmissionMatrix(np.zeros((10, 40), dtype=np.uint8)), 2)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_every_scheduler_keeps_the_run_invariants(mat, seed):
    floor = int(mat.cells.sum(axis=1).max())
    base = baseline_arq(mat).schedule.retransmission_count
    for name in ALL:
        result = run_scheduler(name, mat, seed=seed)
        repairs = result.schedule.repairs
        retx = result.schedule.retransmission_count
        assert retx == len(repairs)
        # full recovery, the per-receiver floor, and coded XOR never above arq
        assert all(state.recovery_slot.keys() == set(range(1, mat.batch + 1))
                   for state in result.receivers)
        assert retx >= floor
        if name in ("greedy", "sort-utility", "benefit"):
            assert retx <= base
        # schedule shape: one slot per original, disjoint from the repairs'
        # slots, which increase; together they are exactly 1..last.  Each
        # original goes out before every repair that holds it (the decoder
        # relies on this)
        original_slots = result.original_slot.tolist()
        repair_slots = [cp.slot for cp in repairs]
        assert len(original_slots) == mat.batch
        assert repair_slots == sorted(set(repair_slots))
        assert not set(original_slots) & set(repair_slots)
        assert sorted(original_slots + repair_slots) == \
            list(range(1, mat.batch + len(repairs) + 1))
        assert all(original_slots[k - 1] < cp.slot for cp in repairs for k in cp.constituents)
        if name in ("greedy", "sort-utility"):
            # strict rule: before each repair, every receiver lacks at most
            # one of its constituents
            for cp in repairs:
                for state in result.receivers:
                    assert sum(state.recovery_slot[k] >= cp.slot
                               for k in cp.constituents) <= 1


@st.composite
def permuted_rows(draw):
    """A loss matrix and an order of its rows."""
    mat = draw(loss_matrices())
    return mat, draw(st.permutations(range(mat.receivers)))


@given(permuted_rows())
@example((TransmissionMatrix.from_rows([[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0],
                                        [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]]),
          [6, 3, 0, 5, 1, 4, 2]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_every_scheduler_ignores_the_receivers_order(mat_order):
    # gates and the strict rule read bit counts and subset tests, and rlnc's
    # draws ignore the receivers: reordering the rows changes nothing sent
    # and moves each receiver's record with its row
    mat, order = mat_order
    shuffled = TransmissionMatrix(mat.cells[order])
    for name in ALL:
        result, again = run_scheduler(name, mat), run_scheduler(name, shuffled)
        assert repair_record(again) == repair_record(result), name
        assert again.original_slot.tolist() == result.original_slot.tolist(), name
        assert again.audit == result.audit, name
        for i, state in zip(order, again.receivers):
            held = result.receivers[i]
            assert list(state.recovery_slot.items()) == list(held.recovery_slot.items()), name
            assert state.source == held.source, name


# 11x5: R7 and R11 lost all five packets.  Benefit's first three repairs to
# them, c1^c4^c5, c3^c4 and c2^c3^c5, XOR to c1^c2, so with c1 and c2 its
# first five repairs have rank 4 there and a sixth is needed; every other
# scheduler makes max_i L_i = 5.  A sweep hits this as an IntegrityError
# (simulate --algorithms benefit --receivers 22 --loss 0.53 --batch 6
# --reps 19 --seed 15).
# 7x4: R7 lost all four packets.  Its first four repairs, c1^c3^c4,
# c2^c3^c4, c1 and c2, have rank 3, so benefit needs a fifth where arq,
# sort-utility and rlnc send 4.
@pytest.mark.xfail(strict=True, reason="benefit's gates count a receiver as helped "
                   "by a repair that is not new to it")
@pytest.mark.parametrize("rows", [
    [[1, 0, 0, 1, 1], [1, 1, 1, 0, 0], [1, 0, 1, 0, 0], [1, 0, 1, 0, 0],
     [1, 1, 1, 1, 0], [1, 1, 1, 1, 0], [1, 1, 1, 1, 1], [1, 0, 1, 1, 0],
     [0, 1, 1, 0, 1], [0, 1, 1, 1, 0], [1, 1, 1, 1, 1]],
    [[1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [0, 1, 1, 0],
     [1, 0, 0, 1], [0, 1, 0, 1], [1, 1, 1, 1]],
], ids=["11x5", "7x4"])
def test_benefit_never_exceeds_arq_on_a_rank_deficient_prefix(rows):
    mat = TransmissionMatrix.from_rows(rows)
    base = baseline_arq(mat).schedule.retransmission_count
    assert base == mat.batch
    assert benefit(mat).schedule.retransmission_count <= base


@given(loss_matrices())
# benefit: R4 buffers c2^c3 and c1^c2, then c1 peels c2, whose own search gives c3
@example(TransmissionMatrix.from_rows([[1, 0, 1], [0, 0, 1], [0, 1, 0], [1, 1, 1], [0, 1, 1]]))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_peeling_stays_in_the_gf2_span_for_every_xor_scheduler(mat):
    # read off the run's own receivers after every repair, not a replay's
    for name in ("arq", "greedy", "sort-utility", "benefit"):
        result = assert_peeling_sound(mat, name)
        assert all(state.recovery_slot.keys() == set(range(1, mat.batch + 1))
                   for state in result.receivers), name


# ---------------------------------------------------------------- delivery


def test_send_decodes_buffers_and_skips_by_the_loss_masks():
    # R1 lacks c1 and c3, R2 lacks c1, c2 and c3, R3 lacks nothing.  Both
    # lacking receivers file c1^c3; then c1^c2 finds R1 missing c1 alone, so
    # it recovers c1 and peels c3 out of c1^c3, R2 files it, R3 holds both
    run = _Run(TransmissionMatrix.from_rows([[1, 0, 1, 0], [1, 1, 1, 0], [0, 0, 0, 0]]))
    run.send_batch()
    assert run.send([1, 3]) == []
    first = run.repairs[-1]
    assert run.send([1, 2]) == [1, 3]  # c1 by R1, then what R1's peeling unlocked
    second = run.repairs[-1]
    assert (first.slot, second.slot) == (5, 6)
    assert run.missing == [0b010, 0b010, 0b010, 0]
    r1, r2, r3 = run.states
    assert list(r1.recovery_slot.items()) == [(2, 2), (4, 4), (1, 6), (3, 6)]
    assert r1.source == {1: second, 3: first}
    assert r1.waiting == {}
    assert list(r2.recovery_slot.items()) == [(4, 4)]
    assert r2.source == {}
    assert r2.waiting == {1: [first, second], 2: [second], 3: [first]}
    assert list(r3.recovery_slot.items()) == [(1, 1), (2, 2), (3, 3), (4, 4)]
    assert (r3.source, r3.waiting) == ({}, {})


def test_send_returns_recoveries_by_constituent_then_receiver():
    # R1 lacks c2 alone, R2 and R3 lack c1 alone: c1's two recoveries come
    # first although R1 has the lowest index
    run = _Run(TransmissionMatrix.from_rows([[0, 1], [1, 0], [1, 0]]))
    run.send_batch()
    assert run.send([1, 2]) == [1, 1, 2]
    assert run.missing == [0, 0]
    packet = run.repairs[-1]
    assert [state.source for state in run.states] == [{2: packet}, {1: packet}, {1: packet}]


@pytest.mark.parametrize("name", ["arq", "greedy", "sort-utility", "benefit"])
def test_lacking_covers_every_receiver_still_missing_a_packet(name):
    # after every slot, ``lacking`` is exactly the receivers that lose a
    # packet and do not hold the whole batch yet, so it covers every
    # ``missing`` mask, and one outside it holds every packet sent so far.
    # arq, greedy and sort-utility send every original first, so for them
    # it is exactly the union of the masks
    methods = {attr: getattr(_Run, attr) for attr in ("send_batch", "send_original", "send")}
    checked = Counter()

    def checking(attr):
        def checked_send(self, *args):
            out = methods[attr](self, *args)
            union = functools.reduce(int.__or__, self.missing, 0)
            unfinished = sum(1 << i0 for i0, state in enumerate(self.states)
                             if self.losses[i0].any()
                             and len(state.recovery_slot) < self.matrix.batch)
            assert self.lacking == unfinished
            assert not union & ~self.lacking
            assert name == "benefit" or self.lacking == union
            sent = set((np.flatnonzero(self.original_slot) + 1).tolist())
            for i0, state in enumerate(self.states):
                if not self.lacking >> i0 & 1:
                    assert state.have == sent
            checked[attr] += 1
            return out
        return checked_send

    rng = np.random.default_rng(29)
    with pytest.MonkeyPatch.context() as mp:
        for attr in methods:
            mp.setattr(_Run, attr, checking(attr))
        for _ in range(200):
            run_scheduler(name, random_matrix(rng))
    assert checked["send"] > 0
    assert checked["send_original" if name == "benefit" else "send_batch"] > 0


def test_walk_guard_changes_no_benefit_record():
    # the guard in ``_admit_first`` skips walks that could admit nothing:
    # benefit with it defeated keeps the same schedule, audit and
    # recoveries, and it must have skipped some, so judged less often.
    # Both runs scan every cycle, so they differ only by the guard
    judge = _BenefitRun._judge
    calls = Counter()

    def counting(self, order, soft):
        calls[type(self)] += 1
        return judge(self, order, soft)

    rng = np.random.default_rng(31)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BenefitRun, "_judge", counting)
        for _ in range(300):
            mat = random_matrix(rng, max_receivers=20, max_batch=40)
            assert benefit_record(EveryCycleBenefit(mat).execute()) == \
                benefit_record(UnguardedBenefit(mat).execute())
    assert calls[EveryCycleBenefit] < calls[UnguardedBenefit]


def test_benefit_skips_the_cycles_that_cannot_send():
    # stepping by one, cycle 2 (desired benefit 5) builds the set c1 alone,
    # which reaches 3 receivers (c2 or c3 would leave it 2 decoders, under
    # the minimum utility 3), and sends nothing, nor does cycle 3 (4), which
    # builds it again.  Cycle 4 (3) sends c1, then c2^c3, which R4 files, so
    # cycle 5 (2) sends nothing and cycle 6 (1) sends c2, and R4 peels c3.
    # The scheduler goes from cycle 2 to cycle 4, on the set that cycle 2
    # built, and from cycle 4 to cycle 6, as R4 alone still lacks a packet
    mat = TransmissionMatrix.from_rows([[0, 1, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1], [0, 0, 1],
                                        [0, 0, 0]])
    scan = _BenefitRun._scan
    desired = {}

    def recording(self):
        desired.setdefault(type(self), []).append(self.desired_benefit)
        scan(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_BenefitRun, "_scan", recording)
        result = benefit(mat)
        reference = EveryCycleBenefit(mat).execute()
    assert benefit_record(result) == benefit_record(reference)
    assert [a.cycle for a in result.audit] == [4, 4, 6]
    assert desired == {_BenefitRun: [6, 5, 3, 1], EveryCycleBenefit: [6, 5, 4, 3, 2, 1]}


@given(loss_matrices())
# benefit: R4 buffers c2^c3 and c1^c2, then c1 peels c2, whose own search gives c3
@example(TransmissionMatrix.from_rows([[1, 0, 1], [0, 0, 1], [0, 1, 0], [1, 1, 1], [0, 1, 1]]))
@example(TransmissionMatrix(np.ones((10, 40), dtype=np.uint8)))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_mask_delivery_matches_the_list_scan_replay(mat):
    # the run decodes from its loss masks; a replay of its schedule through
    # list-scan receivers shares no code with it.  After each repair the two
    # must agree on every receiver's recoveries in order, their sources and
    # its undecoded repairs, and on what the repair recovered
    result_of = _Run.result
    for name in ("arq", "greedy", "sort-utility", "benefit"):
        finished = []

        def finishing(self, *args, **kwargs):
            finished.append(list(self.missing))
            return result_of(self, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Run, "result", finishing)
            result, sent = recorded_run(name, mat)
        assert finished == [[0] * mat.batch], name
        repairs = iter(sent)
        states = [ListScanReceiver() for _ in range(mat.receivers)]
        for packet, _, _, recovered in replay(mat, result, states):
            sent_packet, got, held = next(repairs)
            assert sent_packet == packet, name
            assert Counter(got) == Counter(chain.from_iterable(recovered)), name
            assert held == records(states), name
        assert next(repairs, None) is None, name
        assert records(result.receivers) == records(states), name


def strict_optimum(cells: np.ndarray) -> int:
    """The fewest repairs that clear ``cells`` when every repair must be
    decodable at once by every receiver: each misses at most one of its
    packets.  A memoised search over the residual loss cells (one receiver
    mask per packet) that tries only maximal valid sets, since adding a
    packet that fits never leaves more cells lost."""

    @functools.cache
    def fewest(cols: tuple[int, ...]) -> int:
        lost = [k for k, col in enumerate(cols) if col]
        if not lost:
            return 0
        valid = set()
        for pick in range(1, 1 << len(lost)):
            covered, fits = 0, True
            for j, k in enumerate(lost):
                if pick >> j & 1:
                    fits = fits and not cols[k] & covered
                    covered |= cols[k]
            if fits:
                valid.add(pick)
        best = len(lost)
        for pick in valid:
            if any(not pick >> j & 1 and pick | 1 << j in valid for j in range(len(lost))):
                continue  # not maximal
            sent = {k for j, k in enumerate(lost) if pick >> j & 1}
            best = min(best, 1 + fewest(tuple(0 if k in sent else col
                                              for k, col in enumerate(cols))))
        return best

    return fewest(tuple(sum(int(bit) << i for i, bit in enumerate(column))
                        for column in cells.T))


def test_strict_optimum_on_the_worked_example(worked_example):
    # c1, c2, c4 and c5 each share a receiver with one another, so no two can
    # go together under the strict rule: four repairs, where benefit sends three
    assert strict_optimum(worked_example.cells) == 4
    assert benefit(worked_example).schedule.retransmission_count == 3
    assert strict_optimum(np.ones((3, 4), dtype=np.uint8)) == 4
    assert strict_optimum(np.eye(4, dtype=np.uint8)) == 1


@given(loss_matrices(max_receivers=5, max_batch=6))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_strict_rule_schedulers_never_beat_the_strict_optimum(mat):
    optimum = strict_optimum(mat.cells)
    assert optimum >= int(mat.cells.sum(axis=1).max())
    for scheduler in (baseline_arq, greedy_nc, sort_by_utility):
        assert scheduler(mat).schedule.retransmission_count >= optimum


def test_full_recovery_and_repair_floor_everywhere():
    rng = np.random.default_rng(12)
    for t in range(150):
        mat = random_matrix(rng)
        floor = int(mat.cells.sum(axis=1).max())
        for name in ALL:
            result = run_scheduler(name, mat, seed=t)
            assert all(state.recovery_slot.keys() == set(range(1, mat.batch + 1))
                       for state in result.receivers)
            assert result.schedule.retransmission_count >= floor
            # schedule structure: one slot per original, and together with
            # the repairs' slots they fill 1..last densely
            assert len(result.original_slot) == mat.batch
            slots = sorted(result.original_slot.tolist()
                           + [cp.slot for cp in result.schedule.repairs])
            assert slots == list(range(1, len(slots) + 1))


def test_coded_schedulers_never_exceed_arq():
    rng = np.random.default_rng(14)
    for _ in range(150):
        mat = random_matrix(rng)
        base = baseline_arq(mat).schedule.retransmission_count
        for scheduler in (greedy_nc, sort_by_utility, benefit):
            assert scheduler(mat).schedule.retransmission_count <= base


def test_only_benefit_receives_originals_one_call_per_received_cell(monkeypatch):
    # the batch hands each receiver its originals as one record; only
    # benefit, which sends originals one by one, calls receive_original
    calls = []
    receive_original = ReceiverState.receive_original
    monkeypatch.setattr(ReceiverState, "receive_original", lambda self, k, slot: (
        calls.append(k), receive_original(self, k, slot))[1])
    rng = np.random.default_rng(31)
    for t in range(60):
        mat = random_matrix(rng)
        for name in ALL:
            calls.clear()
            run_scheduler(name, mat, seed=t)
            received = int((mat.cells == 0).sum())
            assert len(calls) == (received if name == "benefit" else 0), name


def test_counts_read_once_equal_a_fresh_count():
    rng = np.random.default_rng(37)
    for t in range(80):
        mat = random_matrix(rng)
        for name in ALL:
            result = run_scheduler(name, mat, seed=t)
            assert result.schedule.retransmission_count == len(result.schedule.repairs)
            assert mat.max_receiver_losses == int(mat.cells.sum(axis=1).max())


def test_identical_inputs_identical_schedules(worked_example):
    mat = sample_matrix(ChannelParams.homogeneous(5, 0.45, seed=99), 30)
    for name in ALL:
        a = run_scheduler(name, mat, seed=7)
        b = run_scheduler(name, mat, seed=7)
        assert a.original_slot.tolist() == b.original_slot.tolist()
        assert repair_record(a) == repair_record(b)


def test_input_matrix_never_mutated(worked_example):
    snapshot = worked_example.cells.copy()
    for name in ALL:
        result = run_scheduler(name, worked_example, seed=1)
        assert np.array_equal(worked_example.cells, snapshot)
        # the run's own copy of the losses is read-only as well
        assert np.array_equal(result.losses, snapshot)
        assert not result.losses.flags.writeable


def test_unknown_scheduler_name(worked_example):
    with pytest.raises(ValueError, match="unknown scheduler"):
        run_scheduler("magic", worked_example)
