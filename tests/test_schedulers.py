"""The five schedulers: worked-example traces, rule compliance, invariants."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncretx import (
    ChannelParams,
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
from ncretx.schedulers import _ANCHOR, _PROSPECTIVE, _BenefitRun

from conftest import random_matrix

ALL = ("arq", "greedy", "sort-utility", "benefit", "rlnc")


def constituent_sets(result, start=0):
    return [set(cp.constituents) for cp in result.schedule.transmissions[start:]]


def replay_repairs(matrix, result):
    """Independent replay of a schedule through fresh decoder state.

    Yields (packet, shadow_matrix_before_delivery) for every repair, applying
    each repair afterwards, so callers can assert per-transmission rules.
    """
    shadow = TransmissionMatrix(matrix.cells.copy())
    states = [ReceiverState() for _ in range(matrix.receivers)]
    for packet in result.schedule.transmissions:
        k = next(iter(packet.constituents))
        if packet.original:
            for i in range(1, matrix.receivers + 1):
                if not matrix.is_lost(i, k):
                    for kk in states[i - 1].receive_original(k, packet.slot):
                        shadow.mark_received(i, kk)
            continue
        yield packet, shadow
        for i in range(1, matrix.receivers + 1):
            for kk in states[i - 1].receive(packet):
                shadow.mark_received(i, kk)
    assert not shadow.cells.any()


# ---------------------------------------------------------------- arq


def test_arq_worked_example(worked_example):
    result = baseline_arq(worked_example)
    assert result.schedule.retransmission_count == 5
    assert constituent_sets(result, start=5) == [{1}, {2}, {3}, {4}, {5}]


def test_arq_nothing_lost():
    mat = TransmissionMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert baseline_arq(mat).schedule.retransmission_count == 0


def test_arq_one_receiver_missing_everything():
    mat = TransmissionMatrix.from_rows([[1] * 4, [0] * 4])
    assert baseline_arq(mat).schedule.retransmission_count == 4


# ---------------------------------------------------------------- greedy


def test_greedy_first_set_on_worked_example(worked_example):
    result = greedy_nc(worked_example)
    repairs = constituent_sets(result, start=5)
    assert repairs[0] == {1, 3}
    assert result.schedule.retransmission_count == 4


def test_greedy_disjoint_losses_single_repair():
    mat = TransmissionMatrix.from_rows([[1, 0], [0, 1]])
    result = greedy_nc(mat)
    assert constituent_sets(result, start=2) == [{1, 2}]


def test_greedy_saturated_receiver_forces_uncoded():
    mat = TransmissionMatrix.from_rows([[1, 1, 1], [0, 0, 0]])
    result = greedy_nc(mat)
    assert result.schedule.retransmission_count == 3
    assert all(cp.is_uncoded for cp in result.schedule.transmissions[3:])


# ---------------------------------------------------------------- sort-utility


def test_sort_utility_worked_example(worked_example):
    result = sort_by_utility(worked_example)
    assert constituent_sets(result, start=5) == [{2}, {1, 3}, {4}, {5}]
    assert result.schedule.retransmission_count == 4
    metrics = run_metrics(result, baseline_arq(worked_example))
    assert metrics.ttd_mean == pytest.approx(4.4, abs=1e-12)


def test_sort_utility_nothing_lost():
    mat = TransmissionMatrix.from_rows([[0, 0], [0, 0]])
    assert sort_by_utility(mat).schedule.retransmission_count == 0


def test_strict_rule_holds_for_every_repair(worked_example):
    rng = np.random.default_rng(3)
    matrices = [worked_example] + [random_matrix(rng) for _ in range(120)]
    for mat in matrices:
        for scheduler in (greedy_nc, sort_by_utility):
            result = scheduler(mat)
            for packet, shadow in replay_repairs(mat, result):
                cols = [k - 1 for k in packet.constituents]
                assert (shadow.cells[:, cols].sum(axis=1) <= 1).all()


# ---------------------------------------------------------------- rlnc


def test_rlnc_nothing_lost_sends_nothing():
    mat = TransmissionMatrix.from_rows([[0, 0, 0], [0, 0, 0]])
    assert rlnc(mat).schedule.retransmission_count == 0


def test_rlnc_repair_floor():
    rng = np.random.default_rng(9)
    for t in range(40):
        mat = random_matrix(rng)
        result = rlnc(mat, seed=t)
        assert result.schedule.retransmission_count >= result.max_receiver_losses


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
    done = result.schedule.transmissions[-1].slot
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


@st.composite
def loss_matrices(draw, max_receivers=10, max_batch=40):
    """A loss matrix with per-receiver p in [0, 1], or all lost, or none."""
    m = draw(st.integers(2, max_receivers))
    n = draw(st.integers(1, max_batch))
    kind = draw(st.sampled_from(["random", "all-lost", "none-lost"]))
    if kind == "random":
        p = np.array(draw(st.lists(st.floats(0, 1), min_size=m, max_size=m)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        cells = rng.random((m, n)) < p[:, None]
    else:
        cells = np.full((m, n), kind == "all-lost")
    return TransmissionMatrix(cells.astype(np.uint8))


@given(loss_matrices(), st.integers(0, 2**32 - 1))
@example(TransmissionMatrix(np.ones((2, 1), dtype=np.uint8)), 0)
@example(TransmissionMatrix(np.ones((10, 40), dtype=np.uint8)), 1)
@example(TransmissionMatrix(np.zeros((10, 40), dtype=np.uint8)), 2)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_rlnc_matches_full_width_oracle(mat, seed):
    coefficients, recovery = rlnc_oracle(mat, seed)
    result = rlnc(mat, seed=seed)
    assert len(result.coefficients) == len(coefficients)
    assert all(np.array_equal(a, b) for a, b in zip(result.coefficients, coefficients))
    assert result.schedule.retransmission_count == len(coefficients)
    assert len(result.schedule.transmissions) == mat.batch + len(coefficients)
    assert [state.recovery_slot for state in result.receivers] == recovery


# ---------------------------------------------------------------- benefit


GOLDEN = ["c1", "c2", "c1^c2", "c3", "c4", "c2^c3^c4", "c5", "c5"]


def test_benefit_worked_example_schedule(worked_example):
    result = benefit(worked_example)
    assert [str(cp) for cp in result.schedule.transmissions] == GOLDEN
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
    assert [cp.slot for cp in result.schedule.transmissions] == list(range(1, 13))


def test_benefit_interleaves_repairs(worked_example):
    slots = {str(cp): cp.slot for cp in benefit(worked_example).schedule.transmissions[:6]}
    assert slots["c1^c2"] == 3  # repair before the batch has finished
    assert benefit(worked_example).original_slot.tolist() == [1, 2, 4, 5, 7]


def test_benefit_audit_matches_independent_replay(worked_example):
    rng = np.random.default_rng(4)
    matrices = [worked_example] + [random_matrix(rng) for _ in range(120)]
    runs = [(mat, start) for mat in matrices
            for start in (None, 1, math.ceil(mat.receivers / 2))]
    for mat, start in runs:
        result = benefit(mat, start)
        audit = {a.slot: a for a in result.audit}
        for packet, shadow in replay_repairs(mat, result):
            entry = audit[packet.slot]
            assert set(entry.constituents) == set(packet.constituents)
            ru = shadow.cells[:, [k - 1 for k in entry.constituents]].sum(axis=1)
            dec = int((ru == 1).sum())
            comb = int((ru >= 1).sum())
            minb = min(shadow.column_utility(k) for k in entry.constituents)
            assert (dec, minb, comb) == (entry.decode_benefit,
                                         entry.minimum_benefit,
                                         entry.combination_benefit)
            if not entry.forced:
                assert dec >= minb
                assert comb >= entry.desired_benefit
                # every constituent immediately decodable somewhere
                one = np.flatnonzero(ru == 1) + 1
                for k in entry.constituents:
                    assert any(shadow.is_lost(i, k) for i in one)


@st.composite
def benefit_runs(draw):
    """A loss matrix and an initial desired benefit from the whole range,
    None meaning M."""
    mat = draw(loss_matrices(max_receivers=12))
    start = draw(st.one_of(st.none(), st.integers(1, mat.receivers)))
    return mat, start


def assert_benefit_state_consistent(run):
    """The incremental benefit state equals what ``cells``, the receivers
    and ``prospective`` say it should be."""
    cells = run.cells
    for row, state in zip(cells, run.states):
        missing = set(range(1, run.sent + 1)) - state.have
        assert (np.flatnonzero(row[:run.sent]) + 1).tolist() == sorted(missing)
    assert np.array_equal(run.cu, cells.sum(axis=0))
    assert run._row_miss == [sum(1 << int(k0) for k0 in np.flatnonzero(row))
                             for row in cells]
    pros = run.prospective
    assert run._pros_mask == sum(1 << (k - 1) for k in pros)
    assert run._pros_min_cu == min((int(run.cu[k - 1]) for k in pros), default=0)
    if pros:
        assert run._wait[pros[0] - 1] == _ANCHOR
    assert (np.flatnonzero(run._wait == _PROSPECTIVE) + 1).tolist() == sorted(pros[1:])


@given(benefit_runs())
@example((TransmissionMatrix(np.ones((2, 1), dtype=np.uint8)), None))
@example((TransmissionMatrix(np.ones((12, 40), dtype=np.uint8)), 6))
@example((TransmissionMatrix(np.zeros((12, 40), dtype=np.uint8)), 1))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_benefit_incremental_state_matches_recomputation(run_input):
    # every transmission is followed by a scan or, for an original repaired
    # at once, by that repair, so checking on entry to both checks the state
    # after each transmission (and after each consideration)
    mat, start = run_input
    checked_slots = set()

    def checking(method):
        def wrapper(self, *args, **kwargs):
            assert_benefit_state_consistent(self)
            checked_slots.add(len(self.tx))
            return method(self, *args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_next_scan_target", "_transmit_repair"):
            mp.setattr(_BenefitRun, name, checking(getattr(_BenefitRun, name)))
        result = benefit(mat, start)
    assert checked_slots >= set(range(1, len(result.schedule.transmissions) + 1))
    assert not any(a.forced for a in result.audit)


def test_benefit_desired_benefit_bounds(worked_example):
    with pytest.raises(ValueError):
        benefit(worked_example, initial_desired_benefit=0)
    with pytest.raises(ValueError):
        benefit(worked_example, initial_desired_benefit=5)


def test_benefit_lower_initial_benefit_trades_bandwidth_for_delay(worked_example):
    eager = benefit(worked_example, initial_desired_benefit=1)
    patient = benefit(worked_example)
    base = baseline_arq(worked_example)
    assert eager.schedule.retransmission_count >= patient.schedule.retransmission_count
    assert run_metrics(eager, base).ttd_mean <= run_metrics(patient, base).ttd_mean


# ---------------------------------------------------------------- shared invariants


def test_full_recovery_and_repair_floor_everywhere():
    rng = np.random.default_rng(12)
    for t in range(150):
        mat = random_matrix(rng)
        floor = int(mat.cells.sum(axis=1).max())
        for name in ALL:
            result = run_scheduler(name, mat, seed=t)
            assert all(state.have == set(range(1, mat.batch + 1))
                       for state in result.receivers)
            assert result.schedule.retransmission_count >= floor
            # schedule structure: dense slots, each original exactly once,
            # marked as such and sent in the slot the run records for it
            slots = [cp.slot for cp in result.schedule.transmissions]
            assert slots == list(range(1, len(slots) + 1))
            originals = {next(iter(cp.constituents)): cp.slot
                         for cp in result.schedule.transmissions if cp.original}
            assert sum(cp.original for cp in result.schedule.transmissions) == mat.batch
            assert originals == {k: int(result.original_slot[k - 1])
                                 for k in range(1, mat.batch + 1)}
            assert all(cp.is_uncoded for cp in result.schedule.transmissions if cp.original)


def test_coded_schedulers_never_exceed_arq():
    rng = np.random.default_rng(14)
    for _ in range(150):
        mat = random_matrix(rng)
        base = baseline_arq(mat).schedule.retransmission_count
        for scheduler in (greedy_nc, sort_by_utility, benefit):
            assert scheduler(mat).schedule.retransmission_count <= base


def test_identical_inputs_identical_schedules(worked_example):
    mat = sample_matrix(ChannelParams.homogeneous(5, 0.45, seed=99), 30)
    for name in ALL:
        a = run_scheduler(name, mat, seed=7)
        b = run_scheduler(name, mat, seed=7)
        assert [(cp.slot, cp.constituents) for cp in a.schedule.transmissions] == \
               [(cp.slot, cp.constituents) for cp in b.schedule.transmissions]


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
