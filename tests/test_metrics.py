"""Retransmission ratio and time-to-decode accounting."""

import math

import numpy as np
import pytest

from ncretx import (
    CodedPacket,
    IntegrityError,
    ReceiverState,
    Schedule,
    TransmissionMatrix,
    baseline_arq,
    benefit,
    retransmission_ratio,
    run_metrics,
    run_scheduler,
    sort_by_utility,
    time_to_decode,
)

from conftest import random_matrix


def _sched(count: int) -> Schedule:
    return Schedule([CodedPacket(frozenset({1}), 1, original=True)]
                    + [CodedPacket(frozenset({1}), slot) for slot in range(2, count + 2)])


def test_ratio_worked_example_values(worked_example):
    base = baseline_arq(worked_example)
    assert retransmission_ratio(sort_by_utility(worked_example).schedule, base.schedule) == 0.8
    assert retransmission_ratio(benefit(worked_example).schedule, base.schedule) == 0.6


def test_ratio_zero_over_zero():
    assert retransmission_ratio(_sched(0), _sched(0)) == 0.0


def test_ratio_plain_division():
    assert retransmission_ratio(_sched(3), _sched(4)) == 0.75


def test_ttd_worked_example_benefit(worked_example):
    result = benefit(worked_example)
    stats = time_to_decode(result.losses, result.original_slot, result.receivers)
    assert sorted(stats.samples) == [1, 1, 1, 1, 1, 1, 2, 2, 4, 5]
    assert stats.mean == pytest.approx(1.9, abs=1e-12)
    assert stats.std == pytest.approx(math.sqrt(1.89), abs=1e-12)  # population form


def test_ttd_worked_example_sort(worked_example):
    result = sort_by_utility(worked_example)
    stats = time_to_decode(result.losses, result.original_slot, result.receivers)
    assert stats.mean == pytest.approx(4.4, abs=1e-12)


def test_ttd_replay_of_worked_example_schedule(worked_example):
    # drive the published schedule through fresh receivers by hand and check
    # the sample multiset falls out of the decoder alone
    transmissions = [
        CodedPacket(frozenset({1}), 1, True), CodedPacket(frozenset({2}), 2, True),
        CodedPacket(frozenset({1, 2}), 3), CodedPacket(frozenset({3}), 4, True),
        CodedPacket(frozenset({4}), 5, True), CodedPacket(frozenset({2, 3, 4}), 6),
        CodedPacket(frozenset({5}), 7, True), CodedPacket(frozenset({5}), 8),
    ]
    states = [ReceiverState() for _ in range(4)]
    for cp in transmissions:
        k = next(iter(cp.constituents))
        if cp.original:
            for i0 in range(4):
                if not worked_example.is_lost(i0 + 1, k):
                    states[i0].receive_original(k, cp.slot)
        else:
            for state in states:
                state.receive(cp)
    stats = time_to_decode(worked_example.cells, np.array([1, 2, 4, 5, 7]), states)
    assert sorted(stats.samples) == [1, 1, 1, 1, 1, 1, 2, 2, 4, 5]


def test_ttd_only_lost_cells_sampled(worked_example):
    result = benefit(worked_example)
    stats = time_to_decode(result.losses, result.original_slot, result.receivers)
    assert len(stats.samples) == 10  # exactly the lost cells of the matrix


def test_ttd_empty_when_nothing_lost():
    mat = TransmissionMatrix.from_rows([[0, 0], [0, 0]])
    result = benefit(mat)
    stats = time_to_decode(result.losses, result.original_slot, result.receivers)
    assert stats.samples == []
    assert math.isnan(stats.mean)


def test_ttd_samples_always_positive():
    rng = np.random.default_rng(2)
    for t in range(80):
        mat = random_matrix(rng)
        for name in ("arq", "greedy", "sort-utility", "benefit", "rlnc"):
            result = run_scheduler(name, mat, seed=t)
            stats = time_to_decode(result.losses, result.original_slot,
                                   result.receivers)
            assert all(s >= 1 for s in stats.samples)


def test_unrecovered_cell_raises():
    mat = TransmissionMatrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(IntegrityError, match="receiver 1 never recovered packet 1"):
        time_to_decode(mat.cells, np.array([1, 2]), [ReceiverState(), ReceiverState()])


def test_run_metrics_bundle(worked_example):
    base = baseline_arq(worked_example)
    m = run_metrics(benefit(worked_example), base)
    assert (m.retransmissions, m.baseline_retransmissions) == (3, 5)
    assert m.ratio == 0.6
    assert m.ttd_mean == pytest.approx(1.9)
    assert len(m.ttd_samples) == 10


def test_benefit_beats_sort_on_worked_example_latency(worked_example):
    base = baseline_arq(worked_example)
    assert run_metrics(benefit(worked_example), base).ttd_mean < \
        run_metrics(sort_by_utility(worked_example), base).ttd_mean
