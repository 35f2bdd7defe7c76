"""Retransmission ratio and time-to-decode accounting."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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

from ncretx.metrics import TtdStats, moments

from conftest import random_matrix, replay


def test_ratio_worked_example_values(worked_example):
    base = baseline_arq(worked_example).schedule.retransmission_count
    assert retransmission_ratio(sort_by_utility(worked_example).schedule.retransmission_count,
                                base) == 0.8
    assert retransmission_ratio(benefit(worked_example).schedule.retransmission_count,
                                base) == 0.6


def test_ratio_zero_over_zero():
    # counted repairs, and the theory's expected ones, as ints or floats
    assert retransmission_ratio(0, 0) == 0.0
    assert retransmission_ratio(0.0, 0.0) == 0.0


def test_ratio_plain_division():
    assert retransmission_ratio(3, 4) == 0.75
    assert retransmission_ratio(3.0, 4.0) == 0.75


def test_ttd_worked_example_benefit(worked_example):
    result = benefit(worked_example)
    stats = time_to_decode(result.losses, result.original_slot, result.receivers)
    assert sorted(stats.samples) == [1, 1, 1, 1, 1, 1, 2, 2, 4, 5]
    mean, std = moments(stats.sums)
    assert mean == pytest.approx(1.9, abs=1e-12)
    assert std == pytest.approx(math.sqrt(1.89), abs=1e-12)  # population form


def test_ttd_worked_example_sort(worked_example):
    result = sort_by_utility(worked_example)
    stats = time_to_decode(result.losses, result.original_slot, result.receivers)
    assert moments(stats.sums)[0] == pytest.approx(4.4, abs=1e-12)


def test_ttd_replay_of_worked_example_schedule(worked_example):
    # drive the published schedule through fresh receivers by hand and check
    # the sample multiset falls out of the decoder alone
    original_slot = np.array([1, 2, 4, 5, 7])
    repairs = [CodedPacket(frozenset({1, 2}), 3), CodedPacket(frozenset({2, 3, 4}), 6),
               CodedPacket(frozenset({5}), 8)]
    run = SimpleNamespace(original_slot=original_slot, schedule=Schedule(repairs))
    for _, _, states, _ in replay(worked_example, run):
        pass
    stats = time_to_decode(worked_example.cells, original_slot, states)
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
    assert stats.sums == (0, 0, 0)
    assert all(math.isnan(v) for v in moments(stats.sums))


def test_ttd_sums_stay_exact_past_int64():
    # a square of 2**40 slots overflows int64 many times over
    state = ReceiverState()
    state.recovery_slot.update({1: 2**40 + 1, 2: 2**40 + 7})
    stats = time_to_decode(np.array([[1, 1]]), np.array([1, 2]), [state])
    assert stats.samples == [2**40, 2**40 + 5]
    assert stats.sums == (2, 2**41 + 5, 2**80 + (2**40 + 5) ** 2)
    assert moments(stats.sums) == (2**40 + 2.5, 2.5)


def ulps_apart(a: float, b: float) -> int:
    """How many ulps apart two positive floats are."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.integers(1, 60), st.integers(1, 2**50)), min_size=1, max_size=400))
@example([1])
@example([2**50, 2**50])
@example([2**50, 2**50 - 1])
def test_ttd_moments_are_the_exact_ones(samples):
    # the samples of one receiver whose originals all went out in slot 0
    state = ReceiverState()
    state.recovery_slot.update(enumerate(samples, start=1))
    n = len(samples)
    stats = time_to_decode(np.ones((1, n), dtype=np.uint8), np.zeros(n, dtype=np.int64), [state])
    assert stats.samples == samples
    total = sum(samples)
    assert stats.sums == (n, total, sum(s * s for s in samples))
    mean, std = moments(stats.sums)
    assert mean == float(Fraction(total, n))  # the exact mean, correctly rounded
    # the exact population variance, its square root to 50 digits
    variance = Fraction(sum((s * n - total) ** 2 for s in samples), n ** 3)
    with localcontext() as ctx:
        ctx.prec = 50
        exact = (Decimal(variance.numerator) / Decimal(variance.denominator)).sqrt()
    if exact == 0:
        assert std == 0.0
    else:
        assert ulps_apart(std, float(exact)) <= 1


def test_ttd_samples_always_positive():
    rng = np.random.default_rng(2)
    for t in range(80):
        mat = random_matrix(rng)
        for name in ("arq", "greedy", "sort-utility", "benefit", "rlnc"):
            result = run_scheduler(name, mat, seed=t)
            stats = time_to_decode(result.losses, result.original_slot,
                                   result.receivers)
            assert all(s >= 1 for s in stats.samples)


def row_walk_time_to_decode(losses, original_slot, receivers) -> TtdStats:
    """Reference: the per-row walk with a numpy lookup per lost cell."""
    samples: list[int] = []
    for i0, row in enumerate(np.asarray(losses)):
        recovered = receivers[i0].recovery_slot
        for k0 in np.flatnonzero(row):
            slot = recovered.get(k0 + 1)
            if slot is None:
                raise IntegrityError(
                    f"receiver {i0 + 1} never recovered packet {k0 + 1}")
            samples.append(int(slot) - int(original_slot[k0]))
    return TtdStats(samples, (len(samples), sum(samples), sum(s * s for s in samples)))


def raised(fn, *args) -> str:
    with pytest.raises(IntegrityError) as info:
        fn(*args)
    return str(info.value)


def test_ttd_matches_the_row_walk_reference():
    rng = np.random.default_rng(29)
    deleted = 0
    for t in range(150):
        mat = random_matrix(rng, max_receivers=20, max_batch=40)
        for name in ("arq", "greedy", "sort-utility", "benefit", "rlnc"):
            result = run_scheduler(name, mat, seed=t)
            args = (result.losses, result.original_slot, result.receivers)
            got, want = time_to_decode(*args), row_walk_time_to_decode(*args)
            assert got == want
            assert all(type(s) is int for s in got.samples + list(got.sums))
            lost = np.argwhere(result.losses).tolist()
            if not lost:
                continue
            # delete up to three recoveries of lost cells: both walks name
            # the first in (receiver, packet) order
            for at in rng.choice(len(lost), size=min(3, len(lost)), replace=False):
                i0, k0 = lost[at]
                del result.receivers[i0].recovery_slot[k0 + 1]
            message = raised(time_to_decode, *args)
            assert message == raised(row_walk_time_to_decode, *args)
            first = next((i0, k0) for i0, k0 in lost
                         if k0 + 1 not in result.receivers[i0].recovery_slot)
            assert message == f"receiver {first[0] + 1} never recovered packet {first[1] + 1}"
            deleted += 1
    assert deleted > 500


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
