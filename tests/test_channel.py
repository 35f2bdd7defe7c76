"""Bernoulli loss sampling: determinism, row independence, statistics, and
the derived row streams against NumPy's own seeding."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncretx import ChannelParams, run_scheduler, sample_matrix
from ncretx.channel import _row_states

from conftest import numpy_row_rng


def reference_matrix(params: ChannelParams, batch: int) -> np.ndarray:
    return np.array([numpy_row_rng(params.seed, i).random(batch) < p
                     for i, p in enumerate(params.loss_probabilities, start=1)],
                    dtype=np.uint8)


def test_no_loss_channel_all_received():
    mat = sample_matrix(ChannelParams.homogeneous(4, 0.0, seed=1), 10)
    assert mat.cells.sum() == 0


def test_total_loss_channel_all_lost():
    mat = sample_matrix(ChannelParams.homogeneous(3, 1.0, seed=1), 7)
    assert mat.cells.sum() == 21


def test_same_seed_same_matrix():
    params = ChannelParams.homogeneous(5, 0.4, seed=123)
    a = sample_matrix(params, 50)
    b = sample_matrix(params, 50)
    assert np.array_equal(a.cells, b.cells)


def test_different_seeds_differ():
    a = sample_matrix(ChannelParams.homogeneous(5, 0.4, seed=1), 100)
    b = sample_matrix(ChannelParams.homogeneous(5, 0.4, seed=2), 100)
    assert not np.array_equal(a.cells, b.cells)


def test_adding_receiver_keeps_existing_rows():
    small = sample_matrix(ChannelParams.homogeneous(3, 0.5, seed=9), 40)
    big = sample_matrix(ChannelParams.homogeneous(4, 0.5, seed=9), 40)
    assert np.array_equal(small.cells, big.cells[:3])


def test_heterogeneous_rates():
    params = ChannelParams((0.0, 1.0), seed=5)
    mat = sample_matrix(params, 30)
    assert mat.cells[0].sum() == 0
    assert mat.cells[1].sum() == 30


def test_original_slots_are_batch_positions():
    mat = sample_matrix(ChannelParams.homogeneous(4, 0.5, seed=0), 6)
    for name in ("arq", "greedy", "sort-utility", "rlnc"):
        result = run_scheduler(name, mat, seed=1)
        assert result.original_slot.tolist() == [1, 2, 3, 4, 5, 6]
    # benefit interleaves repairs with the batch; it records where each original went
    result = run_scheduler("benefit", mat)
    # in id order, in the slots its repairs leave free
    repair_slots = {cp.slot for cp in result.schedule.repairs}
    free = [s for s in range(1, 6 + len(repair_slots) + 1) if s not in repair_slots]
    assert result.original_slot.tolist() == free


def test_empirical_loss_rate_converges():
    # p = 0.5, M = 10, N = 200: cell-loss fraction over 1000 replications
    fraction = 0.0
    cells = 0
    for rep in range(1000):
        mat = sample_matrix(ChannelParams.homogeneous(10, 0.5, seed=rep), 200)
        fraction += int(mat.cells.sum())
        cells += 10 * 200
    assert abs(fraction / cells - 0.5) < 0.01


@pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.5)])
def test_invalid_probability_rejected(bad):
    with pytest.raises(ValueError):
        ChannelParams(bad, seed=0)


def test_single_receiver_rejected():
    with pytest.raises(ValueError):
        ChannelParams((0.5,), seed=0)


ROW_STATE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**200 + 3]


def test_derived_row_state_matches_numpy():
    rows = tuple(range(1, 65)) + (10**6,)
    draw = random.Random(25)
    seeds = ROW_STATE_SEEDS + [draw.getrandbits(64) for _ in range(1000)]
    for seed in seeds:
        derived = list(_row_states(seed, rows))
        assert len(derived) == len(rows)
        for i, state in zip(rows, derived):
            expected = np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
            assert state == expected.state, (seed, i)


@settings(max_examples=60, deadline=None)
@given(seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(0, 2**300)),
       probabilities=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=12),
       batch=st.integers(1, 60))
def test_sample_matrix_matches_numpy_row_streams(seed, probabilities, batch):
    params = ChannelParams(tuple(probabilities), seed=seed)
    assert np.array_equal(sample_matrix(params, batch).cells, reference_matrix(params, batch))


@pytest.mark.parametrize("seed", [1.5, "7", None, -1])
def test_non_integer_or_negative_seed_rejected(seed):
    with pytest.raises(ValueError, match="seed"):
        ChannelParams.homogeneous(3, 0.5, seed=seed)


def test_numpy_integer_seed_is_the_equal_int():
    params = ChannelParams.homogeneous(4, 0.5, seed=np.int64(9))
    assert type(params.seed) is int and params.seed == 9
    assert np.array_equal(sample_matrix(params, 40).cells,
                          sample_matrix(ChannelParams.homogeneous(4, 0.5, seed=9), 40).cells)
