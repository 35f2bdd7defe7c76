"""Bernoulli loss sampling: determinism, row independence, statistics."""

import numpy as np
import pytest

from ncretx import ChannelParams, run_scheduler, sample_loss_counts, sample_matrix


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
    originals = [cp.slot for cp in result.schedule.transmissions if cp.original]
    assert result.original_slot.tolist() == originals


def test_empirical_loss_rate_converges():
    # p = 0.5, M = 10, N = 200: cell-loss fraction over 1000 replications
    fraction = 0.0
    cells = 0
    for rep in range(1000):
        mat = sample_matrix(ChannelParams.homogeneous(10, 0.5, seed=rep), 200)
        fraction += int(mat.cells.sum())
        cells += 10 * 200
    assert abs(fraction / cells - 0.5) < 0.01


def test_batched_loss_counts_match_distribution():
    params = ChannelParams.homogeneous(4, 0.3, seed=77)
    counts = sample_loss_counts(params, 50, 4000)
    assert counts.shape == (4000, 4)
    assert abs(counts.mean() - 50 * 0.3) < 0.5
    # deterministic for a fixed seed
    again = sample_loss_counts(params, 50, 4000)
    assert np.array_equal(counts, again)


@pytest.mark.parametrize("bad", [(-0.1, 0.5), (0.5, 1.5)])
def test_invalid_probability_rejected(bad):
    with pytest.raises(ValueError):
        ChannelParams(bad, seed=0)


def test_single_receiver_rejected():
    with pytest.raises(ValueError):
        ChannelParams((0.5,), seed=0)
