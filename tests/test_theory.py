"""Analytic repair floor against exact oracles: fractions and enumeration."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ncretx import (
    TheoryParams,
    expected_baseline_retx,
    expected_min_retx,
    loss_cdf,
    q_distribution,
    theory_ratio,
)
from ncretx.theory import MAX_RECEIVERS

from conftest import loss_counts


def cdf_fraction_oracle(n: int, p: Fraction, j: int) -> Fraction:
    return sum(Fraction(math.comb(n, c)) * p ** c * (1 - p) ** (n - c)
               for c in range(j + 1))


def test_cdf_trivial_points():
    assert loss_cdf(10, 0.5)[10] == 1.0
    assert loss_cdf(10, 0.0)[0] == 1.0
    assert loss_cdf(10, 1.0)[9] == 0.0
    assert loss_cdf(10, 1.0)[10] == 1.0


def test_cdf_small_case_by_hand():
    # two transmissions at p = 1/2: P[L <= 1] = 1/4 + 1/2
    assert abs(loss_cdf(2, 0.5)[1] - 0.75) < 1e-15


def test_cdf_against_exact_fractions():
    for n in (5, 17, 60):
        for p in (0.25, 0.5, 0.9):
            exact = [float(cdf_fraction_oracle(n, Fraction(p), j)) for j in range(n + 1)]
            cdf = loss_cdf(n, p)
            for j in range(n + 1):
                assert abs(cdf[j] - exact[j]) < 1e-12


def test_cdf_large_batch_exact_fractions():
    # stability target: absolute error under 1e-12 at N = 1000
    n = 1000
    cdf = loss_cdf(n, 0.5)
    for j in (300, 500, 700):
        exact = float(cdf_fraction_oracle(n, Fraction(1, 2), j))
        assert abs(cdf[j] - exact) < 1e-12


def test_cdf_monotone_in_j_and_survival():
    n = 10_000
    values = loss_cdf(n, 0.5)[::500].tolist()
    assert all(0.0 <= v <= 1.0 for v in values)
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert loss_cdf(n, 0.3)[n // 2] > loss_cdf(n, 0.5)[n // 2]


def test_cdf_range_checks():
    with pytest.raises(ValueError):
        loss_cdf(5, 1.5)


def test_floor_stable_at_batch_10_000():
    # the module docstring claims batches up to 10^4 stay stable
    n = 10_000
    cdf = loss_cdf(n, 0.5)
    assert (np.diff(cdf) >= 0.0).all()
    # p = 1/2 is symmetric: P[L <= j] + P[L <= N-1-j] = 1
    assert np.max(np.abs(cdf[:n] + cdf[n - 1::-1] - 1.0)) < 1e-12
    q = q_distribution(TheoryParams.homogeneous(10, n, 0.5))
    assert (q >= 0.0).all()
    assert abs(q.sum() - 1.0) < 1e-12


def enumerate_q(m: int, n: int, p: float) -> list[float]:
    """Exact Q_j by summing over all 2^(M*N) loss patterns."""
    q = [0.0] * (n + 1)
    for bits in itertools.product((0, 1), repeat=m * n):
        weight = 1.0
        for b in bits:
            weight *= p if b else (1.0 - p)
        losses = [sum(bits[i * n:(i + 1) * n]) for i in range(m)]
        q[max(losses)] += weight
    return q


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [0.25, 0.5])
def test_q_matches_exhaustive_enumeration(m, n, p):
    params = TheoryParams.homogeneous(m, n, p)
    expected = enumerate_q(m, n, p)
    got = q_distribution(params)
    assert np.max(np.abs(got - np.array(expected))) < 1e-12
    assert abs(got.sum() - 1.0) < 1e-12


def test_single_receiver_q_is_binomial_pmf():
    n, p = 12, 0.3
    params = TheoryParams.homogeneous(1, n, p)
    q = q_distribution(params)
    for j in range(n + 1):
        pmf = math.comb(n, j) * p ** j * (1 - p) ** (n - j)
        assert abs(q[j] - pmf) < 1e-12


@pytest.mark.parametrize("rates", [
    ((0.0, 1), (0.2, 1), (0.5, 2), (1.0, 1)),
    ((0.0, 1), (0.2, 1), (0.5, 2), (0.7, 1)),
    ((0.5, 1), (0.2, 1), (0.5, 1), (0.7, 3)),  # 0.5 split across two pairs
])
def test_q_mixed_rates_against_exact_fractions(rates):
    n = 30
    joint = [math.prod(cdf_fraction_oracle(n, Fraction(p), j) ** count for p, count in rates)
             for j in range(n + 1)]
    exact = [joint[0]] + [b - a for a, b in zip(joint, joint[1:])]
    got = q_distribution(TheoryParams(n, rates))
    assert np.max(np.abs(got - np.array([float(x) for x in exact]))) < 1e-12


@pytest.mark.parametrize("p", [1e-6, 0.3])
def test_floor_and_baseline_at_the_receiver_cap(p):
    # at M = 10^6 the floor is sum_{j<N} (1 - P[L <= j]^M), and a packet is
    # repaired unless no receiver lost it: P[L <= 0]^M for a batch of one
    n, m = 50, MAX_RECEIVERS
    params = TheoryParams.homogeneous(m, n, p)
    assert params.receivers == m
    floor = math.fsum(1.0 - c ** m for c in loss_cdf(n, p)[:-1].tolist())
    assert expected_min_retx(params) == pytest.approx(floor, rel=1e-9)
    assert expected_baseline_retx(params) == pytest.approx(
        n * (1.0 - loss_cdf(1, p)[0] ** m), rel=1e-9)


@pytest.mark.parametrize("rates, message", [
    (((0.5, 3), (0.2, 0)), "loss probability 0.2 has receiver count 0"),
    (((0.5, MAX_RECEIVERS), (0.2, 1)),
     f"theory receiver count {MAX_RECEIVERS + 1} is above {MAX_RECEIVERS}"),
])
def test_rates_must_count_each_receiver_within_the_cap(rates, message):
    with pytest.raises(ValueError, match=message):
        TheoryParams(10, rates)


def test_counts_and_batch_must_be_integers():
    # a fractional count would read as 2.5 receivers; a fractional batch
    # would fail later, inside numpy
    for batch, rates in [(10, ((0.5, 2.5),)), (2.5, ((0.5, 2),))]:
        with pytest.raises(ValueError, match="theory batch and receiver counts must be integers"):
            TheoryParams(batch, rates)
    params = TheoryParams(np.int64(10), ((0.5, np.int64(3)),))
    assert params == TheoryParams(10, ((0.5, 3),))
    assert type(params.batch) is int and type(params.rates[0][1]) is int


def test_expected_min_trivial_cases():
    assert expected_min_retx(TheoryParams.homogeneous(4, 9, 0.0)) == 0.0
    single = TheoryParams.homogeneous(1, 40, 0.3)
    assert abs(expected_min_retx(single) - 40 * 0.3) < 1e-9


def test_expected_min_monotone_in_parameters():
    base = expected_min_retx(TheoryParams.homogeneous(4, 30, 0.4))
    assert expected_min_retx(TheoryParams.homogeneous(6, 30, 0.4)) >= base
    assert expected_min_retx(TheoryParams.homogeneous(4, 40, 0.4)) >= base
    assert expected_min_retx(TheoryParams.homogeneous(4, 30, 0.5)) >= base


def test_expected_min_against_monte_carlo():
    params = TheoryParams.homogeneous(6, 50, 0.4)
    counts = loss_counts(5, 6, 0.4, 50, 40_000)
    maxima = counts.max(axis=1)
    se = maxima.std() / math.sqrt(len(maxima))
    assert abs(expected_min_retx(params) - maxima.mean()) < 3 * se


def test_ratio_trivial_cases():
    assert theory_ratio(TheoryParams.homogeneous(5, 10, 0.0)) == 0.0
    # one receiver: minimum equals the baseline for any p > 0
    assert abs(theory_ratio(TheoryParams.homogeneous(1, 25, 0.3)) - 1.0) < 1e-12
    # certain loss: everyone misses everything, both sides need N
    assert abs(theory_ratio(TheoryParams.homogeneous(6, 25, 1.0)) - 1.0) < 1e-12


def test_ratio_is_a_lower_bound_fraction():
    params = TheoryParams.homogeneous(8, 100, 0.5)
    r = theory_ratio(params)
    assert 0.0 < r < 1.0
    assert abs(r * expected_baseline_retx(params) - expected_min_retx(params)) < 1e-9


def test_ratio_against_direct_monte_carlo():
    # E[max L] / E[packets lost anywhere] simulated at the headline grid point
    params = TheoryParams.homogeneous(10, 200, 0.5)
    rng = np.random.default_rng(99)
    max_losses = 0.0
    lost_columns = 0.0
    reps = 2000
    for _ in range(reps):
        cells = rng.random((10, 200)) < 0.5
        max_losses += cells.sum(axis=1).max()
        lost_columns += cells.any(axis=0).sum()
    estimate = max_losses / lost_columns
    assert abs(estimate - theory_ratio(params)) / theory_ratio(params) < 0.01


def test_q_never_negative():
    q = q_distribution(TheoryParams.homogeneous(7, 60, 0.35))
    assert (q >= 0.0).all()


def test_heterogeneous_rates_supported():
    params = TheoryParams(3, ((0.0, 1), (0.7, 1)))
    # max L is just the lossy receiver's binomial
    assert abs(expected_min_retx(params) - 3 * 0.7) < 1e-12
