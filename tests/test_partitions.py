import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weakdis import (
    ConfigError,
    SetPartition,
    WeightDistribution,
    apply_MA,
    bell_number,
    chi_tilde,
    enumerate_partitions,
    moment_weight,
    partition_maps,
    permutation_count_check,
    poisson_factorial_moment,
    rng_for,
)

# independently derived via the binomial recurrence
# B_{n+1} = sum_k C(n,k) B_k before the enumeration code existed
BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570]


def test_bell_numbers_frozen_table():
    for n, expected in enumerate(BELL):
        assert bell_number(n) == expected


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_count_matches_bell(n):
    assert sum(1 for _ in enumerate_partitions(n)) == BELL[n]


def test_enumeration_small_cases():
    assert [p.blocks for p in enumerate_partitions(1)] == [((1,),)]
    two = {p.blocks for p in enumerate_partitions(2)}
    assert two == {((1,), (2,)), ((1, 2),)}


def test_partitions_are_canonical_and_distinct():
    seen = set()
    for p in enumerate_partitions(5):
        assert p.blocks == SetPartition(5, p.blocks).blocks
        # blocks sorted by minimum, elements sorted inside
        mins = [b[0] for b in p.blocks]
        assert mins == sorted(mins)
        for b in p.blocks:
            assert list(b) == sorted(b)
        seen.add(p.blocks)
    assert len(seen) == BELL[5]


def test_partition_covers_ground_set():
    for p in enumerate_partitions(4):
        flat = sorted(x for b in p.blocks for x in b)
        assert flat == [1, 2, 3, 4]


def test_partition_maps_example():
    A = SetPartition(10, ((1, 6), (2, 5), (3, 7, 9, 10), (4, 8)))
    maps = partition_maps(A)
    # J holds the block maxima; I the free (non-maximal) indices
    assert maps.J == frozenset({5, 6, 8, 10})
    assert maps.I == (1, 2, 3, 4, 7, 9)
    assert maps.block_of[9] == (3, 7, 9, 10)


def test_apply_MA_zero_block_sums():
    rng = rng_for(3, 0)
    for p in enumerate_partitions(6):
        free = partition_maps(p).I
        v = rng.standard_normal((len(free), 2))
        out = apply_MA(p, v)
        for b in p.blocks:
            for axis in range(2):
                assert math.fsum(out[j - 1][axis] for j in b) == pytest.approx(
                    0.0, abs=1e-12)


def test_apply_MA_exact_zero_on_integers():
    # integer inputs stay integers, so block sums vanish exactly
    for p in enumerate_partitions(5):
        free = partition_maps(p).I
        v = (np.arange(1, len(free) + 1, dtype=float) * 7.0).reshape(-1, 1)
        out = apply_MA(p, v)
        for b in p.blocks:
            assert math.fsum(out[j - 1][0] for j in b) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.data())
def test_partition_of_unity_property(n, data):
    labels = data.draw(st.tuples(*[st.integers(1, 4)] * n))
    total = sum(chi_tilde(p, labels) for p in enumerate_partitions(n))
    assert total == 1


def test_chi_tilde_examples():
    A = SetPartition(4, ((1, 2), (3, 4)))
    assert chi_tilde(A, (5, 5, 2, 2)) == 1
    assert chi_tilde(A, (5, 5, 5, 5)) == 0  # distinct across blocks fails
    assert chi_tilde(A, (5, 1, 2, 2)) == 0  # constant within block fails


@pytest.mark.parametrize("M", [1, 2, 3, 5])
def test_counting_identity_falling_factorial(M):
    for n in (1, 2, 3, 4):
        for p in enumerate_partitions(n):
            rep = permutation_count_check(p, M)
            assert rep.context["exact_equal"]


def test_rademacher_moments():
    d = WeightDistribution(kind="rademacher")
    assert [d.moment(k) for k in range(7)] == [1, 0, 1, 0, 1, 0, 1]


def test_centered_uniform_moments():
    # uniform on [-sqrt(3), sqrt(3)]: m_{2k} = 3^k/(2k+1), odd vanish
    d = WeightDistribution(kind="centered-uniform")
    assert d.moment(2) == pytest.approx(1.0)
    assert d.moment(4) == pytest.approx(9.0 / 5.0)
    assert d.moment(6) == pytest.approx(27.0 / 7.0)
    assert d.moment(3) == 0.0


def test_centered_uniform_samples_match_moments():
    d = WeightDistribution(kind="centered-uniform")
    x = d.sample(rng_for(1, 0), 200000)
    assert abs(x.mean()) < 0.01
    assert np.mean(x**2) == pytest.approx(1.0, abs=0.01)


def test_explicit_moments():
    d = WeightDistribution(kind="explicit-moments", moments=(0.0, 2.0, 1.0))
    assert d.moment(2) == 2.0
    assert d.moment(3) == 1.0
    with pytest.raises(ConfigError):
        d.moment(4)
    with pytest.raises(ConfigError):
        d.sample(rng_for(0, 0), 10)


def test_moment_weight_blocks():
    d = WeightDistribution(kind="rademacher")
    pairs = SetPartition(4, ((1, 2), (3, 4)))
    assert moment_weight(pairs, d) == 1.0
    with_singleton = SetPartition(3, ((1,), (2, 3)))
    assert moment_weight(with_singleton, d) == 0.0


@pytest.mark.parametrize("mean", [0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_poisson_factorial_moments(mean, k):
    assert poisson_factorial_moment(mean, k) == pytest.approx(
        mean**k, abs=1e-10, rel=1e-10)


def test_set_partition_validation():
    with pytest.raises(ConfigError):
        SetPartition(3, ((1, 2),))  # does not cover
    with pytest.raises(ConfigError):
        SetPartition(3, ((1, 2), (2, 3)))  # overlap
    with pytest.raises(ConfigError):
        SetPartition(2, ((0, 1, 2),))  # out of range


# explicit moments with nonzero odd moments and one vanishing moment (m_5)
TABLE_DISTS = [
    WeightDistribution(kind="rademacher"),
    WeightDistribution(kind="centered-uniform"),
    WeightDistribution(kind="explicit-moments",
                       moments=(0.5, 1.0, -0.25, 2.0, 0.0, 3.0, 0.125, 5.0)),
]


@pytest.mark.parametrize("dist", TABLE_DISTS, ids=lambda d: d.kind)
def test_live_partitions_equal_filtered_enumeration(dist):
    from weakdis.partitions import live_partitions

    for n in range(9):
        parts = ([SetPartition(n=0, blocks=())] if n == 0
                 else list(enumerate_partitions(n)))
        expected = [(A, moment_weight(A, dist), len(partition_maps(A).I),
                     len(A.blocks))
                    for A in parts if moment_weight(A, dist) != 0.0]
        assert [tuple(row) for row in live_partitions(n, dist)] == expected
