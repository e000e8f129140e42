"""Bell combinatorics against brute-force set-partition oracles."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aseries.bell import (
    MAX_ORDER,
    bell_monomials,
    bell_value,
    enumerate_multi_indices,
    multi_index_coefficient,
)
from helpers import bell_number, bell_value_by_partitions, set_partitions

# brute-force partition counts of an n-element set, n = 0..10
BELL_ORACLE = [sum(1 for _ in set_partitions(range(n))) for n in range(11)]


def partition_type(partition, n, k):
    """Multiplicity vector (j_1 .. j_{n-k+1}) of a k-block partition."""
    sizes = Counter(len(block) for block in partition)
    return tuple(sizes.get(l, 0) for l in range(1, n - k + 2))


def test_pinned_enumeration():
    found = {idx.entries for idx in enumerate_multi_indices(4, 2)}
    assert found == {(0, 2, 0), (1, 0, 1)}


def test_enumeration_matches_partition_types():
    # J(n,k) is exactly the set of k-block partition types of an n-set,
    # and the monomial coefficient counts the partitions of each type.
    for n in range(1, 8):
        by_blocks = {}
        for part in set_partitions(range(n)):
            k = len(part)
            by_blocks.setdefault(k, Counter())[partition_type(part, n, k)] += 1
        for k in range(1, n + 1):
            indices = enumerate_multi_indices(n, k)
            assert len({i.entries for i in indices}) == len(indices)
            found = {i.entries: multi_index_coefficient(i) for i in indices}
            assert found == dict(by_blocks[k])


@given(st.integers(1, 10), st.integers(1, 10))
def test_multi_index_constraints(n, k):
    if k > n:
        with pytest.raises(ValueError):
            enumerate_multi_indices(n, k)
        return
    for idx in enumerate_multi_indices(n, k):
        assert len(idx.entries) == n - k + 1
        assert sum(idx.entries) == k
        assert sum(l * j for l, j in enumerate(idx.entries, start=1)) == n
        assert multi_index_coefficient(idx) > 0


def test_bell_numbers_brute_force():
    for n, expected in enumerate(BELL_ORACLE):
        assert bell_number(n) == expected
        assert bell_value(n, (1,) * n) == expected


def test_pinned_b4_monomials():
    found = {m.powers: m.coefficient for m in bell_monomials(4)}
    assert found == {
        (4, 0, 0, 0): 1,
        (2, 1, 0, 0): 6,
        (1, 0, 1, 0): 4,
        (0, 2, 0, 0): 3,
        (0, 0, 0, 1): 1,
    }


def test_pinned_values():
    assert bell_value(2, (3, 4)) == 13  # 3^2 + 4
    assert bell_value(0, ()) == 1
    assert bell_value(1, (5,)) == 5


@given(st.integers(1, 8), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_value_matches_partition_sum(n, seed):
    # integer inputs keep both evaluations exact in double precision
    xs = np.random.default_rng(seed).integers(-2, 3, size=n)
    assert bell_value(n, xs) == bell_value_by_partitions(n, xs)


@given(st.integers(0, 9), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_recurrence(n, seed):
    # B_{n+1}(x) = sum_k C(n,k) B_{n-k}(x) x_{k+1}
    xs = list(np.random.default_rng(seed).integers(-2, 3, size=n + 1))
    lhs = bell_value(n + 1, xs)
    rhs = sum(
        math.comb(n, k) * bell_value(n - k, xs[: n - k]) * xs[k]
        for k in range(n + 1)
    )
    assert lhs == rhs


def test_value_matches_monomials():
    rng = np.random.default_rng(3)
    for n in range(1, 9):
        xs = rng.uniform(-2, 2, size=n)
        direct = sum(
            m.coefficient * np.prod(xs**np.array(m.powers)) for m in bell_monomials(n)
        )
        assert bell_value(n, xs) == pytest.approx(direct, rel=1e-14)


def test_vectorized_evaluation():
    xs = [np.array([3.0, 1.0]), np.array([4.0, 2.0])]
    np.testing.assert_allclose(bell_value(2, xs), [13.0, 3.0])


def test_argument_validation():
    with pytest.raises(ValueError):
        enumerate_multi_indices(3, 0)
    with pytest.raises(ValueError):
        enumerate_multi_indices(MAX_ORDER + 1, 1)
    with pytest.raises(ValueError):
        bell_value(3, (1.0,))  # too few arguments


def test_monomials_built_once_and_immutable():
    first = bell_monomials(4)
    assert bell_monomials(4) is first
    with pytest.raises(TypeError):
        first[0] = first[1]
    with pytest.raises(AttributeError):
        first[0].coefficient = 2
    with pytest.raises(AttributeError):
        first.append(first[0])
