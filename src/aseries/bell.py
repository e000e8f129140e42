"""Complete exponential Bell polynomials and their multi-index sets.

The n-th complete exponential Bell polynomial is

    B_n(x_1, ..., x_n) = sum_{k=1}^{n} sum_{j in J(n, k)} n!/j! *
                         prod_{l=1}^{n-k+1} (x_l / l!)**j_l,

where J(n, k) collects the multi-indices j = (j_1, ..., j_{n-k+1}) with
nonnegative entries, sum(j_l) = k and sum(l*j_l) = n, and
j! = j_1! j_2! ... j_{n-k+1}!.  Each multi-index corresponds to a way of
partitioning an n-set into k blocks with j_l blocks of size l, so
B_n(1, ..., 1) is the n-th Bell number.

Evaluation is offered numerically (`bell_value`) and as an explicit
monomial list (`bell_monomials`) used for tensor contractions elsewhere.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

# 12! < 2**63; beyond order 12 the integer coefficients would not be safe
# in 64-bit arithmetic and A-series detection that deep is not practical.
MAX_ORDER = 12


class MultiIndex(NamedTuple):
    """Element j of J(n, k) together with the (n, k) it belongs to."""

    entries: tuple[int, ...]
    n: int
    k: int


class BellMonomial(NamedTuple):
    """One monomial of B_n: coefficient * prod_l x_l**powers[l-1].

    `powers` always has length n (exponent of x_l at position l-1).
    """

    coefficient: int
    powers: tuple[int, ...]


def _check_order(n: int) -> None:
    if n < 0:
        raise ValueError(f"order must be nonnegative, got {n}")
    if n > MAX_ORDER:
        raise ValueError(f"order {n} exceeds supported maximum {MAX_ORDER}")


@functools.cache
def enumerate_multi_indices(n: int, k: int) -> tuple[MultiIndex, ...]:
    """All j = (j_1, ..., j_{n-k+1}) with sum j_l = k and sum l*j_l = n.

    Returned in lexicographic order of the entry tuples, built once per
    (n, k) and shared: the result is an immutable tuple.

    >>> [m.entries for m in enumerate_multi_indices(4, 2)]
    [(0, 2, 0), (1, 0, 1)]
    >>> [m.entries for m in enumerate_multi_indices(3, 3)]
    [(3,)]
    """
    _check_order(n)
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    length = n - k + 1
    out: list[MultiIndex] = []

    def extend(prefix: list[int], count_left: int, weight_left: int) -> None:
        pos = len(prefix) + 1  # value of l for the entry chosen next
        if pos > length:
            if count_left == 0 and weight_left == 0:
                out.append(MultiIndex(tuple(prefix), n, k))
            return
        # j_pos cannot exceed what the remaining count or weight allows
        max_j = min(count_left, weight_left // pos)
        for j in range(max_j + 1):
            extend(prefix + [j], count_left - j, weight_left - pos * j)

    extend([], k, n)
    out.sort(key=lambda m: m.entries)
    return tuple(out)


@functools.cache
def multi_index_coefficient(index: MultiIndex) -> int:
    """Coefficient n!/(j! * prod_l (l!)**j_l) of the monomial for `index`."""
    num = math.factorial(index.n)
    den = 1
    for l, j in enumerate(index.entries, start=1):
        den *= math.factorial(j) * math.factorial(l) ** j
    coeff, rem = divmod(num, den)
    assert rem == 0
    return coeff


@functools.cache
def bell_monomials(n: int) -> tuple[BellMonomial, ...]:
    """Monomials of B_n with integer coefficients; n=0 gives (1 * (empty),).

    Built once per n and shared: the result is an immutable tuple.

    >>> sorted((m.coefficient, m.powers) for m in bell_monomials(3))
    [(1, (0, 0, 1)), (1, (3, 0, 0)), (3, (1, 1, 0))]
    """
    _check_order(n)
    if n == 0:
        return (BellMonomial(1, ()),)
    monomials: list[BellMonomial] = []
    for k in range(1, n + 1):
        for index in enumerate_multi_indices(n, k):
            powers = tuple(index.entries) + (0,) * (k - 1)
            monomials.append(
                BellMonomial(multi_index_coefficient(index), powers))
    monomials.sort(key=lambda m: m.powers, reverse=True)
    return tuple(monomials)


def bell_value(n: int, xs):
    """Evaluate B_n(x_1, ..., x_n) for numeric (or array-like) arguments.

    >>> bell_value(2, (3, 4))
    13
    >>> bell_value(5, (1, 1, 1, 1, 1))
    52
    """
    _check_order(n)
    xs = tuple(xs)
    if len(xs) != n:
        raise ValueError(f"expected {n} arguments, got {len(xs)}")
    if n == 0:
        return 1
    total = None
    for mono in bell_monomials(n):
        term = mono.coefficient
        for x, p in zip(xs, mono.powers):
            if p:
                term = term * x**p
        total = term if total is None else total + term
    return total
