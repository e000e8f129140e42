"""The nested-dissection factor of every grid matrix, against oracles.

Every grid factorization (the level-0 [J; t^T] and BorderedGu) runs in
one nested-dissection order of the grid's points with the border last.
Here the order is checked to be a permutation, the permuted solves
against SuperLU in its default order (`helpers.superlu_solve`), the
signature read from the level-0 factor against a dense slogdet, all on
G_u shifted across Laplacian eigenvalue crossings and at a refined
fold, and the permutation parity against an inversion count.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from aseries.augmented import (
    AugmentedState,
    BorderedGu,
    Linearization,
    Ordering,
    Problem,
    _permutation_parity,
    bordered_csr,
    residual_jacobian,
)
from aseries.continuation import (
    _SparseJacobian,
    augmented_continuation_problem,
    initial_point,
    run_branch,
)
from aseries.poisson import ExpSineNonlinearity, Grid, nested_dissection
from helpers import (
    dense_det_sign,
    relative_error,
    superlu_solve,
    tangent_signature,
)

#: Relative agreement of the ordered solves with the default-order oracle.
SOLVE_TOL = 1e-12
#: A rectangular grid: its Laplacian eigenvalues are simple, so each
#: crossing flips the sign of det G_u.
GRID = Grid(9, 6)


def inversion_parity(perm) -> int:
    """Sign of a permutation by brute-force inversion count."""
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def shifted_gus(problem, crossings: int = 3):
    """G_u = L + sigma I on both sides of the first `crossings`
    eigenvalues -mu of L, a quarter of the gap from each: (gu, side)."""
    mu = np.sort(-np.linalg.eigvalsh(problem.lap.toarray()))[:crossings + 1]
    for k in range(crossings):
        gap = min(mu[k + 1] - mu[k], mu[k] - (mu[k - 1] if k else 0.0))
        for side in (-1, 1):
            sigma = mu[k] + side * 0.25 * gap
            yield problem.gu(np.full(problem.grid.size, sigma)), side


@pytest.fixture(scope="module")
def problem():
    return Problem(GRID, ExpSineNonlinearity())


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (7, 1), (6, 9), (30, 30)])
def test_order_is_a_permutation(shape):
    grid = Grid(*shape)
    order = nested_dissection(grid)
    assert np.array_equal(np.sort(order), np.arange(grid.size))
    problem = Problem(grid, ExpSineNonlinearity())
    assert np.array_equal(problem.bordered_order.perm,
                          np.append(order, grid.size))


def test_separators_come_last():
    # 9 points in a row: one cut at the middle point, which comes last;
    # 8 points stay one box
    assert list(nested_dissection(Grid(9, 1))) == [0, 1, 2, 3, 5, 6, 7, 8, 4]
    assert list(nested_dissection(Grid(1, 8))) == list(range(8))


def test_pinned_order_of_a_small_grid():
    # 7 x 5: the column x = 3 comes last; the left 3 x 5 box is cut at
    # the row y = 2, and so is the right one
    assert nested_dissection(Grid(7, 5)).tolist() == [
        0, 1, 2, 7, 8, 9, 21, 22, 23, 28, 29, 30, 14, 15, 16,
        4, 5, 6, 11, 12, 13, 25, 26, 27, 32, 33, 34, 18, 19, 20,
        3, 10, 17, 24, 31]


def test_problem_builds_no_order_until_used(problem):
    fresh = Problem(Grid(5, 5), ExpSineNonlinearity())
    assert not {"lap", "bordered_order"} & set(vars(fresh))
    fresh.bordered_order
    assert {"lap", "bordered_order"} <= set(vars(fresh))


def test_bordered_layout_and_permutation(problem):
    rng = np.random.default_rng(3)
    n = GRID.size
    gu = problem.gu(rng.standard_normal(n))
    cols, rows = rng.standard_normal((n, 1)), rng.standard_normal((1, n + 1))
    mat = bordered_csr(gu, cols, rows)
    dense = np.block([[gu.toarray(), cols], [rows]])
    assert np.array_equal(mat.toarray(), dense)
    perm = problem.bordered_order.perm
    assert np.array_equal(problem.bordered_order.permute(mat).toarray(),
                          dense[np.ix_(perm, perm)])
    # a zero in cols or rows stays stored, so the pattern does not move
    cols[3] = rows[0, 5] = 0.0
    assert bordered_csr(gu, cols, rows).nnz == mat.nnz


def test_permute_rejects_another_pattern(problem):
    other = sp.csr_matrix(np.ones((GRID.size + 1, GRID.size + 1)))
    with pytest.raises(ValueError, match="pattern"):
        problem.bordered_order.permute(other)


def test_identity_order_of_a_plain_matrix():
    mat = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 4.0]]))
    order = Ordering.of(mat)
    assert np.array_equal(order.perm, [0, 1])
    assert np.array_equal(order.permute(mat).toarray(), mat.toarray())


@pytest.mark.parametrize("trans", ["N", "T"])
def test_level0_solves_across_crossings(problem, trans):
    rng = np.random.default_rng(5)
    n = GRID.size
    for gu, _ in shifted_gus(problem):
        jac = bordered_csr(gu, rng.standard_normal((n, 1)))
        row = rng.standard_normal(n + 1)
        lu = _SparseJacobian(jac, problem.bordered_order).bordered(
            row).factor()
        whole = sp.vstack([jac, sp.csr_matrix(row)])
        for rhs in (rng.standard_normal(n + 1),
                    rng.standard_normal((n + 1, 3))):
            assert relative_error(lu.solve(rhs, trans),
                                  superlu_solve(whole, rhs, trans)) < SOLVE_TOL


@pytest.mark.parametrize("trans", ["N", "T"])
def test_bordered_gu_solves_across_crossings(problem, trans):
    rng = np.random.default_rng(6)
    n = GRID.size
    for gu, _ in shifted_gus(problem):
        factor = BorderedGu(gu, rng.standard_normal(n),
                            problem.bordered_order)
        regular = gu + sp.csr_matrix(np.outer(factor.k, factor.k))
        rhs = rng.standard_normal((n, 2))
        assert relative_error(factor.solve(rhs, trans),
                              superlu_solve(regular, rhs, trans)) < SOLVE_TOL


def test_signature_sign_across_crossings(problem):
    signs = []
    for seed, (gu, side) in enumerate(shifted_gus(problem)):
        expected = dense_det_sign(gu)
        assert tangent_signature(gu, seed, problem.bordered_order) == expected
        assert tangent_signature(gu, seed) == expected  # the plain order too
        signs.append(expected)
    # each crossing flips the sign once
    assert signs == [1, -1, -1, 1, 1, -1]


@pytest.fixture(scope="module")
def fold():
    """The refined fold of the 10 x 10 Bratu solution branch."""
    grid = Grid(10, 10)
    template = AugmentedState(Problem(grid, ExpSineNonlinearity()), 0,
                              np.zeros(grid.size), np.zeros(3), active=(0,))
    wrapper = augmented_continuation_problem(template)
    run = run_branch(wrapper, initial_point(wrapper, template.pack()),
                     ds0=0.2, max_steps=120, stop_at=("fold",))
    event = run.events[0]
    assert event.kind == "fold" and not event.approximate
    return template, event.point


def test_level0_solve_at_the_fold(fold):
    template, point = fold
    assert abs(point.tangent[-1]) < 1e-6  # t_lam vanishes at the fold
    state = template.with_vector(point.z)
    jac = residual_jacobian(state)[1]
    lu = _SparseJacobian(jac, state.problem.bordered_order).bordered(
        point.tangent).factor()
    whole = sp.vstack([jac, sp.csr_matrix(point.tangent)])
    rng = np.random.default_rng(8)
    for trans in ("N", "T"):
        rhs = rng.standard_normal((jac.shape[1], 2))
        assert relative_error(lu.solve(rhs, trans),
                              superlu_solve(whole, rhs, trans)) < SOLVE_TOL


def test_bordered_gu_solve_at_the_fold(fold):
    template, point = fold
    state = template.with_vector(point.z)
    gu = Linearization(state, 1).gu
    eigenvalues, vectors = np.linalg.eigh(gu.toarray())
    nearest = np.argmin(np.abs(eigenvalues))
    # G_u is singular at the fold, to the refinement's tolerance
    assert abs(eigenvalues[nearest]) < 1e-3 * np.max(np.abs(eigenvalues))
    factor = BorderedGu(gu, vectors[:, nearest],
                        state.problem.bordered_order)
    regular = gu + sp.csr_matrix(np.outer(factor.k, factor.k))
    rhs = np.random.default_rng(9).standard_normal((gu.shape[0], 3))
    for trans in ("N", "T"):
        assert relative_error(factor.solve(rhs, trans),
                              superlu_solve(regular, rhs, trans)) < SOLVE_TOL


@pytest.mark.parametrize("perm", [[], [0], [1, 0], [0, 1, 2, 3],
                                  [0, 3, 2, 1, 4]], ids=str)
def test_parity_of_small_permutations(perm):
    assert _permutation_parity(np.array(perm, dtype=int)) == \
        inversion_parity(perm)


def test_parity_of_random_permutations():
    rng = np.random.default_rng(11)
    for size in (2, 3, 7, 30, 64):
        for _ in range(20):
            perm = rng.permutation(size)
            assert _permutation_parity(perm) == inversion_parity(perm)
