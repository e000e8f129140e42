"""The nested-dissection factor of every grid matrix, against oracles.

Every grid factorization (the level-0 [J; t^T] and BorderedGu) runs in
one nested-dissection order of the grid's points with the border last,
its input gathered from G_u and the border (`BorderedOrder.gather`).
Here the order is checked to be a permutation, the gathered matrix bit
for bit against the bordered CSR built whole and permuted
(`helpers.permuted_bordered`), the permuted solves against SuperLU in
its default order (`helpers.superlu_solve`), the signature read from
the level-0 factor against a dense slogdet, all on G_u shifted across
Laplacian eigenvalue crossings and at a refined fold, and the
permutation parity against an inversion count.
"""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp

from aseries.augmented import (
    AugmentedState,
    BorderedGu,
    BorderedOrder,
    Linearization,
    Problem,
    SolutionJacobian,
    _permutation_parity,
    residual_jacobian,
)
from aseries.continuation import (
    _factor,
    augmented_continuation_problem,
    bordered_csr,
    initial_point,
    run_branch,
)
from aseries.poisson import ExpSineNonlinearity, Grid, nested_dissection
from helpers import (
    Ordering,
    dense_det_sign,
    dense_jacobian,
    permuted_bordered,
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
    expected = dense[np.ix_(perm, perm)]
    assert np.array_equal(permuted_bordered(gu, cols, rows, perm).toarray(),
                          expected)
    assert np.array_equal(problem.bordered_order.gather(
        gu, cols[:, 0], rows[0]).toarray(), expected)
    # a zero in cols or rows stays stored, so the pattern does not move
    cols[3] = rows[0, 5] = 0.0
    assert bordered_csr(gu, cols, rows).nnz == mat.nnz
    assert problem.bordered_order.gather(gu, cols[:, 0], rows[0]).nnz == \
        mat.nnz


def assert_same_csc(found, expected):
    """Equal CSC matrices bit for bit: pattern, stored zeros and data."""
    for part in ("indptr", "indices", "data"):
        mine, theirs = getattr(found, part), getattr(expected, part)
        assert mine.dtype == theirs.dtype and np.array_equal(mine, theirs)
    assert found.shape == expected.shape


@pytest.mark.parametrize("kind", ["level-0", "bordered-gu"])
@pytest.mark.parametrize("shape", [(9, 6), (4, 11), (1, 7)], ids=str)
def test_gather_matches_the_oracle_bit_for_bit(kind, shape):
    # rectangular grids (nx != ny), both border kinds: [G_u, g; t^T] and
    # [G_u, k; k^T, -1], and zeros stored in the border
    grid = Grid(*shape)
    problem = Problem(grid, ExpSineNonlinearity())
    n, rng = grid.size, np.random.default_rng(sum(shape))
    order = problem.bordered_order
    for zeros in (False, True):
        gu = problem.gu(rng.standard_normal(n))
        if kind == "level-0":
            col, row = rng.standard_normal(n), rng.standard_normal(n + 1)
        else:
            col = rng.standard_normal(n)
            row = np.append(col, -1.0)
        if zeros:
            col[0] = row[n // 2] = row[-1] = 0.0
        assert_same_csc(order.gather(gu, col, row),
                        permuted_bordered(gu, col, row, order.perm))


def test_permute_rejects_another_pattern(problem):
    n = GRID.size
    other = sp.csr_matrix(np.ones((n + 1, n + 1)))
    with pytest.raises(ValueError, match="pattern"):
        Ordering.of(bordered_csr(problem.lap, np.ones((n, 1)),
                                 np.ones(n + 1))).permute(other)
    # a G_u off the Laplacian's pattern is refused by the gather too
    full = sp.csr_matrix(np.ones((n, n)))
    with pytest.raises(ValueError, match="pattern"):
        problem.bordered_order.gather(full, np.ones(n), np.ones(n + 1))
    lap = problem.lap.copy()
    lap.indices = lap.indices[::-1].copy()
    with pytest.raises(ValueError, match="pattern"):
        problem.bordered_order.gather(lap, np.ones(n), np.ones(n + 1))


def test_identity_order_of_a_plain_matrix():
    mat = sp.csr_matrix(np.array([[0.0, 2.0], [3.0, 4.0]]))
    order = BorderedOrder.of(mat)
    assert np.array_equal(order.perm, [0, 1, 2])
    col, row = np.array([5.0, 0.0]), np.array([6.0, 7.0, 8.0])
    assert np.array_equal(order.gather(mat, col, row).toarray(),
                          [[0.0, 2.0, 5.0], [3.0, 4.0, 0.0], row])
    assert_same_csc(order.gather(mat, col, row),
                    permuted_bordered(mat, col, row))
    oracle = Ordering.of(mat)
    assert np.array_equal(oracle.perm, [0, 1])
    assert np.array_equal(oracle.permute(mat).toarray(), mat.toarray())


@pytest.mark.parametrize("trans", ["N", "T"])
def test_level0_solves_across_crossings(problem, trans):
    rng = np.random.default_rng(5)
    n = GRID.size
    for gu, _ in shifted_gus(problem):
        jac = SolutionJacobian(gu, rng.standard_normal((n, 1)), problem)
        row = rng.standard_normal(n + 1)
        lu = _factor(jac.bordered(row), strict=True)
        whole = sp.csr_matrix(dense_jacobian(jac.bordered(row)))
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
        assert tangent_signature(gu, seed, problem) == expected
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
    assert isinstance(jac, SolutionJacobian)
    lu = _factor(jac.bordered(point.tangent), strict=True)
    whole = sp.csr_matrix(dense_jacobian(jac.bordered(point.tangent)))
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
