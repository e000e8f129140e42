"""Levels 1-2 on the bordered G_u factorization, against the global matrix.

Every level-1/2 Newton matrix, tangent and rank check of the robust
10x10 and 15x15 hunts, and of a short fold line either way from their
folds, is recorded by wrappers and replayed through the block path and
through the oracles of `helpers`: the sp.bmat assembly of the whole
matrix, its SuperLU solve, a dense SVD, the rank check's Gram
operator on refined block solves and ARPACK's Lanczos.  The Woodbury
factor z of every block factor of the robust 10x10 hunt and of a
10 -> 20 ladder, levels 1-3, is checked against its every column
forward-solved.
"""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import svdvals

from aseries import augmented, continuation
from aseries.augmented import BlockJacobian, residual_jacobian
from aseries.continuation import (
    ContinuationError,
    ContinuationProblem,
    RankDeficientError,
    SingularJacobianError,
    _linear_solve,
    augmented_continuation_problem,
    tangent,
)
from aseries.harness import (
    MAX_NEWTON,
    NEWTON_TOL,
    HuntConfig,
    convergence_study,
    hunt_swallowtail,
    trace_line,
)
from aseries.poisson import ExpSineNonlinearity, Grid
from helpers import (
    all_column_z,
    arpack_largest,
    assembled_jacobian,
    dense_jacobian,
    dense_rank_check,
    refined_rank_check,
    refined_sigma_min,
    relative_error,
    superlu_solve,
    superlu_tangent,
)

ROBUST_CONFIG = HuntConfig(lam0=(0.0, 0.15, 2.0), lam2_direction=1,
                           lam3_direction=-1, stage3_window=(3.0, 0.25, 2.5))
#: Block against SuperLU solve, relative to the largest entry; both
#: paths met at most 1.1e-13 on the recorded matrices.
SOLVE_TOL = 1e-11
#: Largest entry of the difference of two unit tangents; measured 7e-15.
TANGENT_TOL = 1e-11
#: sigma_min from the block path's Lanczos against the dense SVD,
#: relative; measured 6.3e-13 (RANK_LANCZOS_TOL is 1e-10).
SIGMA_TOL = 1e-10
#: The rank check's Lanczos against ARPACK's on one operator, relative;
#: measured 2.2e-15 on the robust 10x10-30x30 hunts' checks.
LANCZOS_TOL = 1e-12
#: sigma_min from the single-pass and the refined Gram operators,
#: relative; measured 1.6e-15.
GRAM_TOL = 1e-13
#: A block factor's z against every column forward-solved, relative to
#: its largest entry; measured 0: the skipped solves are exact zeros and
#: SuperLU solves each column of a block alike.
Z_TOL = 1e-14
#: Steps of each extra fold line.  With one Newton iteration on most
#: steps the hunts alone record 72 Newton matrices and 35 tangents at
#: 10x10, and 81 and 38 at 15x15; the two lines add about 44 and 25.
FOLD_STEPS = 10


def _is_block(jac) -> bool:
    return isinstance(jac, BlockJacobian) and jac.vbar is None


@pytest.fixture(scope="module", params=[10, 15], ids=["10x10", "15x15"])
def recorded(request):
    """The level-1/2 Newton matrices, tangent calls and rank checks of
    the hunt and of FOLD_STEPS steps of its fold line either way from
    the fold, which keep the data above the floors of
    `test_every_level_is_recorded`.

    A rank check is (jac, null, factor, eigenvalues, Lanczos runs), the
    runs as (matvec, size) of every `_largest_eigenvalue` call in it.
    """
    newton, tangents, checks = [], [], []
    solve, tan = continuation._linear_solve, continuation.tangent
    check, largest = continuation._check_rank, continuation._largest_eigenvalue

    def recording_solve(mat, rhs):
        if _is_block(mat):
            newton.append(mat)
        return solve(mat, rhs)

    def recording_tangent(jac, previous=None, metric=None):
        found = tan(jac, previous, metric)
        if _is_block(jac):
            tangents.append((jac, previous, metric, found[0]))
        return found

    def recording_check(problem, jac, null=None, factor=None):
        checks.append((jac, null, factor, [], []))
        return check(problem, jac, null, factor)

    def recording_largest(matvec, size):
        value = largest(matvec, size)
        checks[-1][3].append(value)
        checks[-1][4].append((matvec, size))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "_linear_solve", recording_solve)
        mp.setattr(continuation, "tangent", recording_tangent)
        mp.setattr(continuation, "_check_rank", recording_check)
        mp.setattr(continuation, "_largest_eigenvalue", recording_largest)
        report = hunt_swallowtail(ExpSineNonlinearity(),
                                  Grid(request.param, request.param),
                                  ROBUST_CONFIG)
        assert report.stage_reached == "swallowtail"
        for _, _, run in trace_line(report.located("fold").state, 1,
                                    (1.0, -1.0), lambda z: True, 0.05, 0.1,
                                    FOLD_STEPS, NEWTON_TOL, MAX_NEWTON,
                                    stop=False):
            assert not isinstance(run, ContinuationError), run
    return report, newton, tangents, checks


def test_every_level_is_recorded(recorded):
    report, newton, tangents, checks = recorded
    shapes = {jac.shape for jac in newton}
    n = report.chain[0].state.problem.grid.size
    # locate's square fold and cusp systems and the bordered lines
    assert {(2 * n + 1,) * 2, (2 * n + 2,) * 2, (2 * n + 3,) * 2} <= shapes
    assert len(newton) > 100 and len(tangents) > 40
    assert sum(_is_block(check[0]) for check in checks) == len(tangents)


def test_newton_solves_match_superlu(recorded):
    _, newton, _, _ = recorded
    rng = np.random.default_rng(0)
    for jac in newton:
        factor, whole = jac.factor(), assembled_jacobian(jac)
        rhs = rng.standard_normal(jac.shape[0])
        for trans in ("N", "T"):
            assert relative_error(factor.solve(rhs, trans),
                                  superlu_solve(whole, rhs, trans)) < SOLVE_TOL
        # the Newton step itself goes through the same factor
        assert relative_error(_linear_solve(jac, rhs),
                              superlu_solve(whole, rhs)) < SOLVE_TOL


def test_tangents_match_superlu(recorded):
    _, _, tangents, _ = recorded
    for jac, previous, metric, found in tangents:
        expected = superlu_tangent(jac, previous, metric)
        assert np.max(np.abs(found - expected)) < TANGENT_TOL


def test_tangents_are_metric_unit_and_oriented(recorded):
    report, _, tangents, _ = recorded
    problem = report.chain[0].state.problem
    n = problem.grid.size
    for jac, previous, metric, found in tangents:
        # the lines' metric: u and alpha by area, lam by 1, so 1.0
        # throughout on the 10x10 grid
        weight = problem.weight / continuation.REFERENCE_AREA
        assert np.all(metric[: 2 * n] == weight)
        assert np.all(metric[2 * n:] == 1.0)
        assert (weight == 1.0) == (n == 100)
        assert abs(found @ (metric * found) - 1.0) < 1e-13
        assert (metric * previous) @ found > 0.0


def test_rank_verdicts_match_the_euclidean_tangent(recorded, monkeypatch):
    # each check gets the Euclidean unit null vector with the factor
    # that the M-unit tangent came from; a factor bordered by that unit
    # vector itself gives the same sigma_min and verdict
    values, largest = [], continuation._largest_eigenvalue

    def recording(matvec, size):
        values.append(largest(matvec, size))
        return values[-1]

    monkeypatch.setattr(continuation, "_largest_eigenvalue", recording)
    probe = ContinuationProblem(lambda z: None)
    for jac, null, factor, found, _ in recorded[3]:
        if not _is_block(jac):
            continue
        assert abs(np.linalg.norm(null) - 1.0) < 1e-14
        euclidean, other = tangent(jac, null)
        assert np.max(np.abs(euclidean - null)) < TANGENT_TOL
        values.clear()
        continuation._check_rank(probe, jac, euclidean, other)
        assert len(values) == len(found) == 1
        sigma, expected = 1.0 / np.sqrt(np.abs([values[0], found[0]]))
        assert abs(sigma - expected) < SIGMA_TOL * expected


def test_rank_verdicts_match_dense_svd(recorded):
    probe = ContinuationProblem(lambda z: None)
    for jac, null, factor, values, _ in recorded[3]:
        if not _is_block(jac):
            continue
        whole = assembled_jacobian(jac)
        dense_rank_check(whole)  # every recorded point is regular
        continuation._check_rank(probe, jac, null, factor)
        # the norm bound decided each check: one Lanczos run, sigma_min's,
        # on the Gram operator of single-pass solves; the refined
        # operator gives the same sigma_min
        assert len(values) == 1
        sigma = svdvals(whole.toarray())[-1]
        single = 1.0 / np.sqrt(abs(values[0]))
        refined, _ = refined_sigma_min(jac, null, factor)
        assert abs(single - sigma) < SIGMA_TOL * sigma
        assert abs(refined - sigma) < SIGMA_TOL * sigma
        assert abs(single - refined) < GRAM_TOL * refined


def test_gram_application_solves_four_times(recorded, monkeypatch):
    # one Woodbury pass forward and one back, each two solves with B
    calls, solve = [], augmented.BorderedGu.solve

    def counted(self, rhs, trans="N"):
        calls.append(trans)
        return solve(self, rhs, trans)

    monkeypatch.setattr(augmented.BorderedGu, "solve", counted)
    rng = np.random.default_rng(0)
    for jac, *_, runs in recorded[3]:
        if not _is_block(jac):
            continue
        matvec, size = runs[0]
        calls.clear()
        matvec(rng.standard_normal(size))
        assert calls == ["N", "N", "T", "T"]


def test_sigma_max_fallback_from_blocks(recorded, monkeypatch):
    # rank_tol just above and just below sigma_min / sigma_max forces
    # the sigma_max run on J^T J from the blocks; the verdicts and the
    # threshold match the dense SVD, and so do the bound's norms
    runs = []
    largest = continuation._largest_eigenvalue

    def counted(matvec, size):
        # both runs, sigma_min's and sigma_max's, give ARPACK's value
        runs.append(size)
        value = largest(matvec, size)
        expected = arpack_largest(matvec, size)
        assert abs(value - expected) < LANCZOS_TOL * abs(expected)
        return value

    monkeypatch.setattr(continuation, "_largest_eigenvalue", counted)
    blocks = [c[:3] for c in recorded[3] if _is_block(c[0])]
    for jac, null, factor in blocks[:: len(blocks) // 4]:
        dense = assembled_jacobian(jac).toarray()
        assert np.allclose(jac.norms(), (np.abs(dense).sum(axis=0).max(),
                                         np.abs(dense).sum(axis=1).max()),
                           rtol=1e-13, atol=0.0)
        sing = svdvals(dense)
        for factor_tol, rejected in ((1.001, True), (0.999, False)):
            rank_tol = factor_tol * sing[-1] / sing[0]
            probe = ContinuationProblem(lambda z: None, rank_tol=rank_tol)
            runs.clear()
            try:
                continuation._check_rank(probe, jac, null, factor)
            except RankDeficientError as err:
                assert rejected
                threshold = float(str(err).split("threshold ")[1].split()[0])
                assert threshold == pytest.approx(rank_tol * sing[0],
                                                  rel=1e-3)
            else:
                assert not rejected
            assert len(runs) == 2


@pytest.mark.parametrize("heavy", ["gu", "d", "cols-u", "cols-alpha",
                                   "rows"])
def test_norms_and_transposed_products_match_dense(heavy):
    # a random level-2 block Jacobian on the continuation shape, with
    # one block scaled up so that it decides the norms
    rng = np.random.default_rng(len(heavy))
    n = 6
    parts = dict(gu=rng.standard_normal((n, n)), d=rng.standard_normal(n),
                 a=rng.standard_normal(n), cols=rng.standard_normal((2 * n, 3)),
                 rows=rng.standard_normal((2, 2 * n + 3)))
    if heavy == "cols-u":
        parts["cols"][:n] *= 100.0
    elif heavy == "cols-alpha":
        parts["cols"][n:] *= 100.0
    else:
        parts[heavy] = 100.0 * parts[heavy]
    jac = BlockJacobian(**dict(parts, gu=sp.csr_matrix(parts["gu"])))
    dense = dense_jacobian(jac)
    # exact up to the order of summation
    assert np.allclose(jac.norms(), (np.abs(dense).sum(axis=0).max(),
                                     np.abs(dense).sum(axis=1).max()),
                       rtol=1e-14, atol=0.0)
    y = rng.standard_normal(jac.shape[0])
    assert relative_error(jac.rmatvec(y), dense.T @ y) < 1e-13
    square = jac.bordered(rng.standard_normal(jac.shape[1]))
    rhs = rng.standard_normal(square.shape[0])
    assert relative_error(square.factor().solve(rhs, "T"),
                          np.linalg.solve(dense_jacobian(square).T, rhs)) < 1e-10


def test_lanczos_matches_arpack(recorded):
    # every run of every recorded check: the value the unrestarted
    # Lanczos gave in the hunt is ARPACK's on the same operator
    compared = 0
    for *_, values, runs in recorded[3]:
        for value, (matvec, size) in zip(values, runs):
            expected = arpack_largest(matvec, size)
            assert abs(value - expected) < LANCZOS_TOL * abs(expected)
            compared += 1
    assert compared >= len(recorded[3]) > 40


@pytest.mark.parametrize("size", [2, 3, 4, 5])
def test_lanczos_on_small_operators(size):
    # a run ends by the operator's size at the latest
    diag = np.arange(1.0, size + 1.0)
    assert continuation._largest_eigenvalue(lambda x: diag * x, size) == \
        pytest.approx(size, rel=1e-12)


def test_lanczos_takes_the_largest_magnitude():
    # eigsh's which="LM": a negative eigenvalue larger in magnitude wins
    diag = np.array([-10.0, 1.0, 2.0])
    assert continuation._largest_eigenvalue(lambda x: diag * x, 3) == \
        pytest.approx(-10.0, rel=1e-12)


def test_lanczos_breakdown_is_exact():
    # a multiple of the identity: the first vector spans an invariant
    # subspace, and one application gives the eigenvalue up to rounding
    applications = []

    def scaled(x):
        applications.append(x)
        return 3.0 * x

    assert continuation._largest_eigenvalue(scaled, 50) == \
        pytest.approx(3.0, rel=1e-15)
    assert len(applications) == 1


def test_lanczos_basis_grows_with_the_run():
    # the basis holds about the vectors a run made, never size x size:
    # 29 applications on R^20000 peak near 68 vectors, not 20000
    size = 20_000
    diag = np.linspace(0.0, 1.0, size)
    diag[-1] = 1.3
    applications = []

    def scaled(x):
        applications.append(1)
        return diag * x

    tracemalloc.start()
    try:
        value = continuation._largest_eigenvalue(scaled, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1.3, rel=1e-12)
    assert len(applications) > 16  # past the first allocation
    assert peak < 4 * len(applications) * size * 8


def _repeated_g_row(jac):
    # G row 1 := G row 0, over the u and lam columns
    gu = jac.gu.tolil()
    gu[1] = gu[0]
    cols = jac.cols.copy()
    cols[1] = cols[0]
    # the new G_u is not its Linearization's, so it has none
    return replace(jac, gu=gu.tocsr(), cols=cols, lin=None)


def _zeroed_lam_column(jac):
    n = jac.a.size
    cols, rows = jac.cols.copy(), jac.rows.copy()
    cols[:, 0] = 0.0
    rows[:, 2 * n] = 0.0
    return replace(jac, cols=cols, rows=rows)


@pytest.mark.parametrize("make_singular", [_repeated_g_row,
                                           _zeroed_lam_column],
                         ids=["repeated-G-row", "zeroed-lam-column"])
@pytest.mark.parametrize("level", [1, 2])
def test_singular_square_systems_rejected_by_both(recorded, make_singular,
                                                  level):
    # locate's square fold and cusp systems at the hunt's cusp
    cusp = next(p.state for p in recorded[0].chain if p.kind == "cusp")
    state = replace(cusp, level=level, active=tuple(range(level)))
    jac = make_singular(residual_jacobian(state)[1])
    rhs = np.ones(jac.shape[0])
    with pytest.raises(SingularJacobianError):
        superlu_solve(assembled_jacobian(jac), rhs)
    with pytest.raises(SingularJacobianError, match="singular"):
        _linear_solve(jac, rhs)


@pytest.mark.parametrize("level", [1, 2])
def test_rank_deficient_lines_rejected_by_both(recorded, level):
    # a repeated G row on the fold and cusp lines through the hunt's
    # cusp: the tangent or the rank check after it rejects the point
    cusp = next(p.state for p in recorded[0].chain if p.kind == "cusp")
    state = replace(cusp, level=level, active=tuple(range(level + 1)))
    jac = _repeated_g_row(residual_jacobian(state)[1])
    with pytest.raises(RankDeficientError):
        dense_rank_check(assembled_jacobian(jac))
    with pytest.raises(RankDeficientError):
        superlu_tangent(jac)
    # with the Euclidean tangent, and with the line's metric as `step`
    # takes it
    for metric in (None, augmented_continuation_problem(state).metric):
        with pytest.raises(RankDeficientError):
            null, factor = tangent(jac, metric=metric)
            continuation._check_rank(ContinuationProblem(lambda z: None),
                                     jac, null / np.linalg.norm(null),
                                     factor)


@pytest.mark.parametrize("make_singular", [_repeated_g_row,
                                           _zeroed_lam_column],
                         ids=["repeated-G-row", "zeroed-lam-column"])
@pytest.mark.parametrize("level", [1, 2])
def test_singular_lines_rejected_by_single_pass_and_refined(
        recorded, make_singular, level):
    # the fold line at the hunt's cusp and the cusp line at its
    # swallowtail, where the line's tangent has no lam component: a
    # repeated G row, or a zeroed lam column (its unit vector joins the
    # kernel), leaves J rank deficient.  Bordered by the line's tangent,
    # as a step borders, the tangent accepts the nearly singular matrix,
    # and the Gram operators on single-pass and on refined solves both
    # reject it
    at = recorded[0].located("cusp" if level == 1 else "swallowtail").state
    state = replace(at, level=level, vbar=None,
                    active=tuple(range(level + 1)))
    line = residual_jacobian(state)[1]
    jac = make_singular(line)
    with pytest.raises(RankDeficientError):
        dense_rank_check(jac)
    null, factor = tangent(jac, tangent(line)[0])
    null /= np.linalg.norm(null)
    with pytest.raises(RankDeficientError):
        continuation._check_rank(ContinuationProblem(lambda z: None), jac,
                                 null, factor)
    with pytest.raises(RankDeficientError):
        refined_rank_check(jac, null, factor)


def test_block_factors_solve_only_the_unknown_columns(monkeypatch):
    # every block factor of the robust 10x10 hunt and of the ladder it
    # seeds to 20x20 keeps the z of the all-column forward solve
    errors = {}

    class CheckedBlockFactor(augmented.BlockFactor):
        def __init__(self, jac, strict=True):
            super().__init__(jac, strict)
            expected = all_column_z(self)
            errors.setdefault(len(jac.lin.f) - 2, []).append(
                np.max(np.abs(self.z - expected))
                / np.max(np.abs(expected)))

    monkeypatch.setattr(augmented, "BlockFactor", CheckedBlockFactor)
    nl = ExpSineNonlinearity()
    report = hunt_swallowtail(nl, Grid(10, 10), ROBUST_CONFIG)
    assert report.stage_reached == "swallowtail"
    table = convergence_study(nl, (10, 15, 20), report.swallowtail.state)
    assert [row.n for row in table.rows] == [10, 15, 20]
    assert {1, 2, 3} <= set(errors)
    worst = max(max(found) for found in errors.values())
    assert worst <= Z_TOL
