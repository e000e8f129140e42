"""Augmented fold/cusp/swallowtail systems: residuals, Jacobians, monitors."""

import numpy as np
import pytest
import scipy.sparse as sp

from aseries.augmented import (
    AugmentedState,
    MonitorRecord,
    Problem,
    RankOneUpdate,
    SingularAuxiliaryError,
    butterfly_monitor,
    cusp_monitor,
    evaluate_monitors,
    f1_residual_jacobian,
    f2_residual_jacobian,
    f3_residual_jacobian,
    flag_blowup,
    rank_one_solve,
    residual_jacobian,
    solution_signature,
    solve_v,
    swallowtail_monitor,
)
from aseries.classifier import DEGENERATE, Tolerances, closed_form_tests
from aseries.continuation import SingularJacobianError, _linear_solve
from aseries.poisson import (
    ExpSineNonlinearity,
    Grid,
    PolynomialNonlinearity,
    build_laplacian,
    laplacian_eigenvalue,
    laplacian_eigenvector,
    poisson_oracle,
)

from helpers import dense_newton_step, fd_jacobian, relative_error


def unit_problem(nl=None):
    return Problem(Grid(1, 1), nl or PolynomialNonlinearity())


def eigen_fold_state(grid, nl, lam2=0.0, lam3=0.0, level=1, active=(0,)):
    """Zero solution at the first eigenvalue; alpha is the exact kernel."""
    prob = Problem(grid, nl)
    lam = np.array([-laplacian_eigenvalue(grid), lam2, lam3])
    a = laplacian_eigenvector(grid)
    a = a / np.sqrt(grid.cell_area * (a @ a))
    return AugmentedState(prob, level, np.zeros(grid.size), lam,
                          alpha=a, active=active)


def random_state(prob, level, active, rng):
    n = prob.grid.size
    lam = np.array([rng.uniform(2.0, 9.0), rng.uniform(-0.6, 0.6),
                    rng.uniform(-0.6, 0.6)])
    return AugmentedState(
        prob, level, rng.uniform(-0.3, 0.3, n), lam,
        alpha=rng.standard_normal(n) if level >= 1 else None,
        vbar=rng.standard_normal(n) if level >= 3 else None,
        active=active,
    )


class TestStateLayout:
    def test_sizes_by_level(self):
        prob = Problem(Grid(3, 2), PolynomialNonlinearity())
        n = 6
        rng = np.random.default_rng(0)
        sizes = {0: n, 1: 2 * n + 1, 2: 2 * n + 2, 3: 3 * n + 3}
        dims = {0: n + 1, 1: 2 * n + 1, 2: 2 * n + 2, 3: 3 * n + 3}
        actives = {0: (0,), 1: (0,), 2: (0, 1), 3: (0, 1, 2)}
        for level in (0, 1, 2, 3):
            st = random_state(prob, level, actives[level], rng)
            assert st.residual_size == sizes[level]
            assert st.dimension == dims[level]
            # direct-solve levels are square
            res, jac = residual_jacobian(st)
            assert res.shape == (sizes[level],)
            assert jac.shape == (sizes[level], dims[level])

    def test_pack_round_trip(self):
        prob = Problem(Grid(2, 2), PolynomialNonlinearity())
        rng = np.random.default_rng(3)
        st = random_state(prob, 3, (0, 2), rng)
        z = st.pack()
        back = st.with_vector(z)
        assert np.array_equal(back.u, st.u)
        assert np.array_equal(back.alpha, st.alpha)
        assert np.array_equal(back.vbar, st.vbar)
        assert np.array_equal(back.lam, st.lam)

    def test_with_vector_keeps_inactive_parameters(self):
        prob = Problem(Grid(2, 1), PolynomialNonlinearity())
        st = AugmentedState(prob, 1, np.zeros(2), np.array([4.0, 0.5, -0.25]),
                            alpha=np.ones(2), active=(0,))
        z = st.pack()
        z[-1] = 11.0
        moved = st.with_vector(z)
        assert moved.lam[0] == 11.0
        assert moved.lam[1] == 0.5 and moved.lam[2] == -0.25

    def test_validation(self):
        prob = unit_problem()
        with pytest.raises(ValueError):
            AugmentedState(prob, 4, np.zeros(1), np.zeros(3))
        with pytest.raises(ValueError):
            AugmentedState(prob, 1, np.zeros(1), np.zeros(3))  # no alpha
        with pytest.raises(ValueError):
            AugmentedState(prob, 3, np.zeros(1), np.zeros(3),
                           alpha=np.ones(1))  # no vbar
        with pytest.raises(ValueError):
            AugmentedState(prob, 0, np.zeros(2), np.zeros(3))
        with pytest.raises(ValueError):
            AugmentedState(prob, 0, np.zeros(1), np.zeros(3), active=(5,))
        with pytest.raises(ValueError):
            st = AugmentedState(prob, 0, np.zeros(1), np.zeros(3))
            st.with_vector(np.zeros(9))


class TestFoldSystem:
    def test_eigen_fold_residual_vanishes(self):
        # 1x1 grid: L = [[-16]], f_u(0) = lam1, kernel at lam1 = 16;
        # dx dy a.a = (1/4) 4 = 1 for a = 2.
        st = AugmentedState(unit_problem(), 1, np.zeros(1),
                            np.array([16.0, 0.0, 0.0]),
                            alpha=np.array([2.0]), active=(0,))
        res, _ = f1_residual_jacobian(st)
        assert np.array_equal(res, np.zeros(3))

    def test_normalization_row(self):
        st = AugmentedState(unit_problem(), 1, np.zeros(1),
                            np.array([16.0, 0.0, 0.0]),
                            alpha=np.array([1.0]), active=(0,))
        res, _ = f1_residual_jacobian(st)
        assert res[-1] == pytest.approx(-0.75)

    def test_residual_head_is_pde_residual(self):
        rng = np.random.default_rng(8)
        prob = Problem(Grid(3, 2), ExpSineNonlinearity())
        st = random_state(prob, 1, (0,), rng)
        res, _ = f1_residual_jacobian(st)
        expected = prob.lap @ st.u + prob.nl.derivative(0, st.u, st.lam)
        assert np.array_equal(res[:6], expected)


class TestCuspValue:
    def test_polynomial_scales_with_lam2(self):
        # f_uu(0) = lam2 for the polynomial family; sum a^3 = 8.
        for lam2 in (0.0, 0.7, -1.3):
            st = AugmentedState(unit_problem(), 2, np.zeros(1),
                                np.array([16.0, lam2, 0.0]),
                                alpha=np.array([2.0]), active=(0, 1))
            assert cusp_monitor(st) == pytest.approx(8.0 * lam2)

    def test_exp_sine_vanishes_at_half(self):
        # f_uu(0) = lam1 (1 - 2 lam2) = 0 at lam2 = 1/2
        st = AugmentedState(unit_problem(ExpSineNonlinearity()), 1,
                            np.zeros(1), np.array([1.0, 0.5, 0.0]),
                            alpha=np.array([2.0]), active=(0,))
        assert cusp_monitor(st) == 0.0

    def test_f2_extends_f1(self):
        rng = np.random.default_rng(4)
        prob = Problem(Grid(3, 3), PolynomialNonlinearity(tail=(0.4,)))
        st = random_state(prob, 2, (0, 1), rng)
        res1, jac1 = f1_residual_jacobian(st)
        res2, jac2 = f2_residual_jacobian(st)
        assert np.array_equal(res2[:-1], res1)
        assert res2[-1] == cusp_monitor(st)
        assert np.array_equal(jac2.toarray()[:-1], jac1.toarray())


class TestAuxiliarySolve:
    def test_unit_grid_pinned(self):
        # Exact fold, G_u = [0], a = [2]: 4 vbar = -4 c so vbar = -c, v = 0.
        st = AugmentedState(unit_problem(), 1, np.zeros(1),
                            np.array([16.0, 0.9, 0.0]),
                            alpha=np.array([2.0]), active=(0,))
        vbar, v = solve_v(st)
        assert vbar[0] == pytest.approx(-0.9)
        assert v[0] == 0.0

    def test_defining_equation_and_orthogonality(self):
        st = eigen_fold_state(Grid(4, 3), PolynomialNonlinearity(), lam2=0.8)
        vbar, v = solve_v(st)
        a = st.alpha
        f1 = st.problem.nl.derivative(1, st.u, st.lam)
        f2 = st.problem.nl.derivative(2, st.u, st.lam)
        gu = st.problem.lap + sp.diags(f1)
        lhs = gu @ (gu @ vbar) + a * (a @ vbar)
        assert np.max(np.abs(lhs + f2 * a**2)) < 1e-8
        # v lies in range(G_u), orthogonal to the kernel
        assert abs(a @ v) < 1e-8
        # G_u v + f2 a^2 is parallel to the kernel
        resid = gu @ v + f2 * a**2
        resid -= (a @ resid) / (a @ a) * a
        assert np.max(np.abs(resid)) < 1e-8

    def test_vanishes_when_f2_zero(self):
        st = eigen_fold_state(Grid(3, 3), PolynomialNonlinearity(), lam2=0.0)
        vbar, v = solve_v(st)
        assert np.max(np.abs(vbar)) == 0.0
        assert np.max(np.abs(v)) == 0.0

    def test_rank_one_solve_matches_dense(self):
        rng = np.random.default_rng(9)
        for n in (3, 7):
            m = rng.standard_normal((n, n))
            a_mat = m @ m.T + np.eye(n)
            alpha = rng.standard_normal(n)
            b = rng.standard_normal(n)
            x = rank_one_solve(sp.csc_matrix(a_mat), alpha, b)
            expected = np.linalg.solve(a_mat + np.outer(alpha, alpha), b)
            assert np.max(np.abs(x - expected)) < 1e-10

    def test_singular_regularized_system_raises(self):
        zero = sp.csc_matrix((2, 2))
        with pytest.raises(SingularAuxiliaryError):
            rank_one_solve(zero, np.array([1.0, 0.0]), np.array([1.0, 1.0]))


class TestHigherMonitors:
    def test_swallowtail_scales_with_lam3(self):
        # lam2 = 0 kills v; f_uuu(0) = lam3 and sum a^4 = 16.
        for lam3 in (0.0, 0.8, -2.0):
            st = AugmentedState(unit_problem(), 1, np.zeros(1),
                                np.array([16.0, 0.0, lam3]),
                                alpha=np.array([2.0]), active=(0,))
            _, v = solve_v(st)
            assert swallowtail_monitor(st, v) == pytest.approx(16.0 * lam3)

    def test_butterfly_from_quartic_tail(self):
        grid = Grid(3, 3)
        st = eigen_fold_state(grid, PolynomialNonlinearity(tail=(0.6,)))
        _, v = solve_v(st)
        assert np.max(np.abs(v)) == 0.0
        expected = 0.6 * np.sum(st.alpha**5)
        assert butterfly_monitor(st, v) == pytest.approx(expected, rel=1e-12)

    def test_parity_under_kernel_sign_flip(self):
        rng = np.random.default_rng(2)
        prob = Problem(Grid(3, 3), PolynomialNonlinearity(tail=(0.3,)))
        st = random_state(prob, 1, (0,), rng)
        flipped = AugmentedState(prob, 1, st.u, st.lam, alpha=-st.alpha,
                                 active=(0,))
        _, v = solve_v(st)
        _, v_f = solve_v(flipped)
        assert np.max(np.abs(v - v_f)) < 1e-12  # v is even in alpha
        assert cusp_monitor(flipped) == pytest.approx(-cusp_monitor(st))
        assert swallowtail_monitor(flipped, v_f) == pytest.approx(
            swallowtail_monitor(st, v))

    def test_monitors_vanish_exactly_with_parameters(self):
        grid = Grid(4, 4)
        base = eigen_fold_state(grid, PolynomialNonlinearity())
        _, v = solve_v(base)
        assert cusp_monitor(base) == 0.0
        assert swallowtail_monitor(base, v) == 0.0
        tilted = eigen_fold_state(grid, PolynomialNonlinearity(), lam2=0.3)
        assert cusp_monitor(tilted) != 0.0
        skewed = eigen_fold_state(grid, PolynomialNonlinearity(), lam3=0.2)
        _, v_s = solve_v(skewed)
        assert swallowtail_monitor(skewed, v_s) != 0.0

    def test_matches_closed_form_tests(self):
        # Same tensors through the jet classifier: dual route agreement.
        grid = Grid(3, 3)
        nl = PolynomialNonlinearity(tail=(0.37, -0.21))
        st = eigen_fold_state(grid, nl, lam2=0.45, lam3=-0.3)
        orc = poisson_oracle(st.u, st.lam, nl, st.problem.lap)
        loose = Tolerances(zero_test=np.inf, solvability=np.inf)
        cf = closed_form_tests(orc, st.alpha, loose)
        _, v = solve_v(st)
        assert np.max(np.abs(v - cf.v)) < 1e-12
        assert cusp_monitor(st) == pytest.approx(cf.cusp, abs=1e-12)
        assert swallowtail_monitor(st, v) == pytest.approx(cf.swallowtail,
                                                           abs=1e-12)
        assert butterfly_monitor(st, v) == pytest.approx(cf.butterfly,
                                                         abs=1e-12)

    def test_evaluate_monitors_record(self):
        st = eigen_fold_state(Grid(3, 3), PolynomialNonlinearity(tail=(0.6,)),
                              lam2=0.2, lam3=0.1)
        _, v = solve_v(st)
        rec = evaluate_monitors(st, with_butterfly=True, fold_direction=0.5)
        assert rec.fold_direction == 0.5
        assert rec.cusp == cusp_monitor(st)
        assert rec.swallowtail == swallowtail_monitor(st, v)
        assert rec.butterfly == butterfly_monitor(st, v)
        assert not rec.blowup_flag
        plain = evaluate_monitors(st)
        assert plain.butterfly is None


class TestBlowupFlag:
    def test_absolute_threshold(self):
        rec = MonitorRecord(0.1, cusp=2e9, swallowtail=1.0)
        assert flag_blowup(rec, None).blowup_flag

    def test_ratio_threshold(self):
        prev = MonitorRecord(0.1, cusp=1e-3, swallowtail=2.0)
        cur = MonitorRecord(0.1, cusp=0.5, swallowtail=2.0)
        assert flag_blowup(cur, prev).blowup_flag

    def test_calm_sequence(self):
        prev = MonitorRecord(0.1, cusp=1e-3, swallowtail=2.0)
        cur = MonitorRecord(0.1, cusp=1.2e-3, swallowtail=2.5)
        assert not flag_blowup(cur, prev).blowup_flag


CASES = [
    (PolynomialNonlinearity(tail=(0.3, -0.2)), Grid(3, 3)),
    (ExpSineNonlinearity(), Grid(4, 3)),
]


class TestAnalyticJacobians:
    @pytest.mark.parametrize("nl,grid", CASES,
                             ids=["polynomial", "exp-sine"])
    @pytest.mark.parametrize("level,active", [
        (0, (0,)), (1, (0,)), (1, (0, 1)), (2, (0, 1)), (3, (0, 1, 2)),
    ])
    def test_matches_central_differences(self, nl, grid, level, active):
        prob = Problem(grid, nl)
        rng = np.random.default_rng(11 + level)
        st = random_state(prob, level, active, rng)
        z0 = st.pack()

        def residual(z):
            return residual_jacobian(st.with_vector(z))[0]

        _, jac = residual_jacobian(st)
        dense = jac.toarray()
        approx = fd_jacobian(residual, z0, h=1e-6)
        err = np.max(np.abs(dense - approx)) / max(1.0, np.max(np.abs(dense)))
        assert err < 1e-5

    def test_f3_head_rows_equal_f2(self):
        prob = Problem(Grid(3, 3), PolynomialNonlinearity(tail=(0.4,)))
        rng = np.random.default_rng(5)
        st3 = random_state(prob, 3, (0, 1, 2), rng)
        st2 = AugmentedState(prob, 2, st3.u, st3.lam, alpha=st3.alpha,
                             active=st3.active)
        res2, jac2 = f2_residual_jacobian(st2)
        res3, jac3 = f3_residual_jacobian(st3)
        assert np.array_equal(res3[: res2.size], res2)
        d2, d3 = jac2.toarray(), jac3.toarray()
        n = prob.grid.size
        # same rows, with vbar columns zero in the shared block
        assert np.array_equal(d3[: res2.size, : 2 * n], d2[:, : 2 * n])
        assert np.array_equal(d3[: res2.size, 2 * n : 3 * n],
                              np.zeros((res2.size, n)))


class TestBorderedSolve:
    """The level-3 Newton step through the bordered sparse factorization."""

    @pytest.mark.parametrize("nl", [PolynomialNonlinearity(tail=(0.3, -0.2)),
                                    ExpSineNonlinearity()],
                             ids=["polynomial", "exp-sine"])
    @pytest.mark.parametrize("side", [4, 8])
    def test_step_matches_dense_oracle(self, nl, side):
        prob = Problem(Grid(side, side), nl)
        rng = np.random.default_rng(side)
        for _ in range(3):
            st = random_state(prob, 3, (0, 1, 2), rng)
            res, jac = f3_residual_jacobian(st)
            assert isinstance(jac, RankOneUpdate)
            assert relative_error(_linear_solve(jac, res),
                                  dense_newton_step(jac, res)) < 1e-10

    def test_nonzeros_grow_linearly(self):
        nnz = {}
        for side in (8, 16):
            prob = Problem(Grid(side, side), ExpSineNonlinearity())
            st = random_state(prob, 3, (0, 1, 2), np.random.default_rng(2))
            nnz[side] = f3_residual_jacobian(st)[1].nnz
        # four times the unknowns; a dense n x n block would give ~16x
        assert nnz[16] <= 4.5 * nnz[8]

    def test_singular_core_with_regular_sum_solves(self):
        jac = RankOneUpdate(sp.csr_matrix(np.diag([0.0, 1.0])),
                            np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        rhs = np.array([2.0, 3.0])
        assert np.allclose(_linear_solve(jac, rhs), [2.0, 3.0])
        assert np.allclose(dense_newton_step(jac, rhs), [2.0, 3.0])

    def test_singular_sum_rejected_like_the_oracle(self):
        jac = RankOneUpdate(sp.csr_matrix(np.diag([1.0, 0.0])),
                            np.array([1.0, 0.0]), np.array([1.0, 0.0]))
        rhs = np.array([1.0, 1.0])
        with pytest.raises(SingularJacobianError):
            _linear_solve(jac, rhs)
        with pytest.raises(np.linalg.LinAlgError):
            dense_newton_step(jac, rhs)


class TestSolutionSignature:
    def test_scalar(self):
        assert solution_signature(sp.csc_matrix(np.array([[-15.0]]))) == -1
        assert solution_signature(sp.csc_matrix(np.array([[15.0]]))) == 1

    def test_laplacian_parity(self):
        # All eigenvalues negative: sign = (-1)^(N M).
        for n in (1, 2, 3):
            lap = build_laplacian(Grid(n, n))
            assert solution_signature(lap) == (-1) ** (n * n)

    def test_exact_fold_degenerate(self):
        grid = Grid(2, 2)
        gu = build_laplacian(grid) - laplacian_eigenvalue(grid) * sp.identity(4)
        assert solution_signature(gu.tocsc()) == DEGENERATE

    def test_matches_eigenvalue_parity(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rng.integers(2, 10)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
            mat = (q * eigs) @ q.T
            expected = (-1) ** int(np.sum(eigs < 0))
            assert solution_signature(sp.csc_matrix(mat)) == expected

    def test_zero_diagonal_uses_inertia_fallback(self):
        mat = sp.csc_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert solution_signature(mat) == -1
