"""Augmented fold/cusp/swallowtail systems: residuals, Jacobians, monitors."""

import functools
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from aseries.augmented import (
    AugmentedState,
    BlockJacobian,
    BorderedGu,
    Problem,
    SingularAuxiliaryError,
    butterfly_monitor,
    cusp_monitor,
    evaluate_monitors,
    f1_residual_jacobian,
    f2_residual_jacobian,
    f3_residual_jacobian,
    residual_jacobian,
    solve_v,
    swallowtail_monitor,
)
from aseries.classifier import Tolerances, closed_form_tests
from aseries.continuation import SingularJacobianError, _linear_solve
from aseries.harness import HuntConfig, hunt_swallowtail, refine_on_grid
from aseries.poisson import (
    ExpSineNonlinearity,
    Grid,
    Nonlinearity,
    PoissonOracle,
    PolynomialNonlinearity,
    build_laplacian,
    laplacian_eigenvalue,
    laplacian_eigenvector,
)

from helpers import (
    bordered_newton_step,
    dense_det_sign,
    dense_jacobian,
    dense_newton_step,
    fd_jacobian,
    relative_error,
    tangent_factor,
    tangent_signature,
)


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
        expected = prob.lap @ st.u + prob.nl.derivative(0, st.u, st.lam)[0]
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
        assert np.array_equal(dense_jacobian(jac2)[:-1], dense_jacobian(jac1))


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
        _, f1, f2 = st.problem.nl.derivative(2, st.u, st.lam)
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

    def test_square_solve_matches_dense(self):
        # (G^2 + a a^T) x = b through G bordered by a / sqrt(|a|), for
        # symmetric G, regular and singular
        rng = np.random.default_rng(9)
        for n in (3, 7):
            m = rng.standard_normal((n, n))
            gu = m + m.T
            alpha = rng.standard_normal(n)
            b = rng.standard_normal(n)
            for g in (gu, gu - np.linalg.eigvalsh(gu)[0] * np.eye(n)):
                x = BorderedGu(sp.csr_matrix(g), alpha).square_solve(b)
                expected = np.linalg.solve(g @ g + np.outer(alpha, alpha), b)
                assert relative_error(x, expected) < 1e-10

    def test_singular_regularized_system_raises(self):
        zero = sp.csr_matrix((2, 2))
        with pytest.raises(SingularAuxiliaryError):
            BorderedGu(zero, np.array([1.0, 0.0])).square_solve(
                np.array([1.0, 1.0]))


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
        orc = PoissonOracle(st.u, st.lam, nl, st.problem.lap)
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
        top = replace(st, level=3, vbar=np.zeros(st.u.size))
        rec = evaluate_monitors(top)
        assert rec.fold_direction == 0.0
        assert rec.cusp == cusp_monitor(st)
        assert rec.swallowtail == swallowtail_monitor(st, v)
        assert rec.butterfly == butterfly_monitor(st, v)
        assert st.level == 1
        assert evaluate_monitors(st).butterfly is None


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
        dense = dense_jacobian(jac)
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
        d2, d3 = dense_jacobian(jac2), dense_jacobian(jac3)
        n = prob.grid.size
        # same rows, with vbar columns zero in the shared block
        assert np.array_equal(d3[: res2.size, : 2 * n], d2[:, : 2 * n])
        assert np.array_equal(d3[: res2.size, 2 * n : 3 * n],
                              np.zeros((res2.size, n)))


class CountingNonlinearity(Nonlinearity):
    """Forwards to another nonlinearity and counts calls per top order."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = Counter()

    def derivative(self, top, t, lam):
        self.calls["derivative", top] += 1
        return self.inner.derivative(top, t, lam)

    def lambda_derivative(self, top, t, lam):
        self.calls["lambda_derivative", top] += 1
        return self.inner.lambda_derivative(top, t, lam)


class TestAssemblyEvaluations:
    @pytest.mark.parametrize("nl,grid", CASES,
                             ids=["polynomial", "exp-sine"])
    @pytest.mark.parametrize("level,active", [
        (0, (0,)), (1, (0,)), (2, (0, 1)), (3, (0, 1, 2)),
    ])
    def test_each_derivative_evaluated_once(self, nl, grid, level, active):
        counting = CountingNonlinearity(nl)
        st = random_state(Problem(grid, counting), level, active,
                          np.random.default_rng(3 + level))
        res, jac = residual_jacobian(st)
        assert counting.calls == Counter({("derivative", level + 1): 1,
                                          ("lambda_derivative", level): 1})
        plain = residual_jacobian(replace(st, problem=Problem(grid, nl)))
        assert np.array_equal(res, plain[0])
        assert np.array_equal(dense_jacobian(jac), dense_jacobian(plain[1]))

    @pytest.mark.parametrize("level,active", [
        (0, (0,)), (1, (0,)), (2, (0, 1)), (3, (0, 1, 2)),
    ])
    def test_one_exp_stack_per_jet(self, monkeypatch, level, active):
        # an assembly builds the exp-sine stack twice (the jet and its
        # lam-gradients) and the monitors at a state once
        builds, real = [], ExpSineNonlinearity._exp_stack

        def counted(cls, t, lam, top):
            builds.append(top)
            return real(t, lam, top)

        monkeypatch.setattr(ExpSineNonlinearity, "_exp_stack",
                            classmethod(counted))
        st = random_state(Problem(Grid(4, 3), ExpSineNonlinearity()), level,
                          active, np.random.default_rng(3 + level))
        residual_jacobian(st)
        assert builds == [level + 1, level + 1]
        if level >= 1:
            builds.clear()
            evaluate_monitors(st)
            assert builds == [4 if level == 3 else 3]


@functools.cache
def converged_swallowtails():
    """Level-3 roots with singular G_u: the 1x1 direct chain's swallowtail
    of the exp-sine problem and its refinement onto 4x4."""
    report = hunt_swallowtail(ExpSineNonlinearity(), Grid(1, 1),
                              HuntConfig(direct_start=True))
    coarse = report.swallowtail.state
    return [coarse, refine_on_grid(coarse, Grid(4, 4))[0]]


def tiny_jacobian(gu, a, rng):
    """A BlockJacobian on n = len(a) unknowns per field with the
    given G_u and random remaining blocks."""
    n = a.size
    return BlockJacobian(
        gu=sp.csr_matrix(gu), d=rng.standard_normal(n),
        p=sp.csr_matrix(rng.standard_normal((n, n))),
        e=rng.standard_normal(n), a=a,
        vbar=rng.standard_normal(n), cols=rng.standard_normal((3 * n, 3)),
        rows=rng.standard_normal((3, 3 * n + 3)))


def _zero_row(jac):
    rows = jac.rows.copy()
    rows[1] = 0.0
    return replace(jac, rows=rows)


def _zero_column(jac):
    rows, cols = jac.rows.copy(), jac.cols.copy()
    rows[:, -1] = 0.0
    cols[:, -1] = 0.0
    return replace(jac, rows=rows, cols=cols)


def _no_kernel_vector(jac):
    # G_u + a a^T singular with the normalization row
    zero = np.zeros_like(jac.a)
    rows = jac.rows.copy()
    rows[0] = 0.0
    # the new G_u and a are not its Linearization's, so it has none
    return replace(jac, gu=sp.csr_matrix(jac.gu.shape), a=zero, rows=rows,
                   lin=None)


class TestBorderedSolve:
    """The level-3 Newton step by block elimination, against the dense LU
    and the monolithic bordered SuperLU step."""

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
            assert isinstance(jac, BlockJacobian)
            step = _linear_solve(jac, res)
            assert relative_error(step, dense_newton_step(jac, res)) < 1e-10
            assert relative_error(step, bordered_newton_step(jac, res)) < 1e-10

    @pytest.mark.parametrize("index", [0, 1], ids=["1x1", "4x4"])
    def test_step_matches_oracles_at_converged_states(self, index):
        state = converged_swallowtails()[index]
        res, jac = f3_residual_jacobian(state)
        # a simple fold: G_u is singular with the kernel vector a
        assert np.max(np.abs(jac.gu @ jac.a)) < 1e-9 * np.max(np.abs(jac.a))
        assert np.max(np.abs(res)) < 1e-9
        rhs = np.random.default_rng(index).standard_normal(res.size)
        step = _linear_solve(jac, rhs)
        assert relative_error(step, dense_newton_step(jac, rhs)) < 1e-10
        assert relative_error(step, bordered_newton_step(jac, rhs)) < 1e-10

    def test_product_and_dense_form_agree(self):
        st = random_state(Problem(Grid(3, 4), ExpSineNonlinearity()), 3,
                          (0, 1, 2), np.random.default_rng(4))
        _, jac = f3_residual_jacobian(st)
        x = np.random.default_rng(5).standard_normal(jac.shape[1])
        assert relative_error(jac @ x, dense_jacobian(jac) @ x) < 1e-13

    def test_nonzeros_grow_linearly(self):
        nnz = {}
        for side in (8, 16):
            prob = Problem(Grid(side, side), ExpSineNonlinearity())
            st = random_state(prob, 3, (0, 1, 2), np.random.default_rng(2))
            nnz[side] = f3_residual_jacobian(st)[1].nnz
        # four times the unknowns; a dense n x n block would give ~16x
        assert nnz[16] <= 4.5 * nnz[8]

    def test_singular_core_with_regular_sum_solves(self):
        core = sp.csr_matrix(np.diag([0.0, 1.0]))
        kernel, rhs = np.array([1.0, 0.0]), np.array([2.0, 3.0])
        assert np.allclose(BorderedGu(core, kernel).square_solve(rhs),
                           [2.0, 3.0])
        # G_u = 0 on one cell: singular blocks, regular Jacobian
        jac = tiny_jacobian(np.zeros((1, 1)), np.array([2.0]),
                            np.random.default_rng(1))
        rhs = np.arange(1.0, 7.0)
        expected = dense_newton_step(jac, rhs)
        assert relative_error(_linear_solve(jac, rhs), expected) < 1e-12
        assert relative_error(bordered_newton_step(jac, rhs),
                              expected) < 1e-12

    def test_singular_sum_rejected_like_the_oracle(self):
        core = sp.csr_matrix(np.diag([1.0, 0.0]))
        kernel, rhs = np.array([1.0, 0.0]), np.array([1.0, 1.0])
        with pytest.raises(SingularAuxiliaryError):
            BorderedGu(core, kernel).square_solve(rhs)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(core.toarray() @ core.toarray()
                            + np.outer(kernel, kernel), rhs)
        jac = _zero_row(tiny_jacobian(np.diag([1.0, 0.0]), kernel,
                                      np.random.default_rng(2)))
        rhs = np.ones(jac.shape[0])
        with pytest.raises(SingularJacobianError):
            _linear_solve(jac, rhs)
        with pytest.raises(np.linalg.LinAlgError):
            dense_newton_step(jac, rhs)

    @pytest.mark.parametrize("make_singular",
                             [_zero_row, _zero_column, _no_kernel_vector],
                             ids=["zero-row", "zero-column", "no-kernel"])
    @pytest.mark.parametrize("index", [0, 1], ids=["1x1", "4x4"])
    def test_rejects_what_the_oracle_rejects(self, make_singular, index):
        _, jac = f3_residual_jacobian(converged_swallowtails()[index])
        jac = make_singular(jac)
        rhs = np.ones(jac.shape[0])
        with pytest.raises(SingularJacobianError):
            bordered_newton_step(jac, rhs)
        with pytest.raises(SingularJacobianError):
            _linear_solve(jac, rhs)


class TestSolutionSignature:
    """The sign of det G_u from the factor `tangent` makes of [J; row^T],
    J = [G_u, g] (`continuation.solution_signature`), against a dense
    slogdet of G_u."""

    def test_scalar(self):
        for value, expected in ((-15.0, -1), (15.0, 1)):
            gu = sp.csr_matrix(np.array([[value]]))
            assert tangent_signature(gu) == dense_det_sign(gu) == expected

    def test_laplacian_parity(self):
        # All eigenvalues negative: sign = (-1)^(N M).
        for n in (1, 2, 3):
            lap = build_laplacian(Grid(n, n))
            for seed in range(3):
                assert tangent_signature(lap, seed) == (-1) ** (n * n)

    def test_exact_fold_degenerate(self):
        # G_u with a zero first row and column: J's first row is g_0
        # e_lam, so the solve gives s_lam = 0 exactly, and the sign is 0
        gu = sp.lil_matrix(build_laplacian(Grid(2, 2)))
        gu[0, :] = gu[:, 0] = 0.0
        assert dense_det_sign(gu) == 0
        for seed in range(5):
            assert tangent_factor(gu, seed).s[-1] == 0.0
            assert tangent_signature(gu, seed) == 0

    def test_matches_eigenvalue_parity(self):
        rng = np.random.default_rng(17)
        for seed in range(20):
            n = rng.integers(2, 10)
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            eigs = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
            mat = (q * eigs) @ q.T
            expected = (-1) ** int(np.sum(eigs < 0))
            assert dense_det_sign(mat) == expected
            assert tangent_signature(mat, seed) == expected

    @pytest.mark.parametrize("diag", [0.0, 1e-13], ids=["zero", "tiny"])
    @pytest.mark.parametrize("case", ["swap", "two-swaps", "swap-plus-2"])
    def test_regular_with_vanishing_natural_pivot(self, case, diag):
        # a zero or tiny diagonal is no pivot of the bordered LU, and the
        # permutation parities carry the sign
        swap = np.array([[diag, 1.0], [1.0, 0.0]])
        mat, expected = {
            "swap": (swap, -1),
            "two-swaps": (np.kron(np.eye(2), swap), 1),
            "swap-plus-2": (np.block([[swap, np.zeros((2, 1))],
                                      [np.zeros((1, 2)), 2.0]]), -1),
        }[case]
        assert dense_det_sign(mat) == expected
        for seed in range(3):
            assert tangent_signature(mat, seed) == expected



@pytest.mark.parametrize("flip", [False, True], ids=["small-fu", "flip-diag"])
@pytest.mark.parametrize("level,active", [(0, (0,)), (1, (0, 1)),
                                          (2, (0, 1, 2))])
def test_grid_norms_match_dense(monkeypatch, level, active, flip):
    # ||J||_1 and ||J||_inf of grid Jacobians, unbordered and bordered,
    # from the Laplacian's off-diagonal sums and |diag G_u|, with no
    # |G_u| built; with flip, f_u turns the diagonal's sign at some points
    problem = Problem(Grid(5, 3), PolynomialNonlinearity((0.7, -0.4)))
    rng = np.random.default_rng(level + 10 * flip)
    state = random_state(problem, level, active, rng)
    if flip:
        state.lam[0] = 1.2 * np.max(np.abs(problem.lap.diagonal()))
    _, jac = residual_jacobian(state)
    row = rng.standard_normal(jac.shape[1])

    def refuse(self):
        raise AssertionError("|G_u| built as a sparse matrix")

    for found in (jac, jac.bordered(row)):
        dense = np.abs(dense_jacobian(found))
        with monkeypatch.context() as patch:
            patch.setattr(type(found.gu), "__abs__", refuse)
            norms = found.norms()
        assert norms == pytest.approx((dense.sum(axis=0).max(),
                                       dense.sum(axis=1).max()),
                                      rel=1e-14, abs=0.0)
