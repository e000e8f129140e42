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
    Linearization,
    Problem,
    SingularAuxiliaryError,
    f1_residual_jacobian,
    f2_residual_jacobian,
    f3_residual_jacobian,
    residual_jacobian,
    solve_v,
)
from aseries.classifier import (
    Tolerances,
    closed_form_tests,
    solve_jet_step,
)
from aseries.classifier import test_value as order_test
from aseries.continuation import (
    SingularJacobianError,
    _linear_solve,
    monitor_values,
)
from aseries.harness import (
    HuntConfig,
    _located,
    hunt_swallowtail,
    refine_on_grid,
)
from aseries.poisson import (
    ExpSineNonlinearity,
    Grid,
    Nonlinearity,
    PolynomialNonlinearity,
    build_laplacian,
    laplacian_eigenvalue,
    laplacian_eigenvector,
)

from helpers import (
    bordered_auxiliary,
    bordered_newton_step,
    dense_det_sign,
    dense_jacobian,
    dense_newton_step,
    fd_jacobian,
    fresh_monitors,
    grid_monitor,
    grid_tensor_oracle,
    level3_product_block,
    relative_error,
    squared_auxiliary,
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

    def test_pairing_is_the_cell_area_weighted_dot(self):
        rng = np.random.default_rng(3)
        grid = Grid(4, 3)
        prob = Problem(grid, ExpSineNonlinearity())
        assert prob.weight == grid.cell_area
        # bit for bit the product it replaced, which the answers keep
        for x, y in rng.standard_normal((8, 2, grid.size)):
            assert prob.inner(x, y) == grid.cell_area * (x @ y)
            unit = prob.normalize(x)
            assert np.array_equal(unit,
                                  x / np.sqrt(grid.cell_area * (x @ x)))
            assert prob.inner(unit, unit) == pytest.approx(1.0, abs=1e-15)
        st = random_state(prob, 1, (0,), rng)
        res, jac = f1_residual_jacobian(st)
        assert res[2 * grid.size] == prob.inner(st.alpha, st.alpha) - 1.0
        n = grid.size
        assert np.array_equal(jac.rows[0, n : 2 * n],
                              2.0 * grid.cell_area * st.alpha)


class TestCuspValue:
    def test_polynomial_scales_with_lam2(self):
        # f_uu(0) = lam2 for the polynomial family; sum a^3 = 8.
        for lam2 in (0.0, 0.7, -1.3):
            st = AugmentedState(unit_problem(), 2, np.zeros(1),
                                np.array([16.0, lam2, 0.0]),
                                alpha=np.array([2.0]), active=(0, 1))
            assert grid_monitor(st, 3) == pytest.approx(8.0 * lam2)

    def test_exp_sine_vanishes_at_half(self):
        # f_uu(0) = lam1 (1 - 2 lam2) = 0 at lam2 = 1/2
        st = AugmentedState(unit_problem(ExpSineNonlinearity()), 1,
                            np.zeros(1), np.array([1.0, 0.5, 0.0]),
                            alpha=np.array([2.0]), active=(0,))
        assert grid_monitor(st, 3) == 0.0

    def test_f2_extends_f1(self):
        rng = np.random.default_rng(4)
        prob = Problem(Grid(3, 3), PolynomialNonlinearity(tail=(0.4,)))
        st = random_state(prob, 2, (0, 1), rng)
        res1, jac1 = f1_residual_jacobian(st)
        res2, jac2 = f2_residual_jacobian(st)
        assert np.array_equal(res2[:-1], res1)
        assert res2[-1] == grid_monitor(st, 3)
        assert np.array_equal(dense_jacobian(jac2)[:-1], dense_jacobian(jac1))


class TestAuxiliarySolve:
    def test_unit_grid_pinned(self):
        # Exact fold, G_u = [0], a = [2]: a.v = 0 forces v = 0, and
        # 2 mu = -4 c gives mu = -2 c.
        st = AugmentedState(unit_problem(), 1, np.zeros(1),
                            np.array([16.0, 0.9, 0.0]),
                            alpha=np.array([2.0]), active=(0,))
        v = solve_v(st)
        _, mu = bordered_auxiliary(np.zeros((1, 1)), st.alpha,
                                   np.array([-3.6]))
        assert mu == pytest.approx(-1.8)
        assert v[0] == 0.0

    def test_defining_equation_and_orthogonality(self):
        st = eigen_fold_state(Grid(4, 3), PolynomialNonlinearity(), lam2=0.8)
        v = solve_v(st)
        a = st.alpha
        _, f1, f2 = st.problem.nl.derivative(2, st.u, st.lam)
        gu = st.problem.lap + sp.diags(f1)
        _, mu = bordered_auxiliary(gu.toarray(), a, -f2 * a**2)
        assert np.max(np.abs(gu @ v + mu * a + f2 * a**2)) < 1e-8
        # v is orthogonal to the kernel
        assert abs(a @ v) < 1e-8
        # G_u v + f2 a^2 is parallel to the kernel
        resid = gu @ v + f2 * a**2
        resid -= (a @ resid) / (a @ a) * a
        assert np.max(np.abs(resid)) < 1e-8

    def test_vanishes_when_f2_zero(self):
        st = eigen_fold_state(Grid(3, 3), PolynomialNonlinearity(), lam2=0.0)
        v = solve_v(st)
        assert np.max(np.abs(v)) == 0.0

    def test_orthogonal_solve_matches_bordered_oracle(self):
        # G v + mu a = b, a.v = 0 through G bordered by a / sqrt(|a|),
        # for symmetric G, regular and singular
        rng = np.random.default_rng(9)
        for n in (3, 7):
            m = rng.standard_normal((n, n))
            gu = m + m.T
            alpha = rng.standard_normal(n)
            b = rng.standard_normal(n)
            for g in (gu, gu - np.linalg.eigvalsh(gu)[0] * np.eye(n)):
                x = BorderedGu(sp.csr_matrix(g), alpha).orthogonal_solve(b)
                expected, _ = bordered_auxiliary(g, alpha, b)
                assert relative_error(x, expected) < 1e-10

    def test_singular_regularized_system_raises(self):
        zero = sp.csr_matrix((2, 2))
        with pytest.raises(SingularAuxiliaryError):
            BorderedGu(zero, np.array([1.0, 0.0])).orthogonal_solve(
                np.array([1.0, 1.0]))

    def test_duplicate_entries_are_summed(self):
        # G = [[1 + 2, 1], [1, 4]] with (0, 0) stored twice, factored in
        # its own order; a = e_0 gives B = G + e_0 e_0^T = [[4, 1], [1, 4]]
        gu = sp.csr_matrix((np.array([1.0, 2.0, 1.0, 1.0, 4.0]),
                            np.array([0, 0, 1, 0, 1]), np.array([0, 3, 5])),
                           shape=(2, 2))
        assert not gu.has_canonical_format
        lu = BorderedGu(gu, np.array([1.0, 0.0]))
        expected = np.linalg.solve([[4.0, 1.0], [1.0, 4.0]], [1.0, 2.0])
        assert relative_error(lu.solve(np.array([[1.0], [2.0]]))[:, 0],
                              expected) < 1e-14
        assert relative_error(lu.g, [3.0, 1.0]) == 0.0

    def test_zero_kernel_vector_raises(self):
        # B = G is regular, but k = 0 leaves mu undefined
        lu = BorderedGu(sp.identity(2, format="csr"), np.zeros(2))
        with pytest.raises(SingularAuxiliaryError):
            lu.orthogonal_solve(np.array([1.0, 1.0]))

    def test_cancelled_border_raises(self):
        # B = G + k k^T is regular, but k.B^-1 k is 0 in exact arithmetic
        # and rounds to about 4e-17: v would be about 1.7e16, not an error
        lu = BorderedGu(sp.diags([1.0, -1.0]).tocsr(), np.array([1.0, 1.0]))
        with pytest.raises(SingularAuxiliaryError, match="cancels"):
            lu.orthogonal_solve(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("stage", [1, 2], ids=["fold", "cusp"])
    def test_agrees_with_the_squared_formulation(self, stage):
        # at a located point G_u a = 0 to Newton tolerance, so the
        # bordered v is G_u vbar with (G_u^2 + a a^T) vbar = -f_uu a^2
        st = robust_chain()[stage]
        f = st.problem.nl.derivative(2, st.u, st.lam)
        gu = st.problem.gu(f[1]).toarray()
        _, expected = squared_auxiliary(gu, st.alpha, -f[2] * st.alpha**2)
        v = solve_v(st)
        assert np.max(np.abs(v)) > 1e-3
        assert np.max(np.abs(v - expected)) < 1e-10 * np.max(np.abs(expected))


@functools.cache
def robust_chain():
    """States of the robust 10x10 exp-sine hunt's chain: solution, fold,
    cusp and swallowtail."""
    report = hunt_swallowtail(ExpSineNonlinearity(), Grid(10, 10),
                              HuntConfig(lam0=(0.0, 0.15, 2.0),
                                         lam2_direction=1, lam3_direction=-1,
                                         stage3_window=(3.0, 0.25, 2.5)))
    assert report.stage_reached == "swallowtail"
    return [point.state for point in report.chain]


class TestHigherMonitors:
    def test_swallowtail_scales_with_lam3(self):
        # lam2 = 0 kills v; f_uuu(0) = lam3 and sum a^4 = 16.
        for lam3 in (0.0, 0.8, -2.0):
            st = AugmentedState(unit_problem(), 1, np.zeros(1),
                                np.array([16.0, 0.0, lam3]),
                                alpha=np.array([2.0]), active=(0,))
            assert grid_monitor(st, 4) == pytest.approx(16.0 * lam3)

    def test_butterfly_from_quartic_tail(self):
        grid = Grid(3, 3)
        st = eigen_fold_state(grid, PolynomialNonlinearity(tail=(0.6,)))
        v = solve_v(st)
        assert np.max(np.abs(v)) == 0.0
        expected = 0.6 * np.sum(st.alpha**5)
        assert grid_monitor(st, 5) == pytest.approx(expected, rel=1e-12)

    def test_parity_under_kernel_sign_flip(self):
        rng = np.random.default_rng(2)
        prob = Problem(Grid(3, 3), PolynomialNonlinearity(tail=(0.3,)))
        st = random_state(prob, 1, (0,), rng)
        flipped = AugmentedState(prob, 1, st.u, st.lam, alpha=-st.alpha,
                                 active=(0,))
        v = solve_v(st)
        v_f = solve_v(flipped)
        assert np.max(np.abs(v - v_f)) < 1e-12  # v is even in alpha
        assert grid_monitor(flipped, 3) == pytest.approx(
            -grid_monitor(st, 3))
        assert grid_monitor(flipped, 4) == pytest.approx(grid_monitor(st, 4))

    def test_monitors_vanish_exactly_with_parameters(self):
        grid = Grid(4, 4)
        base = eigen_fold_state(grid, PolynomialNonlinearity())
        assert grid_monitor(base, 3) == 0.0
        assert grid_monitor(base, 4) == 0.0
        tilted = eigen_fold_state(grid, PolynomialNonlinearity(), lam2=0.3)
        assert grid_monitor(tilted, 3) != 0.0
        skewed = eigen_fold_state(grid, PolynomialNonlinearity(), lam3=0.2)
        assert grid_monitor(skewed, 4) != 0.0

    def test_matches_closed_form_tests(self):
        # Same tensors through the jet classifier: dual route agreement.
        grid = Grid(3, 3)
        nl = PolynomialNonlinearity(tail=(0.37, -0.21))
        st = eigen_fold_state(grid, nl, lam2=0.45, lam3=-0.3)
        orc = grid_tensor_oracle(st.u, st.lam, nl, st.problem.lap)
        loose = Tolerances(zero_test=np.inf, solvability=np.inf)
        cf = closed_form_tests(orc, st.alpha, loose)
        v = solve_v(st)
        assert np.max(np.abs(v - cf.v)) < 1e-12
        assert grid_monitor(st, 3) == pytest.approx(cf.cusp, abs=1e-12)
        assert grid_monitor(st, 4) == pytest.approx(cf.swallowtail,
                                                    abs=1e-12)
        assert grid_monitor(st, 5) == pytest.approx(cf.butterfly, abs=1e-12)

    def test_evaluate_monitors_record(self):
        st = eigen_fold_state(Grid(3, 3), PolynomialNonlinearity(tail=(0.6,)),
                              lam2=0.2, lam3=0.1)
        top = replace(st, level=3, vbar=np.zeros(st.u.size))
        rec = fresh_monitors(top)
        assert "fold" not in rec  # a located point records no fold
        assert rec["cusp"] == grid_monitor(st, 3)
        assert rec["swallowtail"] == grid_monitor(st, 4)
        assert rec["butterfly"] == grid_monitor(st, 5)
        assert st.level == 1
        assert "butterfly" not in fresh_monitors(st)
        # the package's one evaluator gives the oracle's bits, keys too
        names = ("cusp", "swallowtail", "butterfly")
        assert monitor_values(Linearization(top, 4), names) == rec
        assert monitor_values(Linearization(st, 3), names[:2]) == \
            fresh_monitors(st)


CASES = [
    (PolynomialNonlinearity(tail=(0.3, -0.2)), Grid(3, 3)),
    (ExpSineNonlinearity(), Grid(4, 3)),
]


@pytest.mark.parametrize("nl,grid", CASES, ids=["polynomial", "exp-sine"])
class TestGridOracle:
    """The Linearization against the dense tensors of the same state."""

    def oracles(self, nl, grid):
        st = random_state(Problem(grid, nl), 1, (0,),
                          np.random.default_rng(17))
        return st, Linearization(st, 4), grid_tensor_oracle(
            st.u, st.lam, nl, st.problem.lap)

    def test_contractions_match_the_dense_tensors(self, nl, grid):
        st, lin, dense = self.oracles(nl, grid)
        xs = np.random.default_rng(5).standard_normal((5, grid.size))
        for k in range(2, 6):
            free = lin.contract_free(k, *xs[:k - 1])
            expected = dense.contract_free(k, *xs[:k - 1])
            assert relative_error(free, expected) < 1e-12
            value, scalar = lin.contract(k, *xs[:k]), dense.contract(k, *xs[:k])
            assert abs(value - scalar) <= 1e-12 * abs(scalar)
        assert lin.dimension == dense.dimension
        assert lin.max_order == dense.max_order

    def test_monitors_match_the_dense_route(self, nl, grid):
        # r^3..r^5 by bordered solves on G_u against solve_jet_step's
        # dense restricted solves and test_value on the tensors
        st, lin, dense = self.oracles(nl, grid)
        jet = []
        for n in (3, 4, 5):
            if n > 3:
                jet.append(solve_jet_step(dense, st.alpha, jet, n))
            expected = order_test(dense, st.alpha, jet, n)
            assert abs(grid_monitor(st, n) - expected) <= 1e-12 * max(
                abs(expected), 1.0)
        assert fresh_monitors(st)["swallowtail"] == grid_monitor(st, 4)


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
        d2, d3 = dense_jacobian(jac2), dense_jacobian(jac3)
        n = prob.grid.size
        # per kind: the level-2 grid rows (G, G_u a) lead the level-3
        # grid rows, and its single rows (normalization, cusp) lead the
        # level-3 single rows; vbar columns are zero in the shared rows
        for rows2, rows3 in ((slice(0, 2 * n), slice(0, 2 * n)),
                             (slice(2 * n, 2 * n + 2),
                              slice(3 * n, 3 * n + 2))):
            assert np.array_equal(res3[rows3], res2[rows2])
            assert np.array_equal(d3[rows3, : 2 * n], d2[rows2, : 2 * n])
            assert np.array_equal(d3[rows3, 2 * n : 3 * n],
                                  np.zeros((rows3.stop - rows3.start, n)))


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
            _located(st, 0, 0.0)
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

    @pytest.mark.parametrize("nl", [PolynomialNonlinearity(tail=(0.3, -0.2)),
                                    ExpSineNonlinearity()],
                             ids=["polynomial", "exp-sine"])
    def test_product_block_matches_sparse_arithmetic(self, nl):
        # p on G_u's pattern holds the sparse product and sum's values and
        # products bit for bit, and counts their nonzeros; at vbar = 0, as
        # a level-3 state climbed from level 2 starts, it stores zeros
        prob = Problem(Grid(5, 4), nl)
        rng = np.random.default_rng(6)
        states = [random_state(prob, 3, (0, 1, 2), rng) for _ in range(3)]
        states.append(replace(states[0], vbar=np.zeros(prob.grid.size)))
        for st in states:
            _, jac = f3_residual_jacobian(st)
            expected = level3_product_block(jac.lin, st.vbar, st.alpha)
            assert np.array_equal(jac.p.toarray(), expected.toarray())
            x = rng.standard_normal((prob.grid.size, 3))
            assert (jac.p @ x).tobytes() == (expected @ x).tobytes()
            assert (jac.p @ x[:, 0]).tobytes() == (expected
                                                   @ x[:, 0]).tobytes()
            assert np.count_nonzero(jac.p.data) == expected.nnz
            assert jac.nnz == replace(jac, p=expected).nnz
        assert jac.p.nnz == jac.gu.nnz > expected.nnz == prob.grid.size

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
        assert np.allclose(BorderedGu(core, kernel).orthogonal_solve(rhs),
                           [0.0, 3.0])
        assert np.allclose(bordered_auxiliary(core.toarray(), kernel, rhs)[0],
                           [0.0, 3.0])
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
            BorderedGu(core, kernel).orthogonal_solve(rhs)
        with pytest.raises(np.linalg.LinAlgError):
            bordered_auxiliary(core.toarray(), kernel, rhs)
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
