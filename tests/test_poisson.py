"""Discretization tests: pinned stencils, eigen-oracle, derivative stacks."""

import itertools

import numpy as np
import pytest

from aseries.augmented import AugmentedState, Linearization, Problem
from aseries.poisson import (
    ExpSineNonlinearity,
    Grid,
    GridFunction,
    PoleError,
    PolynomialNonlinearity,
    build_laplacian,
    discrete_functional,
    interpolate_to,
    laplacian_eigenvalue,
    laplacian_eigenvector,
    load_grid_function,
    save_grid_function,
)
from helpers import (
    grid_function_from_matrix,
    grid_tensor_oracle,
    poisson_jacobian,
    residual,
)

LAM = np.array([0.9, 0.23, 0.6])


class TestLaplacian:
    def test_pinned_1x1(self):
        np.testing.assert_allclose(build_laplacian(Grid(1, 1)).toarray(), [[-16.0]])

    def test_pinned_2x1(self):
        np.testing.assert_allclose(
            build_laplacian(Grid(2, 1)).toarray(), [[-26.0, 9.0], [9.0, -26.0]]
        )

    def test_stores_its_nonzeros_only(self):
        # 5 n - 2 nx - 2 ny entries on every grid up to 11x11, all of
        # them nonzero, the whole diagonal among them
        for nx, ny in itertools.product(range(1, 12), repeat=2):
            lap = build_laplacian(Grid(nx, ny))
            n = nx * ny
            assert lap.nnz == 5 * n - 2 * nx - 2 * ny
            assert np.all(lap.data != 0.0)
            assert np.all(lap.diagonal() != 0.0)

    def test_first_eigenvalue_formula(self):
        for n in (1, 3, 7):
            grid = Grid(n, n)
            expected = -8.0 * (n + 1) ** 2 * np.sin(np.pi / (2 * (n + 1))) ** 2
            assert laplacian_eigenvalue(grid) == pytest.approx(expected, rel=1e-14)
        assert laplacian_eigenvalue(Grid(1, 1)) == pytest.approx(-16.0)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (5, 8), (8, 8)])
    def test_spectrum_matches_dense_eigensolve(self, nx, ny):
        grid = Grid(nx, ny)
        dense = build_laplacian(grid).toarray()
        np.testing.assert_allclose(dense, dense.T)
        found = np.sort(np.linalg.eigvalsh(dense))
        analytic = np.sort(
            [
                laplacian_eigenvalue(grid, p, q)
                for p in range(1, nx + 1)
                for q in range(1, ny + 1)
            ]
        )
        np.testing.assert_allclose(found, analytic, rtol=1e-10)

    def test_eigenvectors(self):
        grid = Grid(5, 3)
        lap = build_laplacian(grid)
        for p, q in [(1, 1), (2, 3), (5, 2)]:
            w = laplacian_eigenvector(grid, p, q)
            mu = laplacian_eigenvalue(grid, p, q)
            np.testing.assert_allclose(lap @ w, mu * w, atol=1e-11)

    def test_mode_validation(self):
        with pytest.raises(ValueError):
            laplacian_eigenvalue(Grid(2, 2), 3, 1)


class TestNonlinearities:
    def test_exp_sine_taylor_at_zero(self):
        nl = ExpSineNonlinearity()
        lam = np.array([1.3, 0.4, 0.7])
        jet = nl.derivative(2, 0.0, lam)
        assert jet[0] == pytest.approx(1.3)
        assert jet[1] == pytest.approx(1.3 * (1 + 0.7))
        assert jet[2] == pytest.approx(1.3 * (1 - 2 * 0.4))
        unit = np.array([1.0, 0.0, 0.0])
        assert nl.derivative(3, 0.0, unit)[3] == pytest.approx(1.0)

    def test_polynomial_taylor_coefficients(self):
        nl = PolynomialNonlinearity(tail=(0.5, -2.0))
        lam = np.array([2.0, 3.0, 4.0])
        jet = nl.derivative(4, 0.0, lam)
        for k, expected in enumerate([0.0, 2.0, 3.0, 4.0, 0.5]):
            assert jet[k] == pytest.approx(expected)

    @pytest.mark.parametrize(
        "nl",
        [ExpSineNonlinearity(), PolynomialNonlinearity(tail=(0.8, -0.3))],
        ids=["exp-sine", "polynomial"],
    )
    def test_derivative_consistency(self, nl):
        # every supplied derivative is the FD derivative of its parent
        rng = np.random.default_rng(17)
        h = 1e-5
        for k in range(4):
            for t in rng.uniform(-0.8, 0.8, 5):
                fd = (nl.derivative(k, t + h, LAM)[k]
                      - nl.derivative(k, t - h, LAM)[k]) / (2 * h)
                assert nl.derivative(k + 1, t, LAM)[k + 1] == pytest.approx(
                    fd, rel=1e-6, abs=1e-6)

    @pytest.mark.parametrize(
        "nl",
        [ExpSineNonlinearity(), PolynomialNonlinearity(tail=(0.8, -0.3))],
        ids=["exp-sine", "polynomial"],
    )
    def test_lambda_derivative_consistency(self, nl):
        rng = np.random.default_rng(18)
        h = 1e-5
        for k in range(4):
            for t in rng.uniform(-0.8, 0.8, 3):
                grad = nl.lambda_derivative(k, t, LAM)[k]
                for i in range(3):
                    lp, lm = LAM.copy(), LAM.copy()
                    lp[i] += h
                    lm[i] -= h
                    fd = (nl.derivative(k, t, lp)[k]
                          - nl.derivative(k, t, lm)[k]) / (2 * h)
                    assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-6)
        # complex step: Im f^(k)(lam + 1e-30 i e_j) / 1e-30 is the lam_j
        # derivative to rounding, also at lam1 = 0 and for lam2 < 0
        t = rng.uniform(-0.8, 0.8, 7)
        for lam in (LAM, np.array([0.0, 0.3, 0.9]), np.array([1.1, -0.4, -0.7])):
            for k in range(4):
                grad = nl.lambda_derivative(k, t, lam)[k]
                for j in range(3):
                    lam_c = lam.astype(complex)
                    lam_c[j] += 1e-30j
                    step = np.imag(nl.derivative(k, t, lam_c)[k]) / 1e-30
                    assert grad[:, j] == pytest.approx(step, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "nl",
        [ExpSineNonlinearity(), PolynomialNonlinearity(tail=(0.8, -0.3))],
        ids=["exp-sine", "polynomial"],
    )
    def test_antiderivative(self, nl):
        assert nl.antiderivative(0.0, LAM) == 0.0
        rng = np.random.default_rng(19)
        h = 1e-5
        for t in rng.uniform(-0.8, 0.8, 5):
            fd = (nl.antiderivative(t + h, LAM) - nl.antiderivative(t - h, LAM)) / (
                2 * h
            )
            assert fd == pytest.approx(nl.derivative(0, t, LAM)[0], rel=1e-6,
                                       abs=1e-8)

    def test_antiderivative_small_lam1(self):
        nl = ExpSineNonlinearity()
        # sin-part series branch: compare against mpmath-free exact limit
        lam = np.array([1e-9, 0.0, 2.0])
        t = 0.5
        # lam3 (1 - cos(lam1 t))/lam1 ~= lam3 lam1 t^2 / 2
        expected = 1e-9 * (np.exp(t) - 1.0) / 1.0  # quad part: lam1 * int e^s ds
        expected += 2.0 * 1e-9 * t**2 / 2
        assert nl.antiderivative(t, lam) == pytest.approx(expected, rel=1e-9)

    def test_pole_guard(self):
        nl = ExpSineNonlinearity()
        lam = np.array([1.0, 0.5, 0.0])
        with pytest.raises(PoleError):
            nl.derivative(0, -2.0, lam)
        with pytest.raises(PoleError):
            nl.lambda_derivative(1, -2.0 + 1e-10, lam)

    def test_vectorized(self):
        nl = ExpSineNonlinearity()
        ts = np.linspace(-0.5, 0.5, 7)
        stacked = nl.derivative(2, ts, LAM)
        assert stacked.shape == (3,) + ts.shape
        for t, v in zip(ts, stacked[2]):
            assert v == pytest.approx(float(nl.derivative(2, t, LAM)[2]))
        grad = nl.lambda_derivative(3, ts, LAM)
        assert grad.shape == (4,) + ts.shape + (3,)

    @pytest.mark.parametrize(
        "nl",
        [ExpSineNonlinearity(), PolynomialNonlinearity(tail=(0.8, -0.3))],
        ids=["exp-sine", "polynomial"],
    )
    @pytest.mark.parametrize(
        "lam",
        [LAM, np.array([0.0, 0.3, 0.9]), np.array([1.1, -0.4, -0.7])],
        ids=["generic", "lam1-zero", "lam2-negative"],
    )
    def test_jet_prefix_is_the_lower_jet(self, nl, lam):
        # entry k of a jet does not depend on its top order, bit for bit
        t = np.random.default_rng(20).uniform(-0.8, 0.8, 7)
        jet, grads = nl.derivative(4, t, lam), nl.lambda_derivative(3, t, lam)
        assert jet.shape == (5,) + t.shape
        assert grads.shape == (4,) + t.shape + (3,)
        for top in range(5):
            assert (jet[: top + 1].tobytes()
                    == nl.derivative(top, t, lam).tobytes())
        for top in range(4):
            assert (grads[: top + 1].tobytes()
                    == nl.lambda_derivative(top, t, lam).tobytes())
        for top in (-1, 5):
            with pytest.raises(ValueError):
                nl.derivative(top, t, lam)
        for top in (-1, 4):
            with pytest.raises(ValueError):
                nl.lambda_derivative(top, t, lam)


class TestResidualJacobian:
    def test_pinned_bratu_1x1(self):
        lap = build_laplacian(Grid(1, 1))
        nl = ExpSineNonlinearity()
        lam = np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(residual(np.zeros(1), lam, nl, lap), [1.0])
        np.testing.assert_allclose(
            poisson_jacobian(np.zeros(1), lam, nl, lap).toarray(), [[-15.0]]
        )

    def test_zero_states(self):
        lap = build_laplacian(Grid(3, 3))
        nl = ExpSineNonlinearity()
        np.testing.assert_allclose(
            residual(np.zeros(9), np.zeros(3), nl, lap), np.zeros(9)
        )
        pnl = PolynomialNonlinearity()
        np.testing.assert_allclose(
            residual(np.zeros(9), np.array([5.0, 2.0, -1.0]), pnl, lap), np.zeros(9)
        )

    def test_polynomial_jacobian_is_shifted_laplacian(self):
        grid = Grid(3, 2)
        lap = build_laplacian(grid)
        lam = np.array([2.5, 0.0, 0.0])
        found = poisson_jacobian(np.zeros(grid.size), lam,
                                 PolynomialNonlinearity(), lap)
        np.testing.assert_allclose(
            found.toarray(), lap.toarray() + 2.5 * np.eye(grid.size)
        )

    def test_jacobian_symmetric_and_matches_fd(self):
        grid = Grid(4, 4)
        lap = build_laplacian(grid)
        nl = ExpSineNonlinearity()
        rng = np.random.default_rng(23)
        u = rng.uniform(-0.5, 0.5, grid.size)
        ju = poisson_jacobian(u, LAM, nl, lap)
        np.testing.assert_allclose(ju.toarray(), ju.toarray().T)
        h = 1e-6
        for k in rng.integers(0, grid.size, 4):
            up, um = u.copy(), u.copy()
            up[k] += h
            um[k] -= h
            fd = (residual(up, LAM, nl, lap) - residual(um, LAM, nl, lap)) / (2 * h)
            np.testing.assert_allclose(fd, ju.toarray()[:, k], atol=1e-6)

    def test_problem_gu_matches_the_sum(self):
        # Problem.gu adds f_u into the Laplacian's diagonal data: the
        # same sums as L + diag(f_u), on the Laplacian's pattern
        grid = Grid(5, 4)
        nl = ExpSineNonlinearity()
        problem = Problem(grid, nl)
        u = np.random.default_rng(37).uniform(-0.5, 0.5, grid.size)
        found = problem.gu(nl.derivative(1, u, LAM)[1])
        expected = poisson_jacobian(u, LAM, nl, problem.lap)
        assert np.array_equal(found.toarray(), expected.toarray())
        for part in ("indptr", "indices"):
            assert np.array_equal(getattr(found, part),
                                  getattr(problem.lap, part))

    def test_shape_validation(self):
        lap = build_laplacian(Grid(2, 2))
        with pytest.raises(ValueError):
            residual(np.zeros(3), LAM, ExpSineNonlinearity(), lap)


class TestFunctional:
    def test_zero(self):
        grid = Grid(2, 2)
        assert discrete_functional(np.zeros(4), LAM, ExpSineNonlinearity(), grid) == 0.0

    def test_pinned_1x1(self):
        grid = Grid(1, 1)
        nl = PolynomialNonlinearity()
        lam = np.array([2.0, 0.0, 0.0])
        # 1/2 * 1 * (-16) * 1 + fbar(1) with fbar(1) = 2/2 = 1
        assert discrete_functional(np.ones(1), lam, nl, grid) == pytest.approx(-7.0)

    def test_gradient_is_residual(self):
        grid = Grid(4, 4)
        lap = build_laplacian(grid)
        nl = ExpSineNonlinearity()
        rng = np.random.default_rng(29)
        u = rng.uniform(-0.5, 0.5, grid.size)
        h = 1e-5
        grad = np.empty(grid.size)
        for i in range(grid.size):
            up, um = u.copy(), u.copy()
            up[i] += h
            um[i] -= h
            grad[i] = (
                discrete_functional(up, LAM, nl, grid, lap)
                - discrete_functional(um, LAM, nl, grid, lap)
            ) / (2 * h)
        np.testing.assert_allclose(grad, residual(u, LAM, nl, lap), atol=1e-6)


class TestOracle:
    def setup_method(self):
        self.grid = Grid(4, 3)
        self.lap = build_laplacian(self.grid)
        self.nl = ExpSineNonlinearity()
        rng = np.random.default_rng(31)
        self.u = rng.uniform(-0.4, 0.4, self.grid.size)
        self.orc = grid_tensor_oracle(self.u, LAM, self.nl, self.lap)
        self.rng = rng

    def test_contract_one_is_residual(self):
        v = self.rng.standard_normal(self.grid.size)
        expected = residual(self.u, LAM, self.nl, self.lap) @ v
        assert self.orc.contract(1, v) == pytest.approx(expected)

    def test_contract_two_is_jacobian(self):
        a, b = self.rng.standard_normal((2, self.grid.size))
        ju = poisson_jacobian(self.u, LAM, self.nl, self.lap)
        assert self.orc.contract(2, a, b) == pytest.approx(a @ (ju @ b))
        np.testing.assert_allclose(self.orc.hessian(), ju.toarray())

    def test_diagonal_contractions(self):
        vs = self.rng.standard_normal((5, self.grid.size))
        for k in (3, 4, 5):
            diag = self.nl.derivative(k - 1, self.u, LAM)[k - 1]
            expected = float(np.sum(diag * np.prod(vs[:k], axis=0)))
            assert self.orc.contract(k, *vs[:k]) == pytest.approx(expected)

    def test_symmetry_and_linearity(self):
        a, b, c = self.rng.standard_normal((3, self.grid.size))
        base = self.orc.contract(3, a, b, c)
        assert self.orc.contract(3, c, a, b) == pytest.approx(base)
        assert self.orc.contract(3, b, c, a) == pytest.approx(base)
        scaled = self.orc.contract(3, 2.0 * a + c, b, c)
        assert scaled == pytest.approx(2.0 * base + self.orc.contract(3, c, b, c))

    def test_polynomial_cubic_form(self):
        lam = np.array([1.0, 0.7, 0.0])
        orc = grid_tensor_oracle(
            np.zeros(self.grid.size), lam, PolynomialNonlinearity(), self.lap
        )
        alpha = self.rng.standard_normal(self.grid.size)
        assert orc.contract(3, alpha, alpha, alpha) == pytest.approx(
            0.7 * np.sum(alpha**3)
        )

    def test_eigen_fold_kernel(self):
        grid = Grid(5, 5)
        lap = build_laplacian(grid)
        lam = np.array([-laplacian_eigenvalue(grid), 0.0, 0.0])
        alpha = laplacian_eigenvector(grid)
        state = AugmentedState(Problem(grid, PolynomialNonlinearity()), 1,
                               np.zeros(grid.size), lam, alpha=alpha)
        orc = Linearization(state, 2)
        assert orc.contract(2, alpha, alpha) == pytest.approx(0.0, abs=1e-9)

    def test_order_guard(self):
        v = np.zeros(self.grid.size)
        with pytest.raises(ValueError):
            self.orc.contract(6, v, v, v, v, v, v)


class TestGridFunctionIO:
    def test_round_trip(self, tmp_path):
        grid = Grid(3, 4)
        rng = np.random.default_rng(37)
        gf = GridFunction(rng.standard_normal(grid.size), grid)
        path = tmp_path / "state.txt"
        save_grid_function(path, gf)
        back = load_grid_function(path)
        assert back.grid == grid
        np.testing.assert_array_equal(back.values, gf.values)

    def test_header_format(self, tmp_path):
        path = tmp_path / "state.txt"
        save_grid_function(path, GridFunction(np.zeros(2), Grid(2, 1)))
        assert path.read_text().splitlines()[0] == "2 1"

    def test_matrix_ordering(self):
        # u_{(j-1)N+i} = U_{i,j}: flattened vector walks columns of U
        matrix = np.array([[1.0, 3.0], [2.0, 4.0]])
        gf = grid_function_from_matrix(matrix, Grid(2, 2))
        np.testing.assert_array_equal(gf.values, [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(gf.as_matrix(), matrix)

    def test_interpolation_nested_grids(self):
        # the 9x9 mesh contains every 4x4 node: values carry over exactly
        # there, and stay near the smooth sample in between
        coarse = Grid(4, 4)
        xs = np.arange(1, 5) * coarse.dx
        u = grid_function_from_matrix(
            np.outer(np.sin(np.pi * xs), np.sin(np.pi * xs)), coarse
        )
        fine = interpolate_to(u, Grid(9, 9))
        np.testing.assert_allclose(
            fine.as_matrix()[1::2, 1::2], u.as_matrix(), atol=1e-14
        )
        xf = np.arange(1, 10) * Grid(9, 9).dx
        exact = np.outer(np.sin(np.pi * xf), np.sin(np.pi * xf))
        assert np.max(np.abs(fine.as_matrix() - exact)) < 0.12

    def test_interpolation_zero_boundary(self):
        coarse = Grid(2, 2)
        gf = GridFunction(np.ones(4), coarse)
        fine = interpolate_to(gf, Grid(5, 5))
        # corner fine nodes sit next to the zero boundary padding
        assert fine.as_matrix()[0, 0] < 1.0
