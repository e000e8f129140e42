"""Classifier tests: pinned examples, finite-difference oracle, parity."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp

from aseries.classifier import (
    SingularSystemError,
    SolvabilityError,
    TensorOracle,
    Tolerances,
    closed_form_tests,
    _solve_restricted,
    detect,
    kernel_of_hessian,
    solve_jet_step,
)
from aseries.classifier import test_value as order_test
from helpers import (
    bordered_auxiliary,
    dense_det_sign,
    fit_derivatives,
    random_orthogonal,
    reduced_function,
    rotate_tensors,
    squared_auxiliary,
    tangent_signature,
    tensors_from_polynomial,
)


def oracle_from(coeffs, m=2, top=6):
    return TensorOracle(tensors_from_polynomial(coeffs, m, top))


QUARTIC = {(4, 0): 1.0, (2, 1): 1.0, (0, 2): 1.0}  # x^4 + x^2 y + y^2
E1 = np.array([1.0, 0.0])


def random_kernel_oracle(rng, m=3, top=6, scale=0.4):
    """Random polynomial with engineered one-dimensional Hessian kernel.

    Degrees 3..top get coefficients damped geometrically with the degree
    so the stationarity problem behind r(s) stays analytic on the
    differentiation window; the quadratic part has kernel e1, then the
    frame is mixed by a random rotation.
    """
    coeffs = {}
    for beta in itertools.product(range(top + 1), repeat=m):
        if 3 <= sum(beta) <= top:
            coeffs[beta] = rng.uniform(-1, 1) * scale ** sum(beta)
    for i in range(1, m):
        e2 = tuple(2 if j == i else 0 for j in range(m))
        coeffs[e2] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    rot = random_orthogonal(rng, m)
    tensors = rotate_tensors(tensors_from_polynomial(coeffs, m, top), rot.T)
    return TensorOracle(tensors), rot @ np.eye(m)[0]


class TestKernel:
    def test_simple_kernel(self):
        dim, alpha = kernel_of_hessian(oracle_from(QUARTIC))
        assert dim == 1
        assert abs(abs(alpha[0]) - 1.0) < 1e-12 and abs(alpha[1]) < 1e-12

    def test_nonsingular(self):
        dim, alpha = kernel_of_hessian(oracle_from({(2, 0): 0.5, (0, 2): 1.0}))
        assert (dim, alpha) == (0, None)

    def test_two_dimensional(self):
        dim, alpha = kernel_of_hessian(
            oracle_from({(0, 0, 2): 1.5, (4, 0, 0): 1.0}, m=3)
        )
        assert (dim, alpha) == (2, None)


def hessian_with_kernel(rng, m, kernel_dim=1):
    """Random symmetric m x m matrix whose kernel is spanned by the
    first kernel_dim columns of a random rotation, and that rotation."""
    rot = random_orthogonal(rng, m)
    d = np.concatenate([np.zeros(kernel_dim),
                        rng.uniform(0.5, 2.0, m - kernel_dim)
                        * rng.choice([-1.0, 1.0], m - kernel_dim)])
    return rot @ np.diag(d) @ rot.T, rot


class TestRestrictedSolve:
    def test_matches_the_bordered_oracle(self):
        rng = np.random.default_rng(21)
        for m in (2, 5, 9):
            hess, rot = hessian_with_kernel(rng, m)
            alpha = rng.uniform(0.5, 3.0) * rot[:, 0]
            rhs = rng.standard_normal(m)
            x = _solve_restricted(hess, alpha, rhs)
            expected, _ = bordered_auxiliary(hess, alpha, rhs)
            assert np.max(np.abs(x - expected)) < 1e-10 * max(
                np.max(np.abs(expected)), 1.0)
            # and the squared formulation it replaced, G alpha = 0 here
            _, squared = squared_auxiliary(hess, alpha, rhs)
            assert np.max(np.abs(x - squared)) < 1e-10 * max(
                np.max(np.abs(squared)), 1.0)

    def test_larger_kernel_raises(self):
        rng = np.random.default_rng(22)
        hess, rot = hessian_with_kernel(rng, 4, kernel_dim=2)
        rhs = rot[:, 1] + 0.3 * rot[:, 2]  # reaches the second kernel vector
        with pytest.raises(SingularSystemError):
            _solve_restricted(hess, rot[:, 0], rhs)


class TestJetStep:
    def test_pinned_quartic(self):
        f2 = solve_jet_step(oracle_from(QUARTIC), E1, [], 4)
        np.testing.assert_allclose(f2, [0.0, -1.0], atol=1e-12)

    def test_orthogonality(self):
        rng = np.random.default_rng(11)
        orc, alpha = random_kernel_oracle(rng)
        jet = []
        for n in (4, 5, 6):
            jet.append(solve_jet_step(orc, alpha, jet, n))
            assert abs(jet[-1] @ alpha) < 1e-10 * max(np.linalg.norm(jet[-1]), 1.0)

    def test_parity_of_jet(self):
        # F^(2) is even in alpha, F^(3) odd
        rng = np.random.default_rng(12)
        orc, alpha = random_kernel_oracle(rng)
        jp = [solve_jet_step(orc, alpha, [], 4)]
        jm = [solve_jet_step(orc, -alpha, [], 4)]
        np.testing.assert_allclose(jp[0], jm[0], atol=1e-12)
        f3p = solve_jet_step(orc, alpha, jp, 5)
        f3m = solve_jet_step(orc, -alpha, jm, 5)
        np.testing.assert_allclose(f3p, -f3m, atol=1e-12)


class TestTestValue:
    def test_pinned_quartic(self):
        orc = oracle_from(QUARTIC)
        assert order_test(orc, E1, [np.array([0.0, -1.0])], 4) == pytest.approx(18.0)

    def test_pinned_decoupled(self):
        orc = oracle_from({(4, 0): 0.25, (0, 2): 0.5})
        assert order_test(orc, E1, [np.zeros(2)], 4) == pytest.approx(6.0)

    def test_placeholder_independence(self):
        # test_value skips the two highest slots; filled with any c1, c2
        # they would add n S2(alpha, c1) + S1(c2), which vanishes at a
        # critical point with alpha in the Hessian kernel
        rng = np.random.default_rng(21)
        orc, alpha = random_kernel_oracle(rng)
        for n in (3, 4, 5):
            for _ in range(3):
                c1, c2 = rng.standard_normal((2, 3))
                skipped = n * orc.contract(2, alpha, c1) + orc.contract(1, c2)
                assert skipped == pytest.approx(0.0, abs=1e-12)

    def test_sign_parity(self):
        rng = np.random.default_rng(22)
        orc, alpha = random_kernel_oracle(rng)
        jet_p, jet_m = [], []
        for n in (3, 4, 5, 6):
            if n >= 4:
                jet_p.append(solve_jet_step(orc, alpha, jet_p, n))
                jet_m.append(solve_jet_step(orc, -alpha, jet_m, n))
            vp = order_test(orc, alpha, jet_p, n)
            vm = order_test(orc, -alpha, jet_m, n)
            expected = -vp if n % 2 else vp
            assert vm == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            orc, _ = random_kernel_oracle(rng)
            _, alpha = kernel_of_hessian(orc)
            fd = fit_derivatives(reduced_function(orc, alpha), [3, 4, 5], 0.2,
                                 degree=12, points=17)
            jet = []
            for n in (3, 4, 5):
                if n >= 4:
                    jet.append(solve_jet_step(orc, alpha, jet, n))
                tv = order_test(orc, alpha, jet, n)
                assert abs(tv - fd[n]) <= 1e-5 * max(abs(fd[n]), 1.0)


class TestClosedForm:
    def test_pinned_quartic(self):
        res = closed_form_tests(oracle_from(QUARTIC), E1)
        assert res.cusp == pytest.approx(0.0, abs=1e-14)
        np.testing.assert_allclose(res.v, [0.0, -1.0], atol=1e-12)
        assert res.swallowtail == pytest.approx(18.0)

    def test_pinned_decoupled(self):
        res = closed_form_tests(oracle_from({(4, 0): 0.25, (0, 2): 0.5}), E1)
        assert res.cusp == 0.0
        np.testing.assert_allclose(res.v, [0.0, 0.0], atol=1e-14)
        assert res.swallowtail == pytest.approx(6.0)

    def test_pinned_cusp_stop(self):
        res = closed_form_tests(oracle_from({(3, 0): 1.0, (0, 2): 1.0}), E1)
        assert res.cusp == pytest.approx(6.0)
        assert res.v is None and res.swallowtail is None

    def test_agrees_with_loop(self):
        rng = np.random.default_rng(31)
        hits = 0
        for _ in range(40):
            orc, _ = random_kernel_oracle(rng)
            _, alpha = kernel_of_hessian(orc)
            res = closed_form_tests(
                orc, alpha, Tolerances(zero_test=np.inf, solvability=np.inf)
            )
            jet = []
            values = {}
            for n in (3, 4, 5):
                if n >= 4:
                    jet.append(solve_jet_step(orc, alpha, jet, n))
                values[n] = order_test(orc, alpha, jet, n)
            assert res.cusp == pytest.approx(values[3], rel=1e-10, abs=1e-10)
            # deeper closed forms assume the earlier tests vanish
            if abs(values[3]) < 1e-10:
                assert res.swallowtail == pytest.approx(values[4], rel=1e-10)
                hits += 1
                if abs(values[4]) < 1e-10:
                    assert res.butterfly == pytest.approx(values[5], rel=1e-10)
        assert hits == 0  # random cubics never vanish; covered by canonical cases

    def test_agrees_with_loop_on_degenerate_chain(self):
        # x^5/5 + x^4/8 + x^2 y/2 + y^2/2: the x^4 term is tuned so the
        # swallowtail value cancels (3 - 3) and the chain reaches butterfly
        coeffs = {(5, 0): 0.2, (4, 0): 0.125, (2, 1): 0.5, (0, 2): 0.5}
        orc = oracle_from(coeffs)
        _, alpha = kernel_of_hessian(orc)
        alpha = alpha if alpha[0] > 0 else -alpha
        res = closed_form_tests(orc, alpha)
        assert res.cusp == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.v, [0.0, -1.0], atol=1e-12)
        assert res.swallowtail == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.w, [0.0, 0.0], atol=1e-12)
        assert res.butterfly == pytest.approx(24.0, rel=1e-12)
        jet = [solve_jet_step(orc, alpha, [], 4)]
        assert res.swallowtail == pytest.approx(
            order_test(orc, alpha, jet, 4), rel=1e-10, abs=1e-10
        )
        jet.append(solve_jet_step(orc, alpha, jet, 5))
        assert res.butterfly == pytest.approx(
            order_test(orc, alpha, jet, 5), rel=1e-10, abs=1e-10
        )

    def test_shift_invariance(self):
        # swallowtail and butterfly forms are unchanged under v -> v + t*alpha
        coeffs = {(5, 0): 0.2, (2, 1): 0.4, (0, 2): 1.0, (0, 3): 0.3}
        orc = oracle_from(coeffs)
        _, alpha = kernel_of_hessian(orc)
        res = closed_form_tests(
            orc, alpha, Tolerances(zero_test=np.inf, solvability=np.inf)
        )
        hess = orc.hessian()

        def swallowtail(v):
            return orc.contract(4, alpha, alpha, alpha, alpha) - 3 * v @ (hess @ v)

        def butterfly(v):
            # recompute w for the shifted v with an independent projected solve
            rhs = -(orc.contract_free(4, alpha, alpha, alpha)
                    + 3 * orc.contract_free(3, alpha, v))
            proj = np.eye(2) - np.outer(alpha, alpha)
            w, *_ = np.linalg.lstsq(proj @ hess, proj @ rhs, rcond=None)
            w = proj @ w
            return (orc.contract(5, *[alpha] * 5)
                    - 15 * orc.contract(3, alpha, v, v)
                    + 10 * orc.contract(3, alpha, alpha, w))

        for t in (-1.7, 0.4, 2.5):
            shifted = res.v + t * alpha
            assert swallowtail(shifted) == pytest.approx(res.swallowtail, abs=1e-10)
            assert butterfly(shifted) == pytest.approx(res.butterfly, abs=1e-9)

    def test_solvability_error(self):
        # force the deep solves despite a nonzero cusp: rhs has a kernel part
        orc = oracle_from({(3, 0): 0.1, (2, 1): 1.0, (0, 2): 1.0})
        with pytest.raises(SolvabilityError):
            closed_form_tests(orc, E1, Tolerances(zero_test=1.0, solvability=1e-12))


class TestDetect:
    def test_pinned_quintic(self):
        rep = detect(oracle_from({(5, 0): 0.2, (0, 2): 0.5}))
        assert (rep.kind, rep.order) == ("A4", 4)
        assert rep.signature is None

    def test_not_critical(self):
        rep = detect(oracle_from({(1, 0): 1.0, (0, 2): 1.0}))
        assert rep.kind == "not-critical"

    def test_not_a_series(self):
        rep = detect(oracle_from({(2, 0): 1.0, (0, 2): 1.0}))
        assert rep.kind == "not-A-series" and rep.kernel_dim == 0
        rep = detect(oracle_from({(4, 0, 0): 1.0, (0, 0, 2): 1.0}, m=3))
        assert rep.kind == "not-A-series" and rep.kernel_dim == 2

    def test_undetermined(self):
        rep = detect(oracle_from({(8, 0): 1.0, (0, 2): 0.5}, top=6))
        assert rep.kind == "undetermined"
        assert rep.test_values == pytest.approx([0.0] * 4, abs=1e-12)

    def test_canonical_family(self):
        # x^(n+1)/(n+1) + y^2 - z^2 classifed as A_n, also after mixing
        rng = np.random.default_rng(41)
        for n in (2, 3, 4, 5):
            coeffs = {tuple([n + 1, 0, 0]): 1.0 / (n + 1),
                      (0, 2, 0): 0.5, (0, 0, 2): -0.5}
            tensors = tensors_from_polynomial(coeffs, 3, 6)
            for mixed in (False, True):
                t = tensors
                if mixed:
                    t = rotate_tensors(tensors, random_orthogonal(rng, 3).T)
                rep = detect(TensorOracle(t))
                assert (rep.kind, rep.order) == (f"A{n}", n)
                # r^(n+1)(0) = n! for this normal form, in any frame
                assert rep.test_values[-1] == pytest.approx(
                    math.factorial(n), rel=1e-8
                )

    def test_even_signature(self):
        rep = detect(oracle_from({(4, 0): 1.0, (0, 2): 1.0}))
        assert (rep.kind, rep.signature) == ("A3", 1)
        rep = detect(oracle_from({(4, 0): -1.0, (0, 2): 1.0}))
        assert (rep.kind, rep.signature) == ("A3", -1)

    def test_report_invariant(self):
        rng = np.random.default_rng(43)
        orc, _ = random_kernel_oracle(rng)
        rep = detect(orc)
        assert rep.kind.startswith("A")
        n = rep.order + 1
        tol = 1e-8
        assert all(abs(v) <= tol for v in rep.test_values[:-1])
        assert abs(rep.test_values[-1]) > tol
        assert len(rep.test_values) == n - 2


class TestSignature:
    """The sign of det(G_u), from the one routine that computes it: the
    factor `tangent` makes of [G_u, g; row^T], against a dense slogdet."""

    def test_pinned(self):
        def sign(diag):
            gu = sp.diags(diag)
            found = tangent_signature(gu)
            assert found == dense_det_sign(gu)
            return found

        assert sign([2.0, 3.0]) == 1
        assert sign([-2.0, 3.0]) == -1
        assert sign([-2.0, -3.0]) == 1
        assert sign([0.0, 3.0]) == 0  # t_lam is exactly 0

    def test_matches_determinant_sign(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            m = rng.integers(2, 7)
            a = rng.standard_normal((m, m))
            h = a + a.T
            det = np.linalg.det(h)
            if abs(det) < 1e-8:
                continue
            expected = 1 if det > 0 else -1
            assert dense_det_sign(h) == expected
            assert tangent_signature(h, m) == expected

    def test_zero_pivot_fallback(self):
        # leading pivot vanishes but the matrix is nonsingular
        h = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert tangent_signature(h) == dense_det_sign(h) == -1
