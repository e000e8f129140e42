"""Acceptance gate: one pass/fail line per published capability.

Each test pins one end-to-end capability at its stated tolerance and
wall-clock budget, so the -v listing doubles as the release checklist.
The criterion-7 pipeline state is shared forward into criterion 8; every
test still times its own work against its own budget.
"""

import itertools
import time

import numpy as np
import pytest

from aseries.augmented import (
    AugmentedState,
    Problem,
    residual_jacobian,
    solve_v,
)
from aseries.bell import bell_monomials, bell_value
from aseries.classifier import (
    TensorOracle,
    Tolerances,
    closed_form_tests,
    detect,
    kernel_of_hessian,
    solve_jet_step,
)
from aseries.classifier import test_value as order_test
from aseries.continuation import (
    augmented_continuation_problem,
    initial_point,
    run_branch,
)
from aseries.harness import (
    HuntConfig,
    convergence_study,
    hunt_swallowtail,
    locate,
    refine_on_grid,
    seed_kernel_vector,
    verify_swallowtail_geometry,
)
from aseries.poisson import (
    ExpSineNonlinearity,
    Grid,
    PolynomialNonlinearity,
    laplacian_eigenvalue,
    laplacian_eigenvector,
)
from helpers import (
    dense_jacobian,
    fd_jacobian,
    fit_derivatives,
    grid_monitor,
    grid_tensor_oracle,
    random_orthogonal,
    reduced_function,
    relative_error,
    rotate_tensors,
    squared_auxiliary,
    tensors_from_polynomial,
)

BELL_NUMBERS = (1, 1, 2, 5, 15, 52, 203, 877)
PIPELINE_CONFIG = HuntConfig(lam0=(0.0, 0.15, 2.0), lam2_direction=1,
                             lam3_direction=-1,
                             stage3_window=(3.0, 0.25, 2.5))
_SHARED = {}


def engineered_oracle(rng, m=3, top=6, scale=0.4):
    """Random degree-<=top polynomial with a 1-dim Hessian kernel.

    The quadratic part has kernel e1 before a random rotation mixes the
    frame; higher degrees are damped so the constrained reduction stays
    well inside its analyticity window.
    """
    coeffs = {}
    for beta in itertools.product(range(top + 1), repeat=m):
        if 3 <= sum(beta) <= top:
            coeffs[beta] = rng.uniform(-1, 1) * scale ** sum(beta)
    for i in range(1, m):
        e2 = tuple(2 if j == i else 0 for j in range(m))
        coeffs[e2] = rng.uniform(0.5, 1.0) * rng.choice([-1.0, 1.0])
    rot = random_orthogonal(rng, m)
    return TensorOracle(rotate_tensors(tensors_from_polynomial(coeffs, m, top),
                                       rot.T))


def eigen_state(grid, lam2, lam3, level=1, active=(0,)):
    """Exact eigen-fold of the polynomial family on the given grid."""
    prob = Problem(grid, PolynomialNonlinearity())
    lam = np.array([-laplacian_eigenvalue(grid), lam2, lam3])
    alpha = laplacian_eigenvector(grid)
    alpha = alpha / np.sqrt(grid.cell_area * (alpha @ alpha))
    return AugmentedState(prob, level, np.zeros(grid.size), lam,
                          alpha=alpha, active=active)


def pipeline_swallowtail():
    if "sw15" not in _SHARED:
        report = hunt_swallowtail(ExpSineNonlinearity(), Grid(15, 15),
                                  PIPELINE_CONFIG)
        assert report.stage_reached == "swallowtail"
        _SHARED["sw15"] = report.swallowtail.state
    return _SHARED["sw15"]


def test_criterion_1_bell_machinery():
    t0 = time.perf_counter()
    for n, expected in enumerate(BELL_NUMBERS):
        assert bell_value(n, (1,) * n) == expected
    found = {m.powers: m.coefficient for m in bell_monomials(4)}
    assert found == {(4, 0, 0, 0): 1, (2, 1, 0, 0): 6, (1, 0, 1, 0): 4,
                     (0, 2, 0, 0): 3, (0, 0, 0, 1): 1}
    assert time.perf_counter() - t0 < 1.0


def test_criterion_2_reduction_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(20):
        oracle = engineered_oracle(rng)
        dim, alpha = kernel_of_hessian(oracle)
        assert dim == 1
        fd = fit_derivatives(reduced_function(oracle, alpha), [3, 4, 5],
                             0.2, degree=12, points=17)
        jet = []
        for n in (3, 4, 5):
            if n >= 4:
                jet.append(solve_jet_step(oracle, alpha, jet, n))
            value = order_test(oracle, alpha, jet, n)
            assert abs(value - fd[n]) <= 1e-5 * max(abs(fd[n]), 1.0)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_canonical_catastrophes():
    t0 = time.perf_counter()
    rng = np.random.default_rng(3)
    for n in (2, 3, 4, 5):
        coeffs = {(n + 1, 0, 0): 1.0 / (n + 1),
                  (0, 2, 0): 1.0, (0, 0, 2): -0.7}
        tensors = tensors_from_polynomial(coeffs, 3, 6)
        mixed = rotate_tensors(tensors, random_orthogonal(rng, 3))
        for variant in (tensors, mixed):
            report = detect(TensorOracle(variant), max_order=6)
            assert report.kind == f"A{n}"
            assert all(abs(v) <= 1e-8 for v in report.test_values[:-1])
            if (n + 1) % 2 == 0:
                # even final order: sign survives alpha -> -alpha
                assert report.signature == 1
            else:
                # odd final order flips with alpha; no signature exists
                assert report.signature is None
    assert time.perf_counter() - t0 < 5.0


def test_criterion_4_analytic_eigen_fold():
    t0 = time.perf_counter()
    for n in (1, 4, 8):
        grid = Grid(n, n)
        lam1 = 8.0 * (n + 1) ** 2 * np.sin(np.pi / (2.0 * (n + 1))) ** 2
        assert -laplacian_eigenvalue(grid) == pytest.approx(lam1, rel=1e-14)
        residual = residual_jacobian(eigen_state(grid, 0.0, 0.0))[0]
        assert np.max(np.abs(residual)) <= 1e-10
        # cusp value is linear in lam2, regardless of lam3
        assert grid_monitor(eigen_state(grid, 0.0, 0.7), 3) == 0.0
        assert abs(grid_monitor(eigen_state(grid, 0.3, 0.7), 3)) > 1e-3
        # on the lam2 = 0 slice the swallowtail value is linear in lam3
        state = eigen_state(grid, 0.0, 0.0)
        assert grid_monitor(state, 4) == 0.0
        skewed = eigen_state(grid, 0.0, 0.2)
        assert abs(grid_monitor(skewed, 4)) > 1e-3
    assert time.perf_counter() - t0 < 5.0


def test_criterion_5_jacobian_fidelity():
    t0 = time.perf_counter()
    grid = Grid(4, 4)
    prob = Problem(grid, ExpSineNonlinearity())
    n = grid.size
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = rng.uniform(-0.3, 0.3, n)
        lam = np.array([rng.uniform(2.0, 9.0), rng.uniform(-0.6, 0.6),
                        rng.uniform(-0.6, 0.6)])
        alpha = rng.standard_normal(n)
        vbar = rng.standard_normal(n)
        for level, active in ((1, (0,)), (2, (0, 1)), (3, (0, 1, 2))):
            state = AugmentedState(
                prob, level, u, lam.copy(), alpha=alpha,
                vbar=vbar if level == 3 else None, active=active)
            analytic = dense_jacobian(residual_jacobian(state)[1])
            numeric = fd_jacobian(
                lambda z: residual_jacobian(state.with_vector(z))[0],
                state.pack())
            assert relative_error(analytic, numeric) < 1e-5
            if level == 3:
                # auxiliary-equation block on its own
                rows = slice(2 * n, 3 * n)
                assert relative_error(analytic[rows], numeric[rows]) < 1e-5
    assert time.perf_counter() - t0 < 30.0


def test_criterion_6_fold_location_with_richardson_consistency():
    t0 = time.perf_counter()
    nl = ExpSineNonlinearity()
    grid = Grid(15, 15)
    prob = Problem(grid, nl)
    template = AugmentedState(prob, 0, np.zeros(grid.size),
                              np.zeros(3), active=(0,))
    wrapper = augmented_continuation_problem(template)
    start = initial_point(wrapper, template.pack())
    run = run_branch(wrapper, start, ds0=0.2, ds_max=0.5, max_steps=400,
                     stop_at=("fold",), bounds=lambda z: abs(z[-1]) < 50.0)
    events = [e for e in run.events if e.kind == "fold"]
    assert events, f"no fold event ({run.stopped_on})"
    at_fold = template.with_vector(events[0].point.z)
    fold, _, _ = locate(AugmentedState(prob, 1, at_fold.u,
                                       at_fold.lam.copy(),
                                       alpha=seed_kernel_vector(prob, 0),
                                       active=(0,)))
    values = [fold.lam[0]]
    state = fold
    for size in (31, 63):
        state, _ = refine_on_grid(state, Grid(size, size))
        values.append(state.lam[0])
    assert 6.5 < values[0] < 7.0
    # spacing halves twice; second-order extrapolations must agree
    first = values[1] + (values[1] - values[0]) / 3.0
    second = values[2] + (values[2] - values[1]) / 3.0
    assert abs(second - first) < 0.01 * abs(first)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_7_swallowtail_hunt_and_grid_convergence():
    t0 = time.perf_counter()
    nl = ExpSineNonlinearity()
    report = hunt_swallowtail(nl, Grid(15, 15), PIPELINE_CONFIG)
    assert report.stage_reached == "swallowtail"
    for point in report.chain:
        assert point.residual_inf < 1e-9
    fold_stage = [e for e in report.events if e["stage"] == "fold"]
    assert fold_stage and fold_stage[0]["kind"] == "cusp"
    assert not fold_stage[0]["approximate"]
    cusp_stage = [e for e in report.events if e["stage"] == "cusp"]
    assert cusp_stage and cusp_stage[0]["kind"] == "swallowtail"
    assert not cusp_stage[0]["approximate"]
    sw15 = report.swallowtail
    # the monitor root is simple: the next-order value stays away from 0
    assert abs(sw15.monitors["butterfly"]) > 1e3
    _SHARED["sw15"] = sw15.state

    coarse = hunt_swallowtail(nl, Grid(10, 10), PIPELINE_CONFIG)
    assert coarse.stage_reached == "swallowtail"
    table = convergence_study(nl, (10, 15, 20, 25, 30),
                              coarse.swallowtail.state)
    assert [row.n for row in table.rows] == [10, 15, 20, 25, 30]
    assert table.note == ""
    distances = [row.distance for row in table.rows]
    assert all(a > b for a, b in zip(distances, distances[1:]))
    final_step = np.linalg.norm(np.asarray(table.rows[-1].lam) -
                                np.asarray(table.rows[-2].lam))
    assert final_step < 1e-3
    # the chained N = 15 row reproduces the direct N = 15 hunt
    assert np.asarray(table.rows[1].lam) == pytest.approx(sw15.lam, abs=1e-6)
    assert time.perf_counter() - t0 < 300.0


def test_criterion_8_swallowtail_geometry_counts():
    t0 = time.perf_counter()
    state = pipeline_swallowtail()
    geometry = verify_swallowtail_geometry(state)
    assert geometry.counts == (2, 0)
    assert [piece.side for piece in geometry.slices] == ["cusp", "smooth"]
    lam3 = state.lam[2]
    offsets = [piece.lam3 - lam3 for piece in geometry.slices]
    assert offsets[0] * offsets[1] < 0.0  # one slice on each side
    assert time.perf_counter() - t0 < 120.0


def test_criterion_9_commutation_with_classifier_oracle():
    t0 = time.perf_counter()
    grid = Grid(3, 3)
    n = grid.size
    cases = ((PolynomialNonlinearity(tail=(0.37, -0.21)), 0.45, -0.3),
             (PolynomialNonlinearity(tail=(0.5,)), -0.2, 0.6))
    for nl, lam2, lam3 in cases:
        prob = Problem(grid, nl)
        lam = np.array([-laplacian_eigenvalue(grid), lam2, lam3])
        alpha = laplacian_eigenvector(grid)
        alpha = alpha / np.sqrt(grid.cell_area * (alpha @ alpha))
        u = np.zeros(n)
        level1 = AugmentedState(prob, 1, u, lam, alpha=alpha, active=(0,))
        v = solve_v(level1)
        f = nl.derivative(2, u, lam)
        vbar, _ = squared_auxiliary(prob.gu(f[1]).toarray(), alpha,
                                    -f[2] * alpha**2)
        oracle = grid_tensor_oracle(u, lam, nl, prob.lap)
        closed = closed_form_tests(oracle, alpha,
                                   Tolerances(zero_test=np.inf,
                                              solvability=np.inf))
        assert np.max(np.abs(v - closed.v)) < 1e-12
        assert grid_monitor(level1, 3) == pytest.approx(closed.cusp,
                                                        abs=1e-12)
        assert grid_monitor(level1, 4) == pytest.approx(
            closed.swallowtail, abs=1e-12)
        res2 = residual_jacobian(
            AugmentedState(prob, 2, u, lam, alpha=alpha,
                           active=(0, 1)))[0]
        assert res2[-1] == pytest.approx(closed.cusp, abs=1e-12)
        res3 = residual_jacobian(
            AugmentedState(prob, 3, u, lam, alpha=alpha, vbar=vbar,
                           active=(0, 1, 2)))[0]
        assert res3[3 * n + 1] == pytest.approx(closed.cusp, abs=1e-12)
        assert res3[-1] == pytest.approx(closed.swallowtail, abs=1e-12)
        assert np.max(np.abs(res3[2 * n:3 * n])) < 1e-12
    assert time.perf_counter() - t0 < 1.0
