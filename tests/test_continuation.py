"""Predictor-corrector continuation, tangents, events, branch control."""

import numpy as np
import pytest

from aseries.augmented import AugmentedState, MonitorRecord, Problem, cusp_monitor
from aseries.continuation import (
    BranchPoint,
    ContinuationProblem,
    ConvergenceError,
    NonFiniteResidualError,
    RankDeficientError,
    SingularJacobianError,
    augmented_continuation_problem,
    detect_events,
    initial_point,
    newton_solve,
    run_branch,
    step,
    tangent,
)
from aseries.poisson import ExpSineNonlinearity, Grid, PolynomialNonlinearity
from aseries.augmented import residual_jacobian


def circle_problem():
    """Unit circle with the first coordinate as the fold parameter."""
    return ContinuationProblem(
        system=lambda z: (np.array([z[0] ** 2 + z[1] ** 2 - 1.0]),
                          np.array([[2.0 * z[0], 2.0 * z[1]]])),
        monitors={"cusp": lambda z: z[1] - 0.5},
        fold_index=0,
    )


def circle_start():
    return initial_point(circle_problem(), np.array([0.0, -1.0]),
                         orient_index=0)


class TestNewton:
    def test_scalar_quadratic(self):
        z, iters = newton_solve(lambda z: (z**2 - 4.0,
                                           np.array([[2.0 * z[0]]])),
                                np.array([3.0]))
        assert z[0] == pytest.approx(2.0, abs=1e-9)
        assert iters <= 6

    def test_already_converged_counts_zero(self):
        z, iters = newton_solve(lambda z: (z - 2.0, np.eye(1)),
                                np.array([2.0]))
        assert iters == 0

    def test_singular_jacobian(self):
        with pytest.raises(SingularJacobianError):
            newton_solve(lambda z: (z**2 + 1.0, np.array([[0.0]])),
                         np.array([0.0]))

    def test_non_finite_residual_named(self):
        # the first step lands on z = 3, where the residual overflows
        def system(z):
            return np.where(z > 1.0, np.inf, z - 3.0), np.eye(1)

        with pytest.raises(NonFiniteResidualError,
                           match=r"iteration 1 \(\|R\| = inf\)") as info:
            newton_solve(system, np.array([0.0]))
        assert not isinstance(info.value, ConvergenceError)

    def test_nonconvergence_carries_best_iterate(self):
        # Newton on z^(1/3)-like slow contraction: z -> (2/3) z
        with pytest.raises(ConvergenceError) as info:
            newton_solve(lambda z: (z**3, np.array([[3.0 * z[0] ** 2]])),
                         np.array([1000.0]), max_iter=10)
        err = info.value
        assert err.iterations == 10
        assert err.z is not None and err.residual_norm > 1e-9

    def test_perturbed_eigen_fold(self):
        # polynomial family on the 1x1 grid: exact fold at lam1 = 16,
        # normalized kernel alpha = +-2; Newton converges from nearby
        prob = Problem(Grid(1, 1), PolynomialNonlinearity())
        for a0, sign in ((2.1, 1.0), (-1.9, -1.0)):
            tmpl = AugmentedState(prob, 1, np.zeros(1),
                                  np.array([16.1, 0.0, 0.0]),
                                  alpha=np.array([a0]), active=(0,))
            z, iters = newton_solve(
                lambda z: residual_jacobian(tmpl.with_vector(z)),
                tmpl.pack())
            out = tmpl.with_vector(z)
            assert out.lam[0] == pytest.approx(16.0, abs=1e-8)
            assert out.alpha[0] == pytest.approx(2.0 * sign, abs=1e-8)
            assert iters <= 6


class TestTangent:
    def test_linear(self):
        t = tangent(np.array([[1.0, -1.0]]))
        assert np.allclose(t, np.array([1.0, 1.0]) / np.sqrt(2))

    def test_orientation_follows_previous(self):
        prev = -np.array([1.0, 1.0]) / np.sqrt(2)
        t = tangent(np.array([[1.0, -1.0]]), previous=prev)
        assert t @ prev > 0

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            tangent(np.array([[0.0, 0.0]]))

    def test_fold_parameter_component_vanishes_at_fold(self):
        # circle at (1, 0): the z0 component of the tangent is zero
        t = tangent(np.array([[2.0, 0.0]]), previous=np.array([0.0, 1.0]))
        assert abs(t[0]) < 1e-14
        assert t[1] == pytest.approx(1.0)


class TestStep:
    def test_linear_problem_exact(self):
        lin = ContinuationProblem(lambda z: (np.array([z[0] - z[1]]),
                                             np.array([[1.0, -1.0]])))
        p0 = initial_point(lin, np.zeros(2))
        p1 = step(lin, p0, np.sqrt(2.0))
        assert np.allclose(p1.z, [1.0, 1.0], atol=1e-12)
        assert p1.newton_iters <= 1

    def test_arclength_is_path_length_on_linear_problem(self):
        lin = ContinuationProblem(lambda z: (np.array([z[0] - z[1]]),
                                             np.array([[1.0, -1.0]])))
        p0 = initial_point(lin, np.zeros(2))
        res = run_branch(lin, p0, ds0=np.sqrt(2.0), max_steps=5, ds_max=2.0)
        path = sum(np.linalg.norm(b.z - a.z)
                   for a, b in zip(res.points, res.points[1:]))
        assert abs(res.points[-1].s - path) < 1e-12

    def test_corrector_invariants_on_circle(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=25)
        for point in res.points:
            assert abs(np.linalg.norm(point.tangent) - 1.0) < 1e-12
            assert abs(point.z[0] ** 2 + point.z[1] ** 2 - 1.0) < 1e-9
        for a, b in zip(res.points, res.points[1:]):
            assert a.tangent @ b.tangent > 0
            ds = b.s - a.s
            gap = a.tangent @ (b.z - (a.z + ds * a.tangent))
            assert abs(gap) < 1e-12


class TestEvents:
    def test_fold_and_monitor_events_refined(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=40, monitor_names=("fold", "cusp"))
        folds = [e for e in res.events if e.kind == "fold"]
        cusps = [e for e in res.events if e.kind == "cusp"]
        assert folds and cusps
        for e in folds:
            assert not e.approximate
            assert abs(e.point.z[0]) == pytest.approx(1.0, abs=1e-7)
            assert abs(e.monitor_value) < 1e-8
        for e in cusps:
            assert not e.approximate
            assert e.point.z[1] == pytest.approx(0.5, abs=1e-8)

    def test_stop_at_event(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=40, monitor_names=("fold",),
                         stop_at=("fold",))
        assert res.stopped_on == "event:fold"
        assert res.events[0].kind == "fold"

    def test_blowup_reported_unrefined(self):
        a = BranchPoint(np.zeros(2), 0.0, np.array([1.0, 0.0]),
                        MonitorRecord(cusp=1e-3), 1, 2)
        b = BranchPoint(np.ones(2), 0.5, np.array([1.0, 0.0]),
                        MonitorRecord(cusp=0.5, blowup_flag=True), 1, 2)
        events = detect_events(circle_problem(), a, b, ("blowup",))
        assert len(events) == 1
        assert events[0].kind == "blowup"
        assert events[0].approximate
        assert events[0].point is b

    def test_fold_events_need_fold_index(self):
        lin = ContinuationProblem(lambda z: (np.array([z[0] - z[1]]),
                                             np.array([[1.0, -1.0]])))
        p0 = initial_point(lin, np.zeros(2))
        p1 = step(lin, p0, 0.5)
        with pytest.raises(ValueError):
            detect_events(lin, p0, p1, ("fold",))


class TestRunBranch:
    def test_step_budget(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=3)
        assert res.stopped_on == "steps"
        assert len(res.points) == 4

    def test_bounds_stop(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=40, bounds=lambda z: z[1] < 0.9)
        assert res.stopped_on == "bounds"
        assert res.points[-1].z[1] >= 0.9

    def test_recovers_from_oversized_step(self):
        # ds = 3 pins the corrector to a plane missing the circle;
        # halving eventually admits a valid step
        res = run_branch(circle_problem(), circle_start(), ds0=3.0,
                         max_steps=3, ds_max=4.0)
        assert res.stopped_on == "steps"
        assert len(res.points) == 4


class TestAugmentedWrapper:
    def test_needs_square_plus_one(self):
        prob = Problem(Grid(2, 2), PolynomialNonlinearity())
        tmpl = AugmentedState(prob, 1, np.zeros(4), np.array([5.0, 0.0, 0.0]),
                              alpha=np.ones(4), active=(0,))
        with pytest.raises(ValueError):
            augmented_continuation_problem(tmpl)

    def test_unknown_monitor_name(self):
        prob = Problem(Grid(2, 2), PolynomialNonlinearity())
        tmpl = AugmentedState(prob, 1, np.zeros(4), np.array([5.0, 0.0, 0.0]),
                              alpha=np.ones(4), active=(0, 1))
        with pytest.raises(ValueError):
            augmented_continuation_problem(tmpl, monitors=("nope",))

    def test_monitor_wiring(self):
        prob = Problem(Grid(2, 2), PolynomialNonlinearity())
        tmpl = AugmentedState(prob, 1, np.zeros(4), np.array([5.0, 0.3, 0.0]),
                              alpha=np.ones(4), active=(0, 1))
        cp = augmented_continuation_problem(tmpl, monitors=("cusp",),
                                            fold_parameter=1)
        z = tmpl.pack()
        assert cp.monitors["cusp"](z) == cusp_monitor(tmpl.with_vector(z))
        # lam index 1 sits second in the packed parameter block
        assert cp.fold_index == tmpl.dimension - 1


@pytest.fixture(scope="module")
def branch():
    grid = Grid(10, 10)
    prob = Problem(grid, ExpSineNonlinearity())
    tmpl = AugmentedState(prob, 0, np.zeros(grid.size), np.zeros(3),
                          active=(0,))
    cp = augmented_continuation_problem(tmpl, fold_parameter=0)
    start = initial_point(cp, tmpl.pack(), orient_index=grid.size)
    return cp, tmpl, start


class TestBratuBranch:
    """Solution branch of -Lu = lam1 exp(u) on the unit square."""

    def test_initial_tangent_increases_lam1(self, branch):
        cp, tmpl, start = branch
        assert start.newton_iters == 0
        assert start.tangent[-1] > 0

    def test_fold_event(self, branch):
        cp, tmpl, start = branch
        res = run_branch(cp, start, ds0=0.2, max_steps=120,
                         monitor_names=("fold",), stop_at=("fold",))
        assert res.stopped_on == "event:fold"
        event = res.events[0]
        assert abs(event.monitor_value) < 1e-8
        fold = tmpl.with_vector(event.point.z)
        assert 6.5 < fold.lam[0] < 7.0
        assert fold.u.max() > 1.0

    def test_branch_turns_back_and_signature_flips(self, branch):
        cp, tmpl, start = branch
        res = run_branch(cp, start, ds0=0.2, max_steps=60,
                         monitor_names=("fold",))
        lams = [tmpl.with_vector(p.z).lam[0] for p in res.points]
        assert lams[-1] < max(lams) - 0.5
        assert {p.signature for p in res.points} == {-1, 1}

    def test_deterministic(self, branch):
        cp, tmpl, start = branch
        first = run_branch(cp, start, ds0=0.2, max_steps=30,
                           monitor_names=("fold",))
        second = run_branch(cp, start, ds0=0.2, max_steps=30,
                            monitor_names=("fold",))
        assert len(first.points) == len(second.points)
        for a, b in zip(first.points, second.points):
            assert np.array_equal(a.z, b.z)
            assert a.s == b.s
            assert np.array_equal(a.tangent, b.tangent)
