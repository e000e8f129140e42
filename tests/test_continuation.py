"""Predictor-corrector continuation, tangents, events, branch control."""

import dataclasses
import inspect
import re

import numpy as np
import pytest
import scipy.sparse as sp

from aseries import augmented, continuation, harness
from aseries.augmented import (
    AugmentedState,
    MonitorRecord,
    Problem,
)
from aseries.cli import main
from aseries.continuation import (
    MAX_NEWTON,
    NEWTON_STALL,
    BranchPoint,
    ContinuationError,
    ContinuationProblem,
    ConvergenceError,
    NonFiniteResidualError,
    RankDeficientError,
    SingularJacobianError,
    augmented_continuation_problem,
    detect_events,
    initial_point,
    newton_solve,
    reversed_point,
    run_branch,
    step,
    tangent,
)
from aseries.harness import (
    HuntConfig,
    hunt_swallowtail,
    locate,
    seed_kernel_vector,
)
from aseries.poisson import ExpSineNonlinearity, Grid, PolynomialNonlinearity
from aseries.augmented import residual_jacobian
from helpers import (
    dense_det_sign,
    dense_rank_check,
    dense_tangent,
    euler_step,
    grid_monitor,
    relative_error,
)

ROBUST_CONFIG = HuntConfig(lam0=(0.0, 0.15, 2.0), lam2_direction=1,
                           lam3_direction=-1, stage3_window=(3.0, 0.25, 2.5))


def circle_problem():
    """Unit circle z = (y, x) with the last coordinate x as the fold
    parameter."""
    return ContinuationProblem(
        system=lambda z: (np.array([z[0] ** 2 + z[1] ** 2 - 1.0]),
                          np.array([[2.0 * z[0], 2.0 * z[1]]])),
        monitors={"cusp": lambda z, factor: z[0] - 0.5},
        fold_index=1,
    )


def circle_start():
    return initial_point(circle_problem(), np.array([-1.0, 0.0]))


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


class TestNewtonStall:
    @staticmethod
    def arctan(z):
        """Newton on arctan from |z| > 1.39 overshoots farther at every
        iterate: |R| climbs towards pi/2, and the start stays the best."""
        return np.arctan(z), np.diag(1.0 / (1.0 + z**2))

    def test_growing_iterates_stop_before_max_newton(self):
        with pytest.raises(ConvergenceError, match="stalled") as info:
            newton_solve(self.arctan, np.array([2.0]), stall=NEWTON_STALL)
        err = info.value
        assert err.iterations == NEWTON_STALL < MAX_NEWTON
        assert err.z == pytest.approx([2.0])
        assert err.residual_norm == np.arctan(2.0)

    def test_diverging_corrector_stalls(self):
        # R = arctan(x - y^2) is solved at the origin with tangent e_y;
        # the step to y = 2 starts Newton on arctan(x - 4) at x = 0
        problem = ContinuationProblem(
            system=lambda z: (np.arctan([z[0] - z[1] ** 2]),
                              np.array([[1.0, -2.0 * z[1]]])
                              / (1.0 + (z[0] - z[1] ** 2) ** 2)))
        start = initial_point(problem, np.zeros(2))
        with pytest.raises(ConvergenceError, match="stalled") as info:
            step(problem, start, 2.0)
        assert info.value.iterations < MAX_NEWTON


def corrector_outcomes(stall, run) -> list:
    """(start, converged z or None, iterations) of every continuation
    corrector of run() with NEWTON_STALL = stall."""
    outcomes, real = [], continuation.newton_solve

    def recording(system, z0, *args):
        try:
            z, iters = real(system, z0, *args)
        except ContinuationError as exc:
            outcomes.append((z0, None, getattr(exc, "iterations", None)))
            raise
        outcomes.append((z0, z, iters))
        return z, iters

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "newton_solve", recording)
        mp.setattr(continuation, "NEWTON_STALL", stall)
        run()
    return outcomes


@pytest.mark.parametrize("name", ["robust-10x10", "default-10x10",
                                  "continue-15x15"])
def test_stall_rule_keeps_every_converging_corrector(name, tmp_path):
    """Every corrector that converges without the stall rule converges
    with it, through the same iterates; the rule only shortens the
    failed ones (4 on the default-config hunt)."""
    def run():
        if name == "continue-15x15":
            assert main(["continue", "--problem", "bratu", "--grid", "15x15",
                         "--level", "0", "--active", "l1", "--stop-at",
                         "fold", "--out", str(tmp_path / "branch.csv")]) == 0
        else:
            config = ROBUST_CONFIG if name.startswith("robust") else \
                HuntConfig()
            report = hunt_swallowtail(ExpSineNonlinearity(), Grid(10, 10),
                                      config)
            assert report.stage_reached == "swallowtail"

    free, held = corrector_outcomes(None, run), corrector_outcomes(
        NEWTON_STALL, run)
    assert len(free) == len(held)
    for (start, z, iters), (start_h, z_h, iters_h) in zip(free, held):
        assert np.array_equal(start, start_h)
        assert (z is None) == (z_h is None)
        if z is not None:
            assert np.array_equal(z, z_h) and iters == iters_h
        else:
            assert iters_h < MAX_NEWTON
    failed = sum(z is None for _, z, _ in held)
    assert failed == (4 if name.startswith("default") else 0)


def with_starts(euler: bool, run):
    """(run(), Newton iterations of its correctors), each corrector
    started as `step` starts it, or with euler from the Euler point
    (`helpers.euler_step`)."""
    iterations, real = [], continuation.newton_solve

    def counting(system, z0, *args):
        z, iters = real(system, z0, *args)
        iterations.append(iters)
        return z, iters

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuation, "newton_solve", counting)
        if euler:
            mp.setattr(continuation, "step", euler_step)
        result = run()
    return result, sum(iterations)


def assert_same_run(run, oracle, n_lam: int) -> None:
    """Same accepted points to 1e-10 relative, same events with lam to
    1e-12, same rejected steps and the same stop."""
    assert len(run.points) == len(oracle.points)
    for a, b in zip(run.points, oracle.points):
        assert np.linalg.norm(a.z - b.z) <= 1e-10 * np.linalg.norm(b.z)
    assert ([(e.kind, e.approximate) for e in run.events]
            == [(e.kind, e.approximate) for e in oracle.events])
    for a, b in zip(run.events, oracle.events):
        assert np.abs(a.point.z[-n_lam:] - b.point.z[-n_lam:]).max() <= 1e-12
    assert run.rejected == oracle.rejected
    assert run.stopped_on == oracle.stopped_on


class TestHermiteStart:
    """The Hermite start against the Euler-start oracle: the same steps,
    points and events, in fewer Newton iterations."""

    def test_interpolant_is_exact_on_cubics(self):
        # a cubic path is its own Hermite interpolant, also where the
        # interpolant extrapolates: behind a, between a and b, past b
        coeffs = np.random.default_rng(0).standard_normal((4, 3))

        def point(s):
            z = s ** np.arange(4) @ coeffs
            dz = np.arange(1, 4) * s ** np.arange(3) @ coeffs[1:]
            return BranchPoint(z, s, dz, MonitorRecord(), 0, 0)

        a, b = point(0.4), point(1.1)
        for ds in (-0.7, 0.3, 1.9):
            assert continuation._hermite(a, b, ds) == pytest.approx(
                point(a.s + ds).z, rel=1e-12, abs=1e-12)
            assert continuation._hermite(b, a, ds) == pytest.approx(
                point(b.s + ds).z, rel=1e-12, abs=1e-12)

    @staticmethod
    def bratu_branch(size: int, metric: bool):
        """The level-0 Bratu branch to its fold on a size x size grid,
        with the Hermite start and with the Euler start: ((run, Newton
        iterations), (oracle run, its iterations)).  Without metric its
        steps are Euclidean."""
        grid = Grid(size, size)
        tmpl = AugmentedState(Problem(grid, ExpSineNonlinearity()), 0,
                              np.zeros(grid.size), np.zeros(3), active=(0,))
        cp = augmented_continuation_problem(tmpl)
        if not metric:
            cp = dataclasses.replace(cp, metric=None)
        start = initial_point(cp, tmpl.pack())

        def run():
            return run_branch(cp, start, ds0=0.1, max_steps=200,
                              stop_at=("fold",))

        return with_starts(False, run), with_starts(True, run)

    def test_bratu_branch_to_its_fold(self):
        # measured on Euclidean steps, which at 15x15 are longer in L2
        # than the 10x10 ones and read 36/70 iterations
        (found, iters), (oracle, oracle_iters) = self.bratu_branch(15, False)
        assert found.stopped_on == "event:fold"
        assert_same_run(found, oracle, 1)
        assert iters <= 0.6 * oracle_iters

    @pytest.mark.parametrize("size", [10, 15, 30])
    def test_bratu_branch_in_the_metric(self, size):
        # the discrete L2 steps are the same on every grid: 27 points,
        # and 38 Hermite against 58 Euler iterations at each size
        (found, iters), (oracle, oracle_iters) = self.bratu_branch(size,
                                                                    True)
        assert found.stopped_on == "event:fold"
        assert_same_run(found, oracle, 1)
        assert len(found.points) == 27
        assert iters < oracle_iters

    def test_robust_hunt_lines(self):
        def run():
            lines, real = [], harness.trace_line

            def recording(state, level, *args, **kwargs):
                for direction, template, found in real(state, level, *args,
                                                       **kwargs):
                    lines.append((level, found))
                    yield direction, template, found

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "trace_line", recording)
                report = hunt_swallowtail(ExpSineNonlinearity(),
                                          Grid(10, 10), ROBUST_CONFIG)
            return report, lines

        ((report, lines), iters), ((oracle, oracle_lines), oracle_iters) = (
            with_starts(False, run), with_starts(True, run))
        assert [level for level, _ in lines] == [0, 1, 2]
        assert [level for level, _ in oracle_lines] == [0, 1, 2]
        for (level, found), (_, expected) in zip(lines, oracle_lines):
            assert_same_run(found, expected, level + 1)
        assert report.swallowtail.lam == pytest.approx(
            oracle.swallowtail.lam, abs=1e-12)
        assert iters < oracle_iters


class TestTangent:
    def test_linear(self):
        t, _ = tangent(np.array([[1.0, -1.0]]))
        assert np.allclose(t, np.array([1.0, 1.0]) / np.sqrt(2))

    def test_orientation_follows_previous(self):
        prev = -np.array([1.0, 1.0]) / np.sqrt(2)
        t, _ = tangent(np.array([[1.0, -1.0]]), previous=prev)
        assert t @ prev > 0

    def test_rank_deficient(self):
        with pytest.raises(RankDeficientError):
            tangent(np.array([[0.0, 0.0]]))

    def test_singular_border_raises(self):
        # the bordering row repeats the first row, so the bordered matrix
        # is singular although jac keeps full row rank
        jac = np.array([[1.0, 0.0, 0.0], [0.0, 1e-5, 0.0]])
        prev = np.array([1.0, 0.0, 0.0])
        with pytest.raises(RankDeficientError,
                           match="bordered tangent matrix is singular"):
            tangent(jac, previous=prev)

    def test_fold_parameter_component_vanishes_at_fold(self):
        # circle at (1, 0): the z0 component of the tangent is zero
        t, _ = tangent(np.array([[2.0, 0.0]]),
                       previous=np.array([0.0, 1.0]))
        assert abs(t[0]) < 1e-14
        assert t[1] == pytest.approx(1.0)


class TestStep:
    def test_rank_tol_reaches_rank_check(self):
        # sigma_min(J) = 1e-5 passes at rank_tol 1e-8 and is rejected at
        # 1e-3 by the rank check of every accepted point
        jac = np.array([[1.0, 0.0, 0.0], [0.0, 1e-5, 0.0]])
        loose = ContinuationProblem(lambda z: (jac @ z, jac))
        strict = ContinuationProblem(lambda z: (jac @ z, jac), rank_tol=1e-3)
        p0 = initial_point(loose, np.zeros(3))
        assert np.allclose(p0.tangent, [0.0, 0.0, 1.0])
        with pytest.raises(RankDeficientError, match="singular value"):
            initial_point(strict, np.zeros(3))
        point = BranchPoint(np.zeros(3), 0.0, np.array([0.0, 0.0, 1.0]),
                            MonitorRecord(), 0, 0)
        step(loose, point, 0.0)
        with pytest.raises(RankDeficientError, match="singular value"):
            step(strict, point, 0.0)

    @pytest.mark.parametrize("fixture", ["branch", "fold_line"])
    def test_one_factorization_beyond_newton(self, request, monkeypatch,
                                             fixture):
        # Newton factors once per iteration, the tangent once more, and
        # the rank check reuses the tangent's LU.  Level 0 factors
        # [J; t^T] whole in continuation; level 1 factors only the
        # (n+1) x (n+1) G_u bordered by the kernel vector, in augmented
        cp, tmpl, start = request.getfixturevalue(fixture)
        module, size = ((continuation, len(start.z)) if tmpl.level == 0
                        else (augmented, tmpl.problem.grid.size + 1))
        shapes = []
        for patched in (continuation, augmented):
            def counted(mat, *args, owner=patched, real=patched.splu,
                        **kwargs):
                shapes.append((owner, mat.shape))
                return real(mat, *args, **kwargs)
            monkeypatch.setattr(patched, "splu", counted)
        point = step(cp, start, 0.1)
        assert point.newton_iters > 0
        # the other module factors nothing: the signature reads the
        # tangent's factor
        assert shapes == [(module, (size, size))] * (point.newton_iters + 1)

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
                         max_steps=40)
        folds = [e for e in res.events if e.kind == "fold"]
        cusps = [e for e in res.events if e.kind == "cusp"]
        assert folds and cusps
        for e in folds:
            assert not e.approximate
            assert abs(e.point.z[1]) == pytest.approx(1.0, abs=1e-7)
            assert abs(e.monitor_value) < 1e-8
        for e in cusps:
            assert not e.approximate
            assert e.point.z[0] == pytest.approx(0.5, abs=1e-8)

    def test_stop_at_event(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=40, stop_at=("fold",))
        assert res.stopped_on == "event:fold"
        assert res.events[0].kind == "fold"

    def test_fold_events_need_fold_index(self):
        lin = ContinuationProblem(lambda z: (np.array([z[0] - z[1]]),
                                             np.array([[1.0, -1.0]])))
        p0 = initial_point(lin, np.zeros(2))
        p1 = step(lin, p0, 0.5)
        with pytest.raises(ValueError):
            detect_events(lin, p0, p1, ("fold",))


def fold_bracket():
    """Accepted circle points at s = 1.2 and 1.6, either side of the
    fold at x = 1."""
    problem = circle_problem()
    before = circle_start()
    for _ in range(3):
        before = step(problem, before, 0.4)
    after = step(problem, before, 0.4)
    assert before.monitors.fold_direction > 0 > after.monitors.fold_direction
    return problem, before, after


def failing_steps(monkeypatch, failures: int, zero_at=None) -> list:
    """Patch `continuation.step` to fail its first `failures` calls, and
    to report a zero fold monitor on call `zero_at`; returns the list of
    requested step lengths."""
    lengths = []

    def patched(problem, point, ds, other=None):
        lengths.append(ds)
        if len(lengths) <= failures:
            raise ContinuationError("forced trial failure")
        trial = step(problem, point, ds, other)
        if len(lengths) == zero_at:
            trial.monitors = MonitorRecord(fold_direction=0.0)
        return trial

    monkeypatch.setattr(continuation, "step", patched)
    return lengths


class TestRefineFallback:
    def test_failed_secant_trial_retried_at_midpoint(self, monkeypatch):
        problem, before, after = fold_bracket()
        lengths = failing_steps(monkeypatch, 1)
        event = continuation._refine_event(problem, "fold", before, after)
        assert lengths[1] == 0.5 * (after.s - before.s)
        assert lengths[0] != lengths[1]
        assert not event.approximate
        assert abs(event.point.z[1]) == pytest.approx(1.0, abs=1e-7)

    def test_second_failure_ends_refinement(self, monkeypatch):
        problem, before, after = fold_bracket()
        lengths = failing_steps(monkeypatch, 2)
        event = continuation._refine_event(problem, "fold", before, after)
        assert len(lengths) == 2
        assert event.approximate
        m_lo = before.monitors.fold_direction
        m_hi = after.monitors.fold_direction
        better = before if abs(m_lo) <= abs(m_hi) else after
        assert event.point is better
        assert event.monitor_value == better.monitors.fold_direction

    def test_exact_zero_ends_refinement(self, monkeypatch):
        problem, before, after = fold_bracket()
        lengths = failing_steps(monkeypatch, 0, zero_at=1)
        event = continuation._refine_event(problem, "fold", before, after)
        assert len(lengths) == 1
        assert event.monitor_value == 0.0 and not event.approximate


def refined_on_line(monitor, monkeypatch):
    """(event, requested step lengths, monitor as a function of the step
    length) of refining the bracket s = 0 to 0.5 on the line y = x,
    whose steps are exact, with `monitor(x)` as the cusp monitor."""
    problem = ContinuationProblem(
        system=lambda z: (np.array([z[0] - z[1]]), np.array([[1.0, -1.0]])),
        monitors={"cusp": lambda z, factor: monitor(z[1])})
    before = initial_point(problem, np.zeros(2))
    after = step(problem, before, 0.5)
    lengths = failing_steps(monkeypatch, 0)
    event = continuation._refine_event(problem, "cusp", before, after)
    x0, dx = before.z[1], before.tangent[1]
    return event, lengths, lambda d: monitor(x0 + d * dx)


def stagnating_regula_falsi(m, width: float) -> tuple:
    """(trials, converged) on m(d) over [0, width] of regula falsi with
    a bisection after two updates of the same end, stopped at EVENT_TOL
    or a bracket of DS_MIN."""
    d_lo, d_hi, m_lo, m_hi = 0.0, width, m(0.0), m(width)
    scale = max(abs(m_lo), abs(m_hi))
    best = min(abs(m_lo), abs(m_hi))
    side = trials = 0
    while (best >= continuation.EVENT_TOL * scale
           and d_hi - d_lo >= continuation.DS_MIN):
        d = d_lo - m_lo * (d_hi - d_lo) / (m_hi - m_lo)
        if not d_lo < d < d_hi or abs(side) >= 2:
            d = 0.5 * (d_lo + d_hi)
        m_d = m(d)
        trials, best = trials + 1, min(best, abs(m_d))
        if np.sign(m_d) == np.sign(m_lo):
            d_lo, m_lo, side = d, m_d, max(side, 0) + 1
        else:
            d_hi, m_hi, side = d, m_d, min(side, 0) - 1
    return trials, best < continuation.EVENT_TOL * scale


class TestRefineRule:
    def test_curved_monitor_needs_fewer_trials(self, monkeypatch):
        # convex: plain regula falsi keeps the right end for ever, and
        # the bisecting rule needs every third trial to move it
        event, lengths, m = refined_on_line(
            lambda x: np.expm1(10.0 * (x - 0.1)), monkeypatch)
        assert not event.approximate
        assert event.point.z[1] == pytest.approx(0.1, abs=1e-9)
        assert stagnating_regula_falsi(m, 0.5) == (14, True)
        assert len(lengths) == 7

    def test_bracket_below_ds_min_is_no_stop(self, monkeypatch):
        # slope 20 at the root: |m| < EVENT_TOL * scale needs the root to
        # about 1e-9 in x, far inside DS_MIN
        event, lengths, m = refined_on_line(
            lambda x: np.expm1(20.0 * (x - 0.32)), monkeypatch)
        d_lo, d_hi = 0.0, 0.5
        for d in lengths[:-1]:
            if np.sign(m(d)) == np.sign(m(d_lo)):
                d_lo = d
            else:
                d_hi = d
        assert d_hi - d_lo < continuation.DS_MIN
        assert not event.approximate
        assert event.point.z[1] == pytest.approx(0.32, abs=1e-9)

    def test_flat_side_does_not_stall(self, monkeypatch):
        # m is flat at -1 near the left end (expm1(-20) = -1 + 2e-9), so
        # the Anderson-Bjorck factor on the right end came out near 1e-14;
        # without the STALL_TRIALS bisection the trials then crept along
        # the right end until REFINE_BUDGET ran out
        event, lengths, m = refined_on_line(
            lambda x: np.expm1(100.0 * (x - 0.2)), monkeypatch)
        assert not event.approximate
        assert stagnating_regula_falsi(m, 0.5) == (14, True)
        assert len(lengths) == 12

    def test_sign_jump_ends_at_the_better_end(self, monkeypatch):
        event, lengths, _ = refined_on_line(
            lambda x: 1.0 if x > 0.2 else -2.0, monkeypatch)
        # no trial improves on |m| = 1 at the bracket's end s = 0.5; the
        # bracket closes on the jump until it is narrower than DS_MIN
        # (17 trials; 45, down to BRACKET_RESOLUTION, without that stop)
        assert len(lengths) == 17
        assert event.approximate
        assert event.monitor_value == 1.0
        assert event.point.s == pytest.approx(0.5, abs=1e-15)
        assert abs(lengths[-1] - 0.2 * np.sqrt(2.0)) < continuation.DS_MIN

    def test_pole_ends_at_the_better_end(self, monkeypatch):
        # 1/(x - 0.2) changes sign through infinity: |m| grows toward the
        # crossing, so every trial is worse than the ends (27 trials; all
        # of REFINE_BUDGET without the DS_MIN stop for such brackets)
        event, lengths, _ = refined_on_line(lambda x: 1.0 / (x - 0.2),
                                            monkeypatch)
        assert len(lengths) == 27
        assert event.approximate
        assert event.monitor_value == -5.0 and event.point.s == 0.0
        assert abs(lengths[-1] - 0.2 * np.sqrt(2.0)) < continuation.DS_MIN


class TestRunBranch:
    def test_stop_at_needs_a_watched_kind(self, monkeypatch):
        # a level-0 Bratu branch watches its fold and nothing else
        grid = Grid(6, 6)
        tmpl = AugmentedState(Problem(grid, ExpSineNonlinearity()), 0,
                              np.zeros(grid.size), np.zeros(3), active=(0,))
        cp = augmented_continuation_problem(tmpl)
        start = initial_point(cp, tmpl.pack())
        lengths = failing_steps(monkeypatch, 0)
        with pytest.raises(ValueError, match=r"stop_at kind 'cusp' is not "
                           r"watched by this problem \(watched: "
                           r"\('fold',\)\)"):
            run_branch(cp, start, stop_at=("cusp",))
        assert lengths == []  # rejected before the first step
        res = run_branch(cp, start, ds0=0.2, max_steps=120, stop_at=("fold",))
        assert res.stopped_on == "event:fold"

    def test_step_budget(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=3)
        assert res.stopped_on == "steps"
        assert len(res.points) == 4

    def test_bounds_stop(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=40, bounds=lambda z: z[0] < 0.9)
        assert res.stopped_on == "bounds"
        assert res.points[-1].z[0] >= 0.9

    def test_recovers_from_oversized_step(self):
        # ds = 3 pins the corrector to a plane missing the circle;
        # halving eventually admits a valid step
        res = run_branch(circle_problem(), circle_start(), ds0=3.0,
                         max_steps=3, ds_max=4.0)
        assert res.stopped_on == "steps"
        assert len(res.points) == 4

    def test_step_failure_at_minimal_step(self):
        # no residual beats a zero tolerance, so every step fails and
        # the step halves down to DS_MIN
        strict = dataclasses.replace(circle_problem(), newton_tol=0.0)
        res = run_branch(strict, circle_start(), ds0=0.3, max_steps=3)
        assert res.stopped_on == "step-failure"
        assert len(res.points) == 1
        # every halving is kept, down to the failure at DS_MIN
        s, ds, errors, messages = zip(*res.rejected)
        assert ds[:3] == (0.3, 0.15, 0.075) and ds[-1] == continuation.DS_MIN
        assert set(s) == {0.0} and set(errors) == {"ConvergenceError"}
        assert all("no convergence" in message for message in messages)

    def test_rejected_steps_are_kept(self, monkeypatch):
        lengths = failing_steps(monkeypatch, 2)
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=2)
        assert res.stopped_on == "steps" and len(res.points) == 3
        assert lengths[:3] == [0.3, 0.15, 0.075]
        assert res.rejected == [
            (0.0, 0.3, "ContinuationError", "forced trial failure"),
            (0.0, 0.15, "ContinuationError", "forced trial failure")]

    def test_accepted_run_rejects_nothing(self):
        res = run_branch(circle_problem(), circle_start(), ds0=0.3,
                         max_steps=3)
        assert res.rejected == []

    @pytest.mark.parametrize("ds0,ds_max", [
        (np.inf, 0.5), (0.1, np.inf), (np.inf, np.inf), (np.nan, 0.5),
        (0.0, 0.5), (0.1, -1.0)])
    def test_rejects_bad_step_lengths(self, ds0, ds_max):
        # an infinite step never halves below DS_MIN, so it would hang
        with pytest.raises(ValueError, match="positive and finite"):
            run_branch(circle_problem(), circle_start(), ds0=ds0,
                       max_steps=3, ds_max=ds_max)


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
        cp = augmented_continuation_problem(tmpl, monitors=("cusp",))
        z = tmpl.pack()
        # a monitor reads the tangent's factor at z
        factor = tangent(cp.system(z)[1])[1]
        assert cp.monitors["cusp"](z, factor) == \
            grid_monitor(tmpl.with_vector(z), 3)
        # a fold line watches its monitors, not a fold
        assert cp.fold_index is None
        # a solution branch watches its one active parameter, packed last
        branch = dataclasses.replace(tmpl, level=0, alpha=None, active=(1,))
        cp = augmented_continuation_problem(branch)
        assert cp.fold_index == branch.dimension - 1

    def test_watched_kinds_follow_the_level(self):
        prob = Problem(Grid(2, 2), PolynomialNonlinearity())
        line = AugmentedState(prob, 1, np.zeros(4), np.array([5.0, 0.3, 0.0]),
                              alpha=np.ones(4), active=(0, 1))
        branch = dataclasses.replace(line, level=0, alpha=None, active=(0,))
        cusp_line = dataclasses.replace(line, level=2, active=(0, 1, 2))
        assert augmented_continuation_problem(branch).watched == ("fold",)
        assert augmented_continuation_problem(line).watched == ()
        both = ("cusp", "swallowtail")
        assert augmented_continuation_problem(line, both).watched == both
        watched = augmented_continuation_problem(cusp_line, ("swallowtail",))
        assert watched.watched == ("swallowtail",)

    @pytest.mark.parametrize("name,order", [("swallowtail", 4),
                                            ("butterfly", 5)])
    def test_v_monitor_wiring(self, name, order):
        prob = Problem(Grid(2, 2), PolynomialNonlinearity((1.0,)))
        tmpl = AugmentedState(prob, 1, np.array([0.1, -0.2, 0.3, 0.05]),
                              np.array([5.0, 0.3, 0.2]),
                              alpha=np.array([1.0, 0.5, -0.5, 2.0]),
                              active=(0, 1))
        cp = augmented_continuation_problem(tmpl, monitors=(name,))
        z = tmpl.pack()
        state = tmpl.with_vector(z)
        expected = grid_monitor(state, order)
        assert expected != 0.0
        # the same bits from the BorderedGu that the tangent factored
        factor = tangent(cp.system(z)[1])[1]
        assert cp.monitors[name](z, factor) == expected


@pytest.fixture(scope="module")
def branch():
    grid = Grid(10, 10)
    prob = Problem(grid, ExpSineNonlinearity())
    tmpl = AugmentedState(prob, 0, np.zeros(grid.size), np.zeros(3),
                          active=(0,))
    cp = augmented_continuation_problem(tmpl)
    start = initial_point(cp, tmpl.pack())
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
                         stop_at=("fold",))
        assert res.stopped_on == "event:fold"
        event = res.events[0]
        assert abs(event.monitor_value) < 1e-8
        fold = tmpl.with_vector(event.point.z)
        assert 6.5 < fold.lam[0] < 7.0
        assert fold.u.max() > 1.0

    def test_branch_turns_back_and_signature_flips(self, branch):
        cp, tmpl, start = branch
        res = run_branch(cp, start, ds0=0.2, max_steps=60)
        lams = [tmpl.with_vector(p.z).lam[0] for p in res.points]
        assert lams[-1] < max(lams) - 0.5
        assert {p.signature for p in res.points} == {-1, 1}
        # at every accepted point and at the refined fold, the sign read
        # from the tangent's factor is a dense slogdet's of G_u, and it
        # flips exactly where t_lam does
        assert [e.kind for e in res.events] == ["fold"]
        for point in res.points + [res.events[0].point]:
            state = tmpl.with_vector(point.z)
            f1 = state.problem.nl.derivative(1, state.u, state.lam)[1]
            gu = state.problem.lap + sp.diags(f1)
            assert point.signature == dense_det_sign(gu) != 0
        for before, after in zip(res.points, res.points[1:]):
            turned = (np.sign(before.monitors.fold_direction)
                      != np.sign(after.monitors.fold_direction))
            assert (before.signature != after.signature) == turned

    def test_deterministic(self, branch):
        cp, tmpl, start = branch
        first = run_branch(cp, start, ds0=0.2, max_steps=30)
        second = run_branch(cp, start, ds0=0.2, max_steps=30)
        assert len(first.points) == len(second.points)
        for a, b in zip(first.points, second.points):
            assert np.array_equal(a.z, b.z)
            assert a.s == b.s
            assert np.array_equal(a.tangent, b.tangent)


class TestMetric:
    """The discrete L2 metric in which augmented lines step."""

    @staticmethod
    def bratu(size: int):
        grid = Grid(size, size)
        tmpl = AugmentedState(Problem(grid, ExpSineNonlinearity()), 0,
                              np.zeros(grid.size), np.zeros(3), active=(0,))
        return tmpl, augmented_continuation_problem(tmpl)

    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_weights(self, level):
        grid = Grid(15, 15)
        prob = Problem(grid, ExpSineNonlinearity())
        tmpl = AugmentedState(prob, level, np.zeros(grid.size), np.zeros(3),
                              alpha=np.ones(grid.size) if level else None,
                              active=tuple(range(level + 1)))
        metric = augmented_continuation_problem(tmpl).metric
        grid_part = metric[:-(level + 1)]
        assert len(metric) == tmpl.dimension
        assert np.all(grid_part == prob.weight / continuation.REFERENCE_AREA)
        assert np.all(metric[-(level + 1):] == 1.0)
        # exactly the identity on the 10x10 grid
        ten = Problem(Grid(10, 10), ExpSineNonlinearity())
        tmpl = dataclasses.replace(tmpl, problem=ten, u=np.zeros(100),
                                   alpha=tmpl.alpha[:100] if level else None)
        assert np.all(augmented_continuation_problem(tmpl).metric == 1.0)

    def test_arclength_does_not_grow_with_the_grid(self):
        # arclength between lam1 = 2 and 6 on the solution branch, summed
        # from the chords of its accepted points: in the metric it moves
        # by O(h^2) from grid to grid, in the Euclidean norm it grows
        # like N (measured 5.4686, 5.4701, 5.4704 against 5.47, 8.08 and
        # 11.06 at N = 10, 20 and 30)
        metric_lengths, euclidean_lengths = [], []
        for size in (10, 20, 30):
            tmpl, cp = self.bratu(size)
            run = run_branch(cp, initial_point(cp, tmpl.pack()),
                             stop_at=("fold",))
            z = np.array([p.z for p in run.points])
            for weights, found in ((cp.metric, metric_lengths),
                                   (1.0, euclidean_lengths)):
                chords = np.sqrt((np.diff(z, axis=0) ** 2 * weights).sum(1))
                s = np.append(0.0, np.cumsum(chords))
                found.append(np.interp(6.0, z[:, -1], s)
                             - np.interp(2.0, z[:, -1], s))
        coarse, middle, fine = metric_lengths
        assert abs(coarse - fine) < 1e-3 * fine
        # the differences shrink like h^2: by 4.5 in exact O(h^2)
        assert abs(middle - fine) < abs(coarse - middle) / 3.0
        assert euclidean_lengths[0] == coarse
        assert euclidean_lengths[2] > 1.8 * euclidean_lengths[0]

    def test_tangents_are_metric_unit_and_oriented(self):
        rng = np.random.default_rng(3)
        for n in range(1, 20):
            jac = jacobian_with_singular_values(rng.uniform(1.0, 10.0, n),
                                                n, True)
            metric = rng.uniform(0.1, 10.0, n + 1)
            previous = rng.standard_normal(n + 1)
            found, factor = tangent(jac, previous, metric)
            euclidean, _ = tangent(jac, previous)
            assert abs(found @ (metric * found) - 1.0) < 1e-13
            assert (metric * previous) @ found > 0.0
            assert np.array_equal(factor.row, metric * previous)
            # the same null vector, scaled
            unit = found / np.linalg.norm(found)
            assert np.max(np.abs(unit - euclidean)) < 1e-12

    def test_rebordered_tangent_keeps_the_metric(self):
        # a row nearly orthogonal to the kernel is replaced by M t
        jac = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        metric = np.array([2.0, 0.5, 3.0])
        previous = np.array([0.0, 1e-4, 1.0])
        found, factor = tangent(jac, previous, metric)
        assert np.allclose(found, [0.0, np.sqrt(2.0), 0.0], rtol=0,
                           atol=1e-15)
        assert np.array_equal(factor.row, metric * found)

    def test_robust_10x10_hunt_is_the_euclidean_one(self, monkeypatch):
        def run(euclidean: bool):
            lines, real, trace = ([], harness.augmented_continuation_problem,
                                  harness.trace_line)

            def problem(*args, **kwargs):
                found = real(*args, **kwargs)
                assert np.all(found.metric == 1.0)
                return (dataclasses.replace(found, metric=None) if euclidean
                        else found)

            def recording(*args, **kwargs):
                # every yielded run, so that a direction run after its
                # line found the event would show as a fourth line
                for direction, template, found in trace(*args, **kwargs):
                    lines.append(found)
                    yield direction, template, found

            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(harness, "augmented_continuation_problem",
                           problem)
                mp.setattr(harness, "trace_line", recording)
                report = hunt_swallowtail(ExpSineNonlinearity(),
                                          Grid(10, 10), ROBUST_CONFIG)
            return report, lines

        (report, lines), (oracle, oracle_lines) = run(False), run(True)
        assert report.stage_reached == oracle.stage_reached == "swallowtail"
        assert len(lines) == len(oracle_lines) == 3
        for line, expected in zip(lines, oracle_lines):
            assert len(line.points) == len(expected.points)
            for a, b in zip(line.points + [e.point for e in line.events],
                            expected.points
                            + [e.point for e in expected.events]):
                assert np.array_equal(a.z, b.z) and a.s == b.s
                assert np.array_equal(a.tangent, b.tangent)
        for a, b in zip(report.chain, oracle.chain):
            assert np.array_equal(a.state.pack(), b.state.pack())

    def test_robust_hunt_steps_are_flat_in_the_grid(self):
        # measured 67, 66, 66 and 66 steps; Euclidean steps took 67, 76,
        # 91 and 117
        counts, real = [], continuation.step

        def counted(*args, **kwargs):
            counts[-1] += 1
            return real(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(continuation, "step", counted)
            for size in (10, 15, 20, 30):
                counts.append(0)
                report = hunt_swallowtail(ExpSineNonlinearity(),
                                          Grid(size, size), ROBUST_CONFIG)
                assert report.stage_reached == "swallowtail"
        assert all(abs(c - counts[0]) <= 0.1 * counts[0] for c in counts)


def test_newton_settings_reach_every_corrector(monkeypatch):
    # a level-0 run that stops at its fold refines the event, so the
    # refinement trials run correctors too; every Newton solve of the
    # start, the steps and the trials gets the problem's settings
    grid = Grid(10, 10)
    tmpl = AugmentedState(Problem(grid, ExpSineNonlinearity()), 0,
                          np.zeros(grid.size), np.zeros(3), active=(0,))
    cp = augmented_continuation_problem(tmpl, newton_tol=1e-10,
                                        max_newton=30)
    assert (cp.newton_tol, cp.max_newton) == (1e-10, 30)
    real, refine = continuation.newton_solve, continuation._refine_event
    settings, refining = [], []

    def recorded(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        settings.append((bound.arguments["tol_inf"],
                         bound.arguments["max_iter"]))
        return real(*args, **kwargs)

    def counted(*args, **kwargs):
        before = len(settings)
        event = refine(*args, **kwargs)
        refining.append(len(settings) - before)
        return event

    monkeypatch.setattr(continuation, "newton_solve", recorded)
    monkeypatch.setattr(continuation, "_refine_event", counted)
    start = initial_point(cp, tmpl.pack())
    res = run_branch(cp, start, ds0=0.2, max_steps=120, stop_at=("fold",))
    assert res.stopped_on == "event:fold"
    assert refining and all(trials > 0 for trials in refining)
    assert len(settings) >= len(res.points) + sum(refining)
    assert set(settings) == {(1e-10, 30)}


def _rejects(check, jac, **kwargs) -> bool:
    try:
        check(jac, **kwargs)
    except RankDeficientError:
        return True
    return False


def sparse_rank_check(jac, rank_tol: float = 1e-8, previous=None) -> None:
    """The library's rank check.  With previous it runs as step and
    initial_point run it: on the factor of [jac; previous^T] that gave
    the tangent, so the border swap updates a row other than t."""
    probe = ContinuationProblem(lambda z: None, rank_tol=rank_tol)
    if previous is None:
        continuation._check_rank(probe, jac)
    else:
        null, factor = tangent(jac, previous)
        continuation._check_rank(probe, jac, null, factor)


def _givens_blocks(rng, size: int) -> sp.csr_matrix:
    """Sparse orthogonal matrix: random 2 x 2 rotations on index pairs."""
    perm = rng.permutation(size)
    rows, cols, vals = [], [], []
    for k in range(0, size - 1, 2):
        i, j = perm[k], perm[k + 1]
        angle = rng.uniform(0.0, 2.0 * np.pi)
        c, s = np.cos(angle), np.sin(angle)
        rows += [i, i, j, j]
        cols += [i, j, i, j]
        vals += [c, -s, s, c]
    if size % 2:
        rows.append(perm[-1])
        cols.append(perm[-1])
        vals.append(1.0)
    return sp.csr_matrix((vals, (rows, cols)), shape=(size, size))


def jacobian_with_singular_values(sigma, seed: int, sparse: bool):
    """n x (n+1) matrix with exactly the singular values sigma.

    Dense: random orthogonal factors.  Sparse: two layers of 2 x 2
    rotations on each side, so the matrix keeps O(n) nonzeros.
    """
    rng = np.random.default_rng(seed)
    n = len(sigma)
    core = sp.hstack([sp.diags(np.asarray(sigma, dtype=float)),
                      sp.csr_matrix((n, 1))]).tocsr()
    if not sparse:
        left = np.linalg.qr(rng.standard_normal((n, n)))[0]
        right = np.linalg.qr(rng.standard_normal((n + 1, n + 1)))[0]
        return left @ core.toarray() @ right
    left = _givens_blocks(rng, n) @ _givens_blocks(rng, n)
    right = _givens_blocks(rng, n + 1) @ _givens_blocks(rng, n + 1)
    return (left @ core @ right).tocsr()


def _reported_sigma(jac, rank_tol, previous=None) -> float:
    with pytest.raises(RankDeficientError) as info:
        sparse_rank_check(jac, rank_tol=rank_tol, previous=previous)
    return float(re.search(r"value (\S+) at", str(info.value)).group(1))


def _unit(rng, size: int) -> np.ndarray:
    vec = rng.standard_normal(size)
    return vec / np.linalg.norm(vec)


def _norm_bound(dense: np.ndarray) -> float:
    """sqrt(||J||_1 ||J||_inf), the bound on sigma_max the check uses."""
    return float(np.sqrt(np.abs(dense).sum(axis=0).max()
                         * np.abs(dense).sum(axis=1).max()))


class TestRankCheckOracle:
    """The sparse bordered-LU rank check against the dense SVD verdict."""

    def test_existing_rank_deficient_case(self):
        jac = np.array([[0.0, 0.0]])
        assert _rejects(dense_rank_check, jac)
        assert _rejects(sparse_rank_check, jac)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("factor", [1e-3, 1e3])
    def test_random_near_threshold(self, sparse, seed, factor):
        n, rank_tol = 40, 1e-8
        rng = np.random.default_rng(100 + seed)
        sigma = np.sort(rng.uniform(1.0, 50.0, n))[::-1]
        sigma[-1] = factor * rank_tol * sigma[0]
        jac = jacobian_with_singular_values(sigma, seed, sparse)
        assert sp.issparse(jac) == sparse
        verdict = _rejects(dense_rank_check, jac, rank_tol=rank_tol)
        assert verdict == (factor < 1.0)
        # a random unit previous runs the check on the factor of
        # [J; previous^T], as after a continuation step
        for previous in (None, _unit(rng, n + 1)):
            assert _rejects(sparse_rank_check, jac, rank_tol=rank_tol,
                            previous=previous) == verdict

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("top", [50.0, 0.1])
    def test_update_path_reports_dense_sigma(self, sparse, top):
        # the border swap from a random previous row, on ||J|| above one
        # and on ||J|| so small that U < 1 and the border scale is c = 1
        n = 40
        rng = np.random.default_rng(11)
        sigma = np.sort(rng.uniform(top / 50.0, top, n))[::-1]
        sigma[-1] = 1e-3 * top
        jac = jacobian_with_singular_values(sigma, 5, sparse)
        dense = sp.csr_matrix(jac).toarray()
        assert (_norm_bound(dense) < 1.0) == (top < 1.0)
        expected = np.linalg.svd(dense, compute_uv=False)[-1]
        found = _reported_sigma(jac, 1e-2, previous=_unit(rng, n + 1))
        assert found == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("band", ["below", "between", "above"])
    def test_norm_bound_skips_sigma_max_above_the_band(self, monkeypatch,
                                                      sparse, band):
        # sigma_min below rank_tol sigma_max is rejected, between that and
        # rank_tol U accepted after the exact sigma_max run, and above
        # rank_tol U accepted on the bound alone; a rejection also runs
        # sigma_max, since its message gives the exact threshold
        n, rank_tol = 40, 1e-8
        rng = np.random.default_rng(21)
        sigma = np.sort(rng.uniform(1.0, 50.0, n))[::-1]
        sigma[-1] = 0.0
        bound = _norm_bound(sp.csr_matrix(
            jacobian_with_singular_values(sigma, 6, sparse)).toarray())
        low, high = rank_tol * sigma[0], rank_tol * bound
        assert high > 1.2 * low
        sigma[-1] = {"below": 0.5 * low, "between": np.sqrt(low * high),
                     "above": 2.0 * high}[band]
        jac = jacobian_with_singular_values(sigma, 6, sparse)
        dense = sp.csr_matrix(jac).toarray()
        sing = np.linalg.svd(dense, compute_uv=False)
        limits = rank_tol * sing[0], rank_tol * _norm_bound(dense)
        inside = {"below": sing[-1] < limits[0],
                  "between": limits[0] < sing[-1] < limits[1],
                  "above": limits[1] < sing[-1]}
        assert inside[band]

        real = continuation._largest_eigenvalue
        runs = []

        def counted(matvec, size):
            runs.append(size)
            return real(matvec, size)

        monkeypatch.setattr(continuation, "_largest_eigenvalue", counted)
        verdict = _rejects(sparse_rank_check, jac, rank_tol=rank_tol,
                           previous=_unit(rng, n + 1))
        assert verdict == _rejects(dense_rank_check, jac, rank_tol=rank_tol)
        assert verdict == (band == "below")
        assert len(runs) == (1 if band == "above" else 2)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_smallest_singular_value_above_one(self, sparse):
        # bordering with the unscaled tangent would read sigma_min = 1
        # here and reject; the scaled border keeps sigma_min(J) = 20
        rank_tol = 1e-2
        sigma = np.geomspace(1e3, 20.0, 30)
        jac = jacobian_with_singular_values(sigma, 3, sparse)
        assert not _rejects(dense_rank_check, jac, rank_tol=rank_tol)
        assert not _rejects(sparse_rank_check, jac, rank_tol=rank_tol)
        # below the threshold of 1e3 * 3e-2 = 30 both reject, and the
        # sparse check reports sigma_min(J) itself
        assert _rejects(dense_rank_check, jac, rank_tol=3e-2)
        assert _reported_sigma(jac, 3e-2) == pytest.approx(20.0, rel=1e-3)
        message = "(threshold 3.000e+01 = rank_tol * max(sigma_max, 1))"
        with pytest.raises(RankDeficientError, match=re.escape(message)):
            sparse_rank_check(jac, rank_tol=3e-2)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_two_dimensional_kernel(self, sparse):
        sigma = np.linspace(5.0, 1.0, 20)
        sigma[-1] = 0.0
        jac = jacobian_with_singular_values(sigma, 4, sparse)
        assert _rejects(dense_rank_check, jac)
        assert _rejects(sparse_rank_check, jac)
        # bordering with one kernel vector leaves the other one
        kernel = np.linalg.svd(sp.csr_matrix(jac).toarray())[2][-2:]
        for null in kernel:
            assert _rejects(sparse_rank_check, jac, previous=null)

    def test_exactly_singular_border_is_named(self):
        jac = sp.csr_matrix(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
        with pytest.raises(RankDeficientError,
                           match="bordered tangent matrix is singular"):
            sparse_rank_check(jac, previous=np.array([0.0, 0.0, 1.0]))

    def test_lanczos_failure_is_named(self, monkeypatch):
        # at tolerance 0 only an exact breakdown converges: the run spans
        # the whole space, 2 vectors here, and gives up
        monkeypatch.setattr(continuation, "RANK_LANCZOS_TOL", 0.0)
        with pytest.raises(ContinuationError,
                           match="Lanczos run did not converge in 2 steps"
                           ) as info:
            sparse_rank_check(np.array([[1.0, -1.0]]))
        assert not isinstance(info.value, RankDeficientError)

    def test_non_finite_lanczos_vector_is_named(self):
        with pytest.raises(ContinuationError, match="non-finite") as info:
            continuation._largest_eigenvalue(lambda x: np.full_like(x, np.nan),
                                             4)
        assert not isinstance(info.value, RankDeficientError)

    def test_sparse_level0_jacobian_stays_sparse(self, monkeypatch):
        grid = Grid(20, 20)
        state = AugmentedState(Problem(grid, ExpSineNonlinearity()), 0,
                               np.zeros(grid.size), np.array([1.0, 0.0, 0.0]),
                               active=(0,))
        _, jac = residual_jacobian(state)
        # G_u and its lam column, kept apart; G_u sparse
        assert isinstance(jac, augmented.SolutionJacobian)
        assert sp.issparse(jac.gu)

        def refuse(self, *args, **kwargs):
            raise AssertionError("dense copy of a sparse Jacobian")

        classes = {cls for base in (type(jac.gu), sp.csr_matrix,
                                    sp.csc_matrix, sp.coo_matrix)
                   for cls in base.__mro__ if "toarray" in vars(cls)}
        for cls in classes:
            monkeypatch.setattr(cls, "toarray", refuse)
        with pytest.raises(AssertionError, match="dense copy"):
            jac.gu.toarray()
        continuation._check_rank(ContinuationProblem(lambda z: None), jac)


class TestTangentOracle:
    """The sparse bordered tangent against the dense tangent with its
    SVD fallback."""

    @pytest.mark.parametrize("sparse", [False, True])
    def test_full_rank_agrees(self, sparse):
        rng = np.random.default_rng(7)
        for n in range(1, 31):
            sigma = rng.uniform(1.0, 10.0, n)
            jac = jacobian_with_singular_values(sigma, n, sparse)
            assert sp.issparse(jac) == sparse
            for previous in (None, rng.standard_normal(n + 1)):
                expected = dense_tangent(jac, previous)
                found, _ = tangent(jac, previous)
                assert np.max(np.abs(found - expected)) < 1e-12

    @pytest.mark.parametrize("sparse", [False, True])
    def test_singular_border_rejected_like_the_oracle(self, sparse):
        # J has a zero row and is bordered with another of its rows, so
        # the bordered matrix is exactly singular and J has lost rank
        for n in range(2, 31):
            jac, row = _deficient(n, sparse, "zero row")
            assert _rejects(dense_tangent, jac, previous=row)
            assert _rejects(tangent, jac, previous=row)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_accepted_point_rejects_what_the_oracle_rejects(self, sparse):
        # dense and sparse LU may or may not meet an exact zero pivot
        # here, so only some of these reach the oracle's SVD and only
        # some fail the sparse tangent; the rank check that follows the
        # tangent in step and initial_point rejects every one
        oracle_rejected = 0
        for n in range(2, 31):
            for kind in ("equal rows", "zero singular value"):
                jac, row = _deficient(n, sparse, kind)
                oracle_rejected += _rejects(dense_tangent, jac, previous=row)
                assert _rejects(sparse_rank_check, jac, previous=row)
        assert oracle_rejected > 0


def _deficient(n: int, sparse: bool, kind: str):
    """Rank-deficient n x (n+1) Jacobian and the row of it to border with.

    kind "zero row" zeroes the last row, "equal rows" copies the first
    row into the last, "zero singular value" sets sigma[n // 2] = 0; the
    border is row n // 3 of the result.
    """
    sigma = np.linspace(5.0, 1.0, n)
    if kind == "zero singular value":
        sigma[n // 2] = 0.0
    jac = jacobian_with_singular_values(sigma, n, sparse)
    if kind != "zero singular value":
        select = sp.eye(n, format="lil")
        select[n - 1, n - 1] = 0.0
        if kind == "equal rows":
            select[n - 1, 0] = 1.0
        jac = select.tocsr() @ jac
    assert sp.issparse(jac) == sparse
    return jac, sp.csr_matrix(jac)[n // 3].toarray().ravel()


@pytest.fixture(scope="module")
def fold_line(branch):
    """Level-1 problem on the 10 x 10 Bratu fold line in (lam1, lam2),
    its template and its start point."""
    cp, tmpl, start = branch
    res = run_branch(cp, start, ds0=0.2, max_steps=120, stop_at=("fold",))
    at_fold = tmpl.with_vector(res.events[0].point.z)
    fold, _, _ = locate(AugmentedState(
        tmpl.problem, 1, at_fold.u, at_fold.lam.copy(),
        alpha=seed_kernel_vector(tmpl.problem, 0), active=(0,)))
    line = AugmentedState(tmpl.problem, 1, fold.u, fold.lam.copy(),
                          alpha=fold.alpha, active=(0, 1))
    wrapper = augmented_continuation_problem(line)
    return wrapper, line, initial_point(wrapper, line.pack())


@pytest.mark.parametrize("level", [0, 1])
def test_reversed_start_is_the_start_the_other_way(branch, fold_line,
                                                   level):
    """A line's start, converged once and reversed, is bit for bit the
    start that initial_point converges for the other direction."""
    problem, state, start = branch if level == 0 else fold_line
    other = initial_point(problem, state.pack(), -1.0)
    flipped = reversed_point(start)
    assert np.array_equal(flipped.z, other.z)
    assert np.array_equal(flipped.tangent, other.tangent)
    assert flipped.monitors == other.monitors
    assert flipped.signature == other.signature
    assert flipped.newton_iters == other.newton_iters


def test_signature_only_on_solution_branches(branch, fold_line):
    """On a fold line G_u is singular, so the sign of det G_u is undefined.

    Its smallest eigenvalue sits at the Newton tolerance's rounding
    level; the level-1 wrapper watches no fold, has no fold_index, and
    records 0.
    """
    cp = branch[0]
    wrapper, line, start1 = fold_line
    assert cp.fold_index is not None and wrapper.fold_index is None
    assert "fold" not in wrapper.watched
    run = run_branch(wrapper, start1, ds0=0.1, max_steps=15)
    assert len(run.points) == 16
    for point in run.points:
        state = line.with_vector(point.z)
        f1 = state.problem.nl.derivative(1, state.u, state.lam)[1]
        eigs = np.abs(np.linalg.eigvalsh(
            (state.problem.lap + sp.diags(f1)).toarray()))
        assert eigs.min() < 1e-11 * eigs.max()
        assert point.signature == 0


@pytest.mark.parametrize("fold_index", [0, 1])
def test_signature_drops_the_fold_column(fold_index):
    """Around the unit circle, z = (y, x) and J = [2y, 2x]: the signature
    is the sign of J with column fold_index removed, (-1)^(n+k) s_k
    det T for n = 1 row, so k = 0 takes the column's parity."""
    problem = dataclasses.replace(circle_problem(), fold_index=fold_index)
    start = initial_point(problem, np.array([-1.0, 0.0]))
    res = run_branch(problem, start, ds0=0.3, max_steps=30)
    for point in res.points + [event.point for event in res.events]:
        jac = problem.system(point.z)[1]
        kept = np.delete(jac, fold_index, axis=1)
        assert point.signature == dense_det_sign(kept)
    assert {p.signature for p in res.points[1:]} == {-1, 1}


def plain_matrix(rows: int, cols: int, sparse: bool, seed: int):
    """A random sparse rows x cols matrix with 3 added on its diagonal,
    so that it, and it bordered by a random row, is regular; CSR or
    dense."""
    rng = np.random.default_rng(seed)
    mat = (sp.random(rows, cols, density=0.4, random_state=rng)
           + 3.0 * sp.eye(rows, cols)).tocsr()
    return mat if sparse else mat.toarray()


ZERO_DIAGONAL = np.array([[0.0, 1.0], [1.0, 0.0]])
SQUARE = [(k, sparse) for k in (1, 2, 5) for sparse in (False, True)]
WIDE = [(m, sparse) for m in (1, 4, 12) for sparse in (False, True)]


class TestPlainJacobian:
    """A plain matrix goes through `_jacobian` as a SolutionJacobian of no
    grid, gathered in the identity order: its solves, tangent, products
    and norms against dense numpy."""

    @pytest.mark.parametrize("k, sparse",
                             SQUARE + [("zero diagonal", False)])
    def test_square_solves(self, k, sparse):
        mat = (ZERO_DIAGONAL if k == "zero diagonal"
               else plain_matrix(k, k, sparse, seed=k))
        dense = sp.csr_matrix(mat).toarray()
        rhs = np.random.default_rng(1).standard_normal(len(dense))
        jac = continuation._jacobian(mat)
        assert isinstance(jac, augmented.SolutionJacobian)
        assert jac.problem is None and jac.shape == dense.shape
        assert relative_error(continuation._linear_solve(mat, rhs),
                              np.linalg.solve(dense, rhs)) < 1e-12
        lu = continuation._factor(jac, strict=True)
        for trans, oracle in (("N", dense), ("T", dense.T)):
            assert relative_error(lu.solve(rhs, trans=trans),
                                  np.linalg.solve(oracle, rhs)) < 1e-12

    @pytest.mark.parametrize("m, sparse", WIDE)
    def test_bordered_solves_and_tangent(self, m, sparse):
        mat = plain_matrix(m, m + 1, sparse, seed=m)
        dense = sp.csr_matrix(mat).toarray()
        rng = np.random.default_rng(2)
        row, rhs = rng.standard_normal(m + 1), rng.standard_normal(m + 1)
        whole = np.vstack([dense, row])
        lu = continuation._factor(continuation._jacobian(mat).bordered(row),
                                  strict=True)
        for trans, oracle in (("N", whole), ("T", whole.T)):
            assert relative_error(lu.solve(rhs, trans=trans),
                                  np.linalg.solve(oracle, rhs)) < 1e-12
        for previous in (None, row):
            found, _ = tangent(mat, previous)
            expected = dense_tangent(dense, previous)
            assert relative_error(found, expected) < 1e-12

    @pytest.mark.parametrize(
        "shape, sparse",
        [((k, k), s) for k, s in SQUARE] + [((m, m + 1), s) for m, s in WIDE])
    def test_products_and_norms(self, shape, sparse):
        mat = plain_matrix(*shape, sparse, seed=sum(shape))
        dense = sp.csr_matrix(mat).toarray()
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal(shape[1]), rng.standard_normal(shape[0])
        jac = continuation._jacobian(mat)
        assert relative_error(jac @ x, dense @ x) < 1e-12
        assert relative_error(jac.rmatvec(y), dense.T @ y) < 1e-12
        one, inf = jac.norms()
        assert one == pytest.approx(np.linalg.norm(dense, ord=1), rel=1e-12)
        assert inf == pytest.approx(np.linalg.norm(dense, ord=np.inf),
                                    rel=1e-12)

    def test_duplicate_csr_entries_are_summed(self):
        # (0, 0) stored twice as 1 + 2: the gather takes one entry per
        # position, so G_u is summed before it is ordered
        mat = sp.csr_matrix((np.array([1.0, 2.0, 1.0, 1.0, 4.0]),
                             np.array([0, 0, 1, 0, 1]),
                             np.array([0, 3, 5])), shape=(2, 2))
        assert not mat.has_canonical_format
        rhs = np.array([1.0, 2.0])
        expected = np.linalg.solve([[3.0, 1.0], [1.0, 4.0]], rhs)
        assert relative_error(continuation._linear_solve(mat, rhs),
                              expected) < 1e-12

    @pytest.mark.parametrize("shape", [(3, 5), (4, 2)])
    def test_other_shapes_rejected(self, shape):
        with pytest.raises(ValueError, match="square or one column wider"):
            continuation._jacobian(np.ones(shape))
