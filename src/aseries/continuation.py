"""Pseudoarclength continuation with monitor-driven event detection.

Continues any square-plus-one residual system R(z) = 0, R: R^(n+1) -> R^n,
by an Euler predictor and an orthogonal corrector (Newton on R stacked
with tangent . (z - z_pred) = 0).  Residual and Jacobian come from one
callable, so each Newton iterate assembles once, and the Jacobian of
the converged corrector is reused for the rank check and the tangent.
Monitors are named scalar functions of z recorded at every accepted
point; sign changes between consecutive points are refined by
re-stepping with a secant rule on arclength.  A fold event is a sign
change of the tangent component belonging to the designated parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.linalg import svdvals
from scipy.sparse.linalg import splu

from .augmented import (
    MonitorRecord,
    RankOneUpdate,
    butterfly_monitor,
    cusp_monitor,
    flag_blowup,
    residual_jacobian,
    solution_signature,
    solve_v,
    swallowtail_monitor,
)

#: Adaptive step bounds and growth policy.
DS_MIN = 1e-5
DS_MAX = 0.5
GROW_FACTOR = 1.3
GROW_ITERS = 3

NEWTON_TOL = 1e-9
MAX_NEWTON = 25
EVENT_TOL = 1e-8
REFINE_BUDGET = 60


class ContinuationError(RuntimeError):
    """Base class for continuation failures."""


class SingularJacobianError(ContinuationError):
    """Linear solve inside a Newton iteration failed."""


class RankDeficientError(ContinuationError):
    """Extended Jacobian lost full row rank at an accepted point."""


class NonFiniteResidualError(ContinuationError):
    """Newton met a NaN or infinite residual."""


class ConvergenceError(ContinuationError):
    """Newton ran out of iterations; carries the best iterate seen."""

    def __init__(self, message, z=None, iterations=0, residual_norm=np.inf):
        super().__init__(message)
        self.z = z
        self.iterations = iterations
        self.residual_norm = residual_norm


def _linear_solve(mat, rhs: np.ndarray) -> np.ndarray:
    """Solve mat x = rhs by sparse LU, dense LU, or LU of the bordered form."""
    try:
        if isinstance(mat, RankOneUpdate):
            sol = splu(mat.bordered()).solve(np.append(rhs, 0.0))[:-1]
        elif sp.issparse(mat):
            sol = splu(mat.tocsc()).solve(rhs)
        else:
            sol = np.linalg.solve(np.asarray(mat, dtype=float), rhs)
    except (RuntimeError, np.linalg.LinAlgError) as exc:
        raise SingularJacobianError(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularJacobianError("non-finite Newton update")
    return sol


def newton_solve(system, z0, tol_inf: float = NEWTON_TOL,
                 max_iter: int = MAX_NEWTON):
    """Newton iteration on a square system; returns (z, iterations).

    system(z) returns the residual and its Jacobian together.
    Convergence is measured by the infinity norm of the residual; the
    count excludes the final accepting evaluation, so a start that is
    already converged reports zero iterations.
    """
    z = np.array(z0, dtype=float)
    norm = np.inf
    for iters in range(max_iter + 1):
        r, jac = system(z)
        r = np.asarray(r, dtype=float)
        norm = float(np.max(np.abs(r))) if r.size else 0.0
        if not np.isfinite(norm):
            raise NonFiniteResidualError(
                f"non-finite residual at iteration {iters} (|R| = {norm})")
        if norm < tol_inf:
            return z, iters
        if iters == max_iter:
            break
        z = z - _linear_solve(jac, r)
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (|R| = {norm:.3e})",
        z=z, iterations=max_iter, residual_norm=norm,
    )


@dataclass
class ContinuationProblem:
    """Residual, Jacobian and diagnostics of one branch family.

    system maps z to the pair (residual, Jacobian); monitors maps names
    from {cusp, swallowtail, butterfly} to scalar functions of z;
    fold_index is the packed position of the parameter whose turning
    defines a fold event; signature maps z to the sign of det G_u (0
    when absent).
    """

    system: Callable[[np.ndarray], tuple]
    monitors: Mapping[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict)
    signature: Callable[[np.ndarray], int] | None = None
    fold_index: int | None = None
    check_rank: bool = True
    rank_tol: float = 1e-8


@dataclass
class BranchPoint:
    z: np.ndarray
    s: float
    tangent: np.ndarray
    monitors: MonitorRecord
    signature: int
    newton_iters: int


@dataclass
class Event:
    """A detected sign change (or blow-up) with its refined location."""

    kind: str
    before: BranchPoint
    after: BranchPoint
    point: BranchPoint
    monitor_value: float
    approximate: bool = False


@dataclass
class BranchResult:
    points: list
    events: list
    stopped_on: str


def tangent(jac, previous: np.ndarray | None = None,
            orient_index: int | None = None,
            rank_tol: float = 1e-8) -> np.ndarray:
    """Unit null vector of an n x (n+1) Jacobian, oriented continuously.

    Solves the bordered system [jac; row] t = e_last where row is the
    previous tangent (orientation then follows automatically) or the
    unit vector of the parameter to increase at a branch start.  Falls
    back to an SVD null vector when the bordered matrix is singular.
    """
    n_rows, n_cols = jac.shape
    if n_cols != n_rows + 1:
        raise ValueError("tangent needs one more column than rows")
    if previous is not None:
        row = np.asarray(previous, dtype=float)
    else:
        k = n_cols - 1 if orient_index is None else orient_index
        row = np.zeros(n_cols)
        row[k] = 1.0
    rhs = np.zeros(n_cols)
    rhs[-1] = 1.0
    sol = None
    try:
        if sp.issparse(jac):
            bordered = sp.vstack(
                [jac.tocsr(), sp.csr_matrix(row[None, :])], format="csc")
            sol = splu(bordered).solve(rhs)
        else:
            sol = np.linalg.solve(
                np.vstack([np.asarray(jac, dtype=float), row[None, :]]), rhs)
        if not np.all(np.isfinite(sol)) or np.linalg.norm(sol) == 0.0:
            sol = None
    except (RuntimeError, np.linalg.LinAlgError):
        sol = None
    if sol is None:
        dense = jac.toarray() if sp.issparse(jac) else np.asarray(jac, float)
        sing = np.linalg.svd(dense, compute_uv=False)
        if sing[-1] < rank_tol * max(sing[0], 1.0):
            raise RankDeficientError("extended Jacobian is rank deficient")
        sol = np.linalg.svd(dense)[2][-1]
    t = sol / np.linalg.norm(sol)
    if row @ t < 0.0:
        t = -t
    return t


def _check_rank(problem: ContinuationProblem, jac) -> None:
    if not problem.check_rank:
        return
    dense = jac.toarray() if sp.issparse(jac) else np.asarray(jac, float)
    sing = svdvals(dense)
    if sing[-1] < problem.rank_tol * max(sing[0], 1.0):
        raise RankDeficientError(
            f"smallest singular value {sing[-1]:.3e} at an accepted point")


def _record(problem: ContinuationProblem, z: np.ndarray, tang: np.ndarray,
            previous: MonitorRecord | None) -> MonitorRecord:
    direction = 0.0
    if problem.fold_index is not None:
        direction = float(tang[problem.fold_index])
    rec = MonitorRecord(fold_direction=direction)
    for name, fn in problem.monitors.items():
        setattr(rec, name, float(fn(z)))
    return flag_blowup(rec, previous)


def _signature(problem: ContinuationProblem, z: np.ndarray) -> int:
    return problem.signature(z) if problem.signature is not None else 0


def _pinned_newton(problem: ContinuationProblem, anchor: np.ndarray,
                   row: np.ndarray, newton_tol: float, max_newton: int):
    """Newton on R(z) = 0 stacked with row . (z - anchor) = 0, from anchor.

    Returns (z, iterations, jac) with jac the Jacobian of R alone at the
    converged z, as assembled by the accepting Newton evaluation.
    """
    jac = None

    def system(z):
        nonlocal jac
        res, jac = problem.system(z)
        if sp.issparse(jac):
            stacked = sp.vstack([jac.tocsr(), sp.csr_matrix(row[None, :])])
        else:
            stacked = np.vstack([np.asarray(jac, dtype=float), row[None, :]])
        return np.append(res, row @ (z - anchor)), stacked

    z, iters = newton_solve(system, anchor, newton_tol, max_newton)
    return z, iters, jac


def initial_point(problem: ContinuationProblem, z0: np.ndarray,
                  orient_index: int | None = None,
                  orient_vector: np.ndarray | None = None,
                  newton_tol: float = NEWTON_TOL,
                  max_newton: int = MAX_NEWTON) -> BranchPoint:
    """Converge a branch start and attach its oriented tangent.

    The underdetermined system is squared by pinning the orientation
    parameter (default: the last packed component) at its start value.
    """
    z0 = np.asarray(z0, dtype=float)
    pin = len(z0) - 1 if orient_index is None else orient_index
    row = np.zeros(len(z0))
    row[pin] = 1.0
    z, iters, jac = _pinned_newton(problem, z0, row, newton_tol, max_newton)
    _check_rank(problem, jac)
    t = tangent(jac, previous=orient_vector, orient_index=pin)
    rec = _record(problem, z, t, None)
    return BranchPoint(z, 0.0, t, rec, _signature(problem, z), iters)


def step(problem: ContinuationProblem, point: BranchPoint, ds: float,
         newton_tol: float = NEWTON_TOL,
         max_newton: int = MAX_NEWTON) -> BranchPoint:
    """One predictor-corrector step of length ds from an accepted point."""
    t = point.tangent
    z, iters, jac = _pinned_newton(problem, point.z + ds * t, t, newton_tol,
                                   max_newton)
    _check_rank(problem, jac)
    t_new = tangent(jac, previous=t)
    rec = _record(problem, z, t_new, point.monitors)
    return BranchPoint(z, point.s + ds, t_new, rec,
                       _signature(problem, z), iters)


def _event_scalar(kind: str, point: BranchPoint) -> float | None:
    if kind == "fold":
        return point.monitors.fold_direction
    return getattr(point.monitors, kind)


def _refine_event(problem, kind, before, after, m_lo, m_hi, event_tol,
                  ds_min, newton_tol, max_newton) -> Event:
    """Shrink a sign-change bracket by secant trials in step length.

    All trial points are re-stepped from the same base point (the
    bracket's `before` end) with varying predictor length, so the
    bracketing coordinate stays exactly consistent across trials.  A
    secant proposal outside the bracket, or one following two updates
    of the same side, is replaced by a bisection step.
    """
    scale = max(abs(m_lo), abs(m_hi))
    d_lo, d_hi = 0.0, after.s - before.s
    best, best_m = (before, m_lo) if abs(m_lo) <= abs(m_hi) else (after, m_hi)
    side = 0
    for _ in range(REFINE_BUDGET):
        width = d_hi - d_lo
        if abs(best_m) < event_tol * scale or width < ds_min:
            break
        d_trial = d_lo - m_lo * width / (m_hi - m_lo)
        if not (d_lo < d_trial < d_hi) or abs(side) >= 2:
            d_trial = d_lo + 0.5 * width
        try:
            trial = step(problem, before, d_trial, newton_tol, max_newton)
        except ContinuationError:
            d_trial = d_lo + 0.5 * width
            try:
                trial = step(problem, before, d_trial, newton_tol, max_newton)
            except ContinuationError:
                break
        m_trial = _event_scalar(kind, trial)
        if abs(m_trial) < abs(best_m):
            best, best_m = trial, m_trial
        if m_trial == 0.0:
            break
        if np.sign(m_trial) == np.sign(m_lo):
            d_lo, m_lo = d_trial, m_trial
            side = max(side, 0) + 1
        else:
            d_hi, m_hi = d_trial, m_trial
            side = min(side, 0) - 1
    approximate = not abs(best_m) < event_tol * scale
    return Event(kind, before, after, best, best_m, approximate)


def detect_events(problem: ContinuationProblem, before: BranchPoint,
                  after: BranchPoint, monitor_names,
                  event_tol: float = EVENT_TOL, ds_min: float = DS_MIN,
                  newton_tol: float = NEWTON_TOL,
                  max_newton: int = MAX_NEWTON) -> list:
    """Events between two consecutive accepted points, refined in place."""
    events = []
    for kind in monitor_names:
        if kind == "blowup":
            if after.monitors.blowup_flag:
                worst = max(abs(after.monitors.cusp),
                            abs(after.monitors.swallowtail),
                            abs(after.monitors.butterfly or 0.0))
                events.append(Event("blowup", before, after, after, worst,
                                    approximate=True))
            continue
        if kind == "fold" and problem.fold_index is None:
            raise ValueError("fold events need a designated fold_index")
        m_lo = _event_scalar(kind, before)
        m_hi = _event_scalar(kind, after)
        if m_lo is None or m_hi is None:
            raise ValueError(f"monitor {kind!r} is not recorded on this branch")
        if m_lo == 0.0 or np.sign(m_lo) == np.sign(m_hi):
            continue
        events.append(_refine_event(problem, kind, before, after, m_lo, m_hi,
                                    event_tol, ds_min, newton_tol, max_newton))
    return events


def run_branch(problem: ContinuationProblem, start: BranchPoint,
               ds0: float = 0.1, max_steps: int = 200, monitor_names=(),
               stop_at=(), bounds: Callable[[np.ndarray], bool] | None = None,
               ds_min: float = DS_MIN, ds_max: float = DS_MAX,
               event_tol: float = EVENT_TOL, newton_tol: float = NEWTON_TOL,
               max_newton: int = MAX_NEWTON) -> BranchResult:
    """Adaptive predictor-corrector run from a converged start point.

    Halves the step on corrector failure, grows it by GROW_FACTOR after
    fast convergence, and stops on the step budget, a bounds violation,
    a step failure at the minimal step, or an event whose kind appears
    in stop_at.
    """
    points = [start]
    events: list = []
    ds = min(max(ds0, ds_min), ds_max)
    accepted = 0
    stopped_on = "steps"
    while accepted < max_steps:
        try:
            new_point = step(problem, points[-1], ds, newton_tol, max_newton)
        except ContinuationError:
            if ds <= ds_min * (1.0 + 1e-12):
                stopped_on = "step-failure"
                break
            ds = max(0.5 * ds, ds_min)
            continue
        accepted += 1
        found = detect_events(problem, points[-1], new_point, monitor_names,
                              event_tol, ds_min, newton_tol, max_newton)
        points.append(new_point)
        events.extend(found)
        if bounds is not None and not bounds(new_point.z):
            stopped_on = "bounds"
            break
        stopping = [e for e in found if e.kind in stop_at]
        if stopping:
            stopped_on = f"event:{stopping[0].kind}"
            break
        if new_point.newton_iters <= GROW_ITERS:
            ds = min(ds * GROW_FACTOR, ds_max)
    return BranchResult(points, events, stopped_on)


def augmented_continuation_problem(template, monitors=(),
                                   fold_parameter: int | None = None,
                                   with_signature: bool = True,
                                   check_rank: bool = True,
                                   rank_tol: float = 1e-8):
    """Wrap an augmented state template as a ContinuationProblem.

    The template must carry one more active parameter than its level
    pins, so the packed system is square plus one.  fold_parameter is
    the lam index whose turning marks fold events.
    """
    if template.dimension != template.residual_size + 1:
        raise ValueError("continuation needs a square-plus-one system; "
                         "free exactly one extra parameter")

    def system(z):
        return residual_jacobian(template.with_vector(z))

    fold_index = None
    if fold_parameter is not None:
        base = template.dimension - len(template.active)
        fold_index = base + template.active.index(fold_parameter)

    named = {}
    for name in monitors:
        named[name] = _pde_monitor(template, name)

    signature = None
    if with_signature:
        def signature(z):
            st = template.with_vector(z)
            f1 = st.problem.nl.derivative(1, st.u, st.lam)
            gu = st.problem.lap + sp.diags(f1)
            return solution_signature(gu.tocsc())

    return ContinuationProblem(system, named, signature,
                               fold_index, check_rank, rank_tol)


def _pde_monitor(template, name: str):
    if name == "cusp":
        def monitor(z):
            return cusp_monitor(template.with_vector(z))
    elif name == "swallowtail":
        def monitor(z):
            state = template.with_vector(z)
            _, v = solve_v(state)
            return swallowtail_monitor(state, v)
    elif name == "butterfly":
        def monitor(z):
            state = template.with_vector(z)
            _, v = solve_v(state)
            return butterfly_monitor(state, v)
    else:
        raise ValueError(f"unknown monitor {name!r}")
    return monitor
