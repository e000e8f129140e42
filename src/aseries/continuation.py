"""Pseudoarclength continuation with monitor-driven event detection.

Continues any square-plus-one residual system R(z) = 0, R: R^(n+1) -> R^n,
by an Euler predictor and an orthogonal corrector (Newton on R stacked
with tangent . (z - z_pred) = 0).  Residual and Jacobian come from one
callable, so each Newton iterate assembles once; the Jacobian of the
converged corrector is reused for the tangent, and the tangent's factor
for the rank check.
The layer factors the square bordered matrix [J; row^T] one of two
ways, chosen in `_jacobian`.  A level-1-3 augmented.BlockJacobian keeps
its blocks and factors G_u bordered by the kernel vector, inside
augmented.  Every other Jacobian (level 0, and plain matrices, dense
ones converted) gets one SuperLU of the whole matrix, in the grid's
nested-dissection order at level 0.  Both factors solve with the matrix
and its transpose.  A singular bordered tangent matrix raises
RankDeficientError, which a branch run treats like any failed step.
Every accepted point is checked to keep full row rank (`_check_rank`)
by a Sherman-Morrison update of the tangent's LU, which factors nothing
more and forms no dense or global matrix.
Monitors are named scalar functions of z recorded at every accepted
point; sign changes between consecutive points are refined by
re-stepping with a secant rule on arclength, down to EVENT_TOL of the
monitor's scale or a bracket of DS_MIN, the smallest step a branch
takes.  A fold event is a sign change of the tangent component belonging
to the designated parameter.  A ContinuationProblem carries the system,
the events a run watches and the Newton settings of its correctors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

from .augmented import (
    PIVOT_THRESH,
    BlockFactor,
    BlockJacobian,
    Linearization,
    MonitorRecord,
    Ordering,
    PermutedLU,
    bordered_csr,
    butterfly_monitor,
    cusp_monitor,
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
#: Relative Ritz residual at which the rank check's Lanczos runs stop.
#: The eigenvalue error is at most this, far below the eps * sigma_max
#: rounding of a dense SVD's sigma_min near the rank_tol threshold.
RANK_LANCZOS_TOL = 1e-10
#: Lanczos subspace size of the rank check's runs.  On the robust 10x10
#: and 15x15 hunts a check took 21 operator applications at ARPACK's
#: default of 20 and 5-15 (mean 7-8) at 4, sigma_min agreeing to 1e-15.
LANCZOS_NCV = 4
#: `tangent` borders again with the tangent it found when the cosine
#: between its bordering row and the tangent is smaller than this.
BORDER_COS_MIN = 1e-3


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


@dataclass(frozen=True)
class _SparseJacobian:
    """A level-0 (or any plain) Jacobian behind the BlockJacobian
    interface; its factor is one SuperLU of the whole [mat; row^T], in
    order: at level 0 mat is [G_u, dG/dlam] in `bordered_csr`'s layout
    and order its Problem's bordered_order; else mat's own order."""

    mat: sp.csr_matrix
    order: Ordering | None = None

    @property
    def shape(self) -> tuple:
        return self.mat.shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        return self.mat @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        return self.mat.T @ y

    def norms(self) -> tuple:
        magnitude = abs(self.mat)
        return magnitude.sum(axis=0).max(), magnitude.sum(axis=1).max()

    def bordered(self, row: np.ndarray) -> "_SparseJacobian":
        """[mat; row^T], the row stored whole (sp.vstack is ~4x slower)."""
        empty = np.empty((self.shape[0], 0))
        return replace(self, mat=bordered_csr(self.mat, empty, row))

    def factor(self, strict: bool = True) -> PermutedLU:
        # SuperLU fails on an exactly zero pivot only, strict or not
        order = self.order or Ordering.of(self.mat)
        return PermutedLU(splu(
            order.permute(self.mat), permc_spec="NATURAL",
            diag_pivot_thresh=PIVOT_THRESH, options={"SymmetricMode": True}),
            order.perm)


def _jacobian(jac):
    """The one place where level 0 and the block levels part: any
    Jacobian but a BlockJacobian is wrapped as a _SparseJacobian.  Both
    factors raise a RuntimeError when singular."""
    if isinstance(jac, (BlockJacobian, _SparseJacobian)):
        return jac
    return _SparseJacobian(sp.csr_matrix(jac))


def _linear_solve(mat, rhs: np.ndarray) -> np.ndarray:
    """Solve the square system mat x = rhs through `_jacobian`'s factor:
    SuperLU at level 0, the block solve at levels 1-3."""
    try:
        sol = _jacobian(mat).factor().solve(rhs)
    except RuntimeError as exc:
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
    """Residual, Jacobian, diagnostics and solver settings of one branch
    family.

    system maps z to the pair (residual, Jacobian); monitors maps names
    from {cusp, swallowtail, butterfly} to scalar functions of z;
    fold_index is the packed position of the parameter whose turning
    defines a fold event; signature maps z to the sign of det G_u (0
    when absent).  A run watches the events in `watched`: the fold when
    fold_index is set, then every monitor.  newton_tol and max_newton
    set every corrector of the run, refinement trials included;
    rank_tol governs the regularity check of accepted points, and
    augmented problems keep its default.
    """

    system: Callable[[np.ndarray], tuple]
    monitors: Mapping[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict)
    signature: Callable[[np.ndarray], int] | None = None
    fold_index: int | None = None
    newton_tol: float = NEWTON_TOL
    max_newton: int = MAX_NEWTON
    rank_tol: float = 1e-8

    @property
    def watched(self) -> tuple:
        fold = ("fold",) if self.fold_index is not None else ()
        return fold + tuple(self.monitors)


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
    """A detected sign change with its refined location."""

    kind: str
    point: BranchPoint
    monitor_value: float
    approximate: bool = False


@dataclass
class BranchResult:
    points: list
    events: list
    stopped_on: str
    rejected: list


@dataclass(frozen=True)
class BorderedFactor:
    """Factor of T = [J; row^T] and s = T^-1 e_last.

    lu is a PermutedLU at level 0 and a BlockFactor at levels 1-3; both
    solve with T and, with trans "T", with T^T.  row^T s = 1, and the
    unit tangent is s / ||s||.
    """

    lu: PermutedLU | BlockFactor
    row: np.ndarray
    s: np.ndarray


def tangent(jac, previous: np.ndarray | None = None):
    """Unit null vector of an n x (n+1) Jacobian, oriented continuously.

    Solves the bordered system [jac; row] s = e_last where row is the
    previous tangent (orientation then follows automatically), or the
    last unit vector when previous is None.  A row within BORDER_COS_MIN
    of orthogonal to the kernel leaves that matrix ill-conditioned (a
    line that turns in the last parameter at its start), so the solve
    is repeated once with the tangent found as the row.  Returns (t,
    factor), the BorderedFactor that the rank check reuses.  Like
    inverse iteration, the solve accepts a nearly singular bordered
    matrix and leaves regularity to the rank check; an exactly singular
    one raises RankDeficientError.
    """
    jac = _jacobian(jac)
    n_rows, n_cols = jac.shape
    if n_cols != n_rows + 1:
        raise ValueError("tangent needs one more column than rows")
    rhs = np.zeros(n_cols)
    rhs[-1] = 1.0

    def bordered_solve(row):
        try:
            lu = jac.bordered(row).factor(strict=False)
            sol = lu.solve(rhs)
        except RuntimeError:
            lu, sol = None, np.zeros(n_cols)
        norm = np.linalg.norm(sol)
        if not (np.isfinite(norm) and norm > 0.0):
            raise RankDeficientError(
                "bordered tangent matrix is singular: the Jacobian lost "
                "rank or the bordering row is orthogonal to its kernel")
        return lu, sol, norm

    row = rhs if previous is None else np.asarray(previous, dtype=float)
    lu, sol, norm = bordered_solve(row)
    t = sol / norm
    if row @ t < 0.0:
        t = -t
    # row^T s = 1, so ||s|| ||row|| is 1 / cos(row, t)
    if norm * np.linalg.norm(row) * BORDER_COS_MIN > 1.0:
        row = t
        lu, sol, norm = bordered_solve(row)
        t = sol / norm
    return t, BorderedFactor(lu, row, sol)


def _largest_eigenvalue(matvec, size: int) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite operator.

    Lanczos (ARPACK) from a fixed random start vector on a subspace of
    LANCZOS_NCV vectors, stopped at a Ritz residual of RANK_LANCZOS_TOL
    relative; a failure to converge is a ContinuationError.
    """
    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    start = np.random.default_rng(0).standard_normal(size)
    try:
        return float(eigsh(op, k=1, ncv=min(LANCZOS_NCV, size), v0=start,
                           tol=RANK_LANCZOS_TOL,
                           return_eigenvectors=False)[0])
    except ArpackError as exc:
        raise ContinuationError(f"rank check: ARPACK failed: {exc}") from exc


def _check_rank(problem: ContinuationProblem, jac,
                null: np.ndarray | None = None,
                factor: BorderedFactor | None = None) -> None:
    """Reject an n x (n+1) Jacobian that has lost full row rank.

    The verdict is sigma_min(J) < rank_tol * max(sigma_max(J), 1).  null
    and factor come together, as `tangent` returns them: a unit null
    vector of jac and the BorderedFactor of [jac; row^T] that gave it.
    Without them, tangent(jac) gives both.  Bordering with c t^T, c =
    max(U, 1) for the norm bound U = sqrt(||J||_1 ||J||_inf) >=
    sigma_max, adds the singular value c and keeps the others, so
    sigma_min of B = [jac; c t^T] is sigma_min(J) exactly.  B = T +
    e_last w^T with w = c t - row, and row^T s = 1 makes the
    Sherman-Morrison denominator 1 + w^T s = c t^T s = +-c ||s||, well
    away from zero.  The Lanczos run for sigma_max(J) happens only when
    sigma_min < rank_tol * c leaves the verdict open.
    """
    jac = _jacobian(jac)
    if factor is None:
        null, factor = tangent(jac)
    size = jac.shape[1]
    scale = max(np.sqrt(np.prod(jac.norms())), 1.0)
    lu, s = factor.lu, factor.s
    w = scale * null - factor.row
    denom = 1.0 + w @ s
    w_t = lu.solve(w, trans="T")

    def inverse_gram(x):
        y = lu.solve(x)
        y -= s * ((w @ y) / denom)
        z = lu.solve(y, trans="T")
        return z - w_t * ((s @ y) / denom)

    # Lanczos finds the eigenvalue of largest magnitude; when T is nearly
    # singular, rounding in the update can make it negative, and its
    # magnitude is still the operator's norm
    sigma_min = 1.0 / np.sqrt(abs(_largest_eigenvalue(inverse_gram, size)))
    if sigma_min >= problem.rank_tol * scale:
        return
    sigma_max = np.sqrt(_largest_eigenvalue(lambda x: jac.rmatvec(jac @ x),
                                            size))
    threshold = problem.rank_tol * max(sigma_max, 1.0)
    if not sigma_min >= threshold:
        raise RankDeficientError(
            f"smallest singular value {sigma_min:.3e} at an accepted point "
            f"(threshold {threshold:.3e} = rank_tol * max(sigma_max, 1))")


def _record(problem: ContinuationProblem, z: np.ndarray,
            tang: np.ndarray) -> MonitorRecord:
    direction = 0.0
    if problem.fold_index is not None:
        direction = float(tang[problem.fold_index])
    rec = MonitorRecord(fold_direction=direction)
    for name, fn in problem.monitors.items():
        setattr(rec, name, float(fn(z)))
    return rec


def _signature(problem: ContinuationProblem, z: np.ndarray) -> int:
    return problem.signature(z) if problem.signature is not None else 0


def _pinned_point(problem: ContinuationProblem, anchor: np.ndarray,
                  row: np.ndarray, previous: np.ndarray,
                  s: float) -> BranchPoint:
    """Accepted point at arclength s of Newton on R(z) = 0 stacked with
    row . (z - anchor) = 0, from anchor.

    Each Newton step factors [jac; row^T] as `_jacobian` dispatches it.
    The tangent, oriented along previous, comes from the Jacobian of R
    that the accepting Newton evaluation assembled, and the rank check
    reuses the tangent's factor.
    """
    jac = None

    def system(z):
        nonlocal jac
        res, raw = problem.system(z)
        jac = _jacobian(raw)
        return np.append(res, row @ (z - anchor)), jac.bordered(row)

    z, iters = newton_solve(system, anchor, problem.newton_tol,
                            problem.max_newton)
    t, factor = tangent(jac, previous=previous)
    _check_rank(problem, jac, t, factor)
    return BranchPoint(z, s, t, _record(problem, z, t),
                       _signature(problem, z), iters)


def initial_point(problem: ContinuationProblem, z0: np.ndarray,
                  direction: float = 1.0) -> BranchPoint:
    """Converge a branch start and attach its oriented tangent.

    The underdetermined system is squared by pinning the last packed
    component at its start value; the tangent is oriented along
    direction * e_last.
    """
    z0 = np.asarray(z0, dtype=float)
    row = np.zeros(len(z0))
    row[-1] = 1.0
    return _pinned_point(problem, z0, row, direction * row, 0.0)


def step(problem: ContinuationProblem, point: BranchPoint,
         ds: float) -> BranchPoint:
    """One predictor-corrector step of length ds from an accepted point."""
    t = point.tangent
    return _pinned_point(problem, point.z + ds * t, t, t, point.s + ds)


def _event_scalar(kind: str, point: BranchPoint) -> float | None:
    if kind == "fold":
        return point.monitors.fold_direction
    return getattr(point.monitors, kind)


def _refine_event(problem, kind, before, after) -> Event:
    """Shrink a sign-change bracket by secant trials in step length.

    All trial points are re-stepped from the same base point (the
    bracket's `before` end) with varying predictor length, so the
    bracketing coordinate stays exactly consistent across trials.  A
    secant proposal outside the bracket, or one following two updates
    of the same side, is replaced by a bisection step.
    """
    m_lo, m_hi = _event_scalar(kind, before), _event_scalar(kind, after)
    scale = max(abs(m_lo), abs(m_hi))
    d_lo, d_hi = 0.0, after.s - before.s
    best, best_m = (before, m_lo) if abs(m_lo) <= abs(m_hi) else (after, m_hi)
    side = 0
    for _ in range(REFINE_BUDGET):
        width = d_hi - d_lo
        if abs(best_m) < EVENT_TOL * scale or width < DS_MIN:
            break
        d_trial = d_lo - m_lo * width / (m_hi - m_lo)
        if not (d_lo < d_trial < d_hi) or abs(side) >= 2:
            d_trial = d_lo + 0.5 * width
        try:
            trial = step(problem, before, d_trial)
        except ContinuationError:
            d_trial = d_lo + 0.5 * width
            try:
                trial = step(problem, before, d_trial)
            except ContinuationError:
                break
        m_trial = _event_scalar(kind, trial)
        if abs(m_trial) < abs(best_m):
            best, best_m = trial, m_trial
        if np.sign(m_trial) == np.sign(m_lo):
            d_lo, m_lo = d_trial, m_trial
            side = max(side, 0) + 1
        else:
            d_hi, m_hi = d_trial, m_trial
            side = min(side, 0) - 1
    approximate = not abs(best_m) < EVENT_TOL * scale
    return Event(kind, best, best_m, approximate)


def _on_root(kind: str, start: BranchPoint, first: BranchPoint) -> bool:
    """Whether a run starts on a root of the monitor, within EVENT_TOL of
    its value at the first step.  The monitor's sign there is rounding
    noise, and an event between the two would refine onto the start."""
    m_start, m_first = _event_scalar(kind, start), _event_scalar(kind, first)
    return (m_start is not None and m_first is not None
            and abs(m_start) < EVENT_TOL * abs(m_first))


def detect_events(problem: ContinuationProblem, before: BranchPoint,
                  after: BranchPoint, kinds) -> list:
    """Events of the given kinds between two consecutive accepted points,
    refined in place."""
    events = []
    for kind in kinds:
        if kind == "fold" and problem.fold_index is None:
            raise ValueError("fold events need a designated fold_index")
        m_lo = _event_scalar(kind, before)
        m_hi = _event_scalar(kind, after)
        if m_lo is None or m_hi is None:
            raise ValueError(
                f"monitor {kind!r} is not recorded on this branch")
        if m_lo == 0.0 or np.sign(m_lo) == np.sign(m_hi):
            continue
        events.append(_refine_event(problem, kind, before, after))
    return events


def run_branch(problem: ContinuationProblem, start: BranchPoint,
               ds0: float = 0.1, max_steps: int = 200, stop_at=(),
               bounds: Callable[[np.ndarray], bool] | None = None,
               ds_max: float = DS_MAX) -> BranchResult:
    """Adaptive predictor-corrector run from a converged start point.

    Watches the problem's events (`ContinuationProblem.watched`).
    Halves the step on corrector failure, grows it by GROW_FACTOR after
    fast convergence, and stops on the step budget, a bounds violation,
    a step failure at the minimal step, or an event whose kind appears
    in stop_at.  Each failed step is kept in the result's `rejected` as
    (arclength s of its base point, ds, error class name, message).
    A run that starts on a monitor's root reports no event of that
    monitor between the start and its first step.  ds0 and ds_max must
    be positive and finite, and stop_at may name only watched events.
    """
    for name, value in (("ds0", ds0), ("ds_max", ds_max)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value}")
    for kind in stop_at:
        if kind not in problem.watched:
            raise ValueError(f"stop_at kind {kind!r} is not watched by "
                             f"this problem (watched: {problem.watched})")
    points = [start]
    events: list = []
    rejected: list = []
    ds = min(max(ds0, DS_MIN), ds_max)
    accepted = 0
    stopped_on = "steps"
    while accepted < max_steps:
        try:
            new_point = step(problem, points[-1], ds)
        except ContinuationError as exc:
            rejected.append((points[-1].s, ds, type(exc).__name__, str(exc)))
            if ds <= DS_MIN * (1.0 + 1e-12):
                stopped_on = "step-failure"
                break
            ds = max(0.5 * ds, DS_MIN)
            continue
        accepted += 1
        kinds = [kind for kind in problem.watched
                 if accepted > 1 or not _on_root(kind, start, new_point)]
        found = detect_events(problem, points[-1], new_point, kinds)
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
    return BranchResult(points, events, stopped_on, rejected)


def augmented_continuation_problem(template, monitors=(),
                                   newton_tol: float = NEWTON_TOL,
                                   max_newton: int = MAX_NEWTON):
    """Wrap an augmented state template as a ContinuationProblem.

    The template must carry one more active parameter than its level
    pins, so the packed system is square plus one.  A level-0 solution
    branch watches the turning of its one active parameter (the fold);
    a fold or cusp line watches the given monitors.  Only a level-0
    branch carries the sign of det G_u: on a fold, cusp or swallowtail
    line G_u is singular by construction, so the sign is undefined there
    and the recorded signature is 0.  newton_tol and max_newton set
    every corrector of the runs on the problem.
    """
    if template.dimension != template.residual_size + 1:
        raise ValueError("continuation needs a square-plus-one system; "
                         "free exactly one extra parameter")

    def system(z):
        res, jac = residual_jacobian(template.with_vector(z))
        if template.level == 0:
            jac = _SparseJacobian(jac, template.problem.bordered_order)
        return res, jac

    named = {name: _pde_monitor(template, name) for name in monitors}

    signature = fold_index = None
    if template.level == 0:
        fold_index = template.dimension - 1

        def signature(z):
            lin = Linearization(template.with_vector(z), 1)
            return solution_signature(lin.gu, template.problem.order)

    return ContinuationProblem(system, named, signature, fold_index,
                               newton_tol, max_newton)


def _pde_monitor(template, name: str):
    if name == "cusp":
        def monitor(z):
            return cusp_monitor(template.with_vector(z))
    elif name == "swallowtail":
        def monitor(z):
            state = template.with_vector(z)
            lin = Linearization(state, 3)
            _, v = solve_v(state, lin)
            return swallowtail_monitor(state, v, lin)
    elif name == "butterfly":
        def monitor(z):
            state = template.with_vector(z)
            lin = Linearization(state, 4)
            _, v = solve_v(state, lin)
            return butterfly_monitor(state, v, lin)
    else:
        raise ValueError(f"unknown monitor {name!r}")
    return monitor
