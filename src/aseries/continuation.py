"""Pseudoarclength continuation with monitor-driven event detection.

Continues any square-plus-one residual system R(z) = 0, R: R^(n+1) -> R^n,
by an Euler predictor and an orthogonal corrector (Newton on R stacked
with tangent . (z - z_pred) = 0).  Residual and Jacobian come from one
callable, so each Newton iterate assembles once; the Jacobian of the
converged corrector is reused for the tangent, and the tangent's LU
for the rank check.
The layer is sparse only (a dense Jacobian is converted to sparse), and
a singular bordered tangent matrix [J; row^T] raises RankDeficientError,
which a branch run treats like any failed step.
Every accepted point is checked to be regular, i.e. its n x (n+1)
Jacobian J keeps full row rank: sigma_min(J) < rank_tol *
max(sigma_max(J), 1) rejects it.  The check borders J with its scaled
unit null vector, B = [J; c t^T] with c = max(U, 1) and U =
sqrt(||J||_1 ||J||_inf) >= sigma_max(J), so the singular values of B
are those of J plus c and sigma_min(B) = sigma_min(J).  B differs from
the tangent's bordered matrix T = [J; row^T] only in its last row, so a
Sherman-Morrison update of T's LU gives B^-1 and B^-T, and Lanczos on
B^-T B^-1 gives sigma_min(B) = 1 / ||B^-1||_2.  A point with sigma_min
>= rank_tol * c is accepted at once; only otherwise does a Lanczos run
on J^T J give sigma_max(J) for the exact verdict.  The check forms no
dense matrix, and within a step it factors nothing beyond the tangent.
Monitors are named scalar functions of z recorded at every accepted
point; sign changes between consecutive points are refined by
re-stepping with a secant rule on arclength, down to EVENT_TOL of the
monitor's scale or a bracket of DS_MIN, the smallest step a branch
takes.  A fold event is a sign change of the tangent component belonging
to the designated parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import (
    ArpackError,
    LinearOperator,
    SuperLU,
    eigsh,
    splu,
)

from .augmented import (
    MonitorRecord,
    SwallowtailJacobian,
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


def _bordered(jac, row: np.ndarray) -> sp.csc_matrix:
    """The square matrix [jac; row^T] of an n x (n+1) jac, in CSC form."""
    # the row from its nonzeros: csr_matrix(row[None, :]) is ~2x slower
    cols = np.flatnonzero(row)
    last = sp.csr_matrix((row[cols], cols, [0, cols.size]),
                         shape=(1, row.size))
    # one conversion of the stack: vstack(format="csc") is ~3x slower
    return sp.vstack([sp.csr_matrix(jac), last]).tocsc()


def _linear_solve(mat, rhs: np.ndarray) -> np.ndarray:
    """Solve mat x = rhs: SuperLU, or a SwallowtailJacobian's block solve."""
    try:
        if isinstance(mat, SwallowtailJacobian):
            sol = mat.solve(rhs)
        else:
            sol = splu(sp.csc_matrix(mat)).solve(rhs)
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
    """Residual, Jacobian and diagnostics of one branch family.

    system maps z to the pair (residual, Jacobian); monitors maps names
    from {cusp, swallowtail, butterfly} to scalar functions of z;
    fold_index is the packed position of the parameter whose turning
    defines a fold event; signature maps z to the sign of det G_u (0
    when absent).  rank_tol governs the regularity check of accepted
    points; augmented problems keep the default.
    """

    system: Callable[[np.ndarray], tuple]
    monitors: Mapping[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict)
    signature: Callable[[np.ndarray], int] | None = None
    fold_index: int | None = None
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


@dataclass(frozen=True)
class BorderedFactor:
    """SuperLU factor of T = [J; row^T] and s = T^-1 e_last.

    row^T s = 1, and the unit tangent is s / ||s||.
    """

    lu: SuperLU
    row: np.ndarray
    s: np.ndarray


def tangent(jac, previous: np.ndarray | None = None):
    """Unit null vector of an n x (n+1) Jacobian, oriented continuously.

    Solves the bordered system [jac; row] s = e_last where row is the
    previous tangent (orientation then follows automatically), or the
    last unit vector when previous is None.  Returns (t, factor), the
    BorderedFactor that the rank check reuses.  A singular bordered
    matrix raises RankDeficientError.
    """
    n_rows, n_cols = jac.shape
    if n_cols != n_rows + 1:
        raise ValueError("tangent needs one more column than rows")
    rhs = np.zeros(n_cols)
    rhs[-1] = 1.0
    row = rhs if previous is None else np.asarray(previous, dtype=float)
    try:
        lu = splu(_bordered(jac, row))
        sol = lu.solve(rhs)
    except RuntimeError:
        lu, sol = None, np.zeros(n_cols)
    norm = np.linalg.norm(sol)
    if not (np.isfinite(norm) and norm > 0.0):
        raise RankDeficientError(
            "bordered tangent matrix is singular: the Jacobian lost rank "
            "or the bordering row is orthogonal to its kernel")
    t = sol / norm
    if row @ t < 0.0:
        t = -t
    return t, BorderedFactor(lu, row, sol)


def _largest_eigenvalue(matvec, size: int) -> float:
    """Largest eigenvalue of a symmetric positive semidefinite operator.

    Lanczos (ARPACK) from a fixed random start vector, stopped at a
    Ritz residual of RANK_LANCZOS_TOL relative; a failure to converge is
    a ContinuationError.
    """
    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    start = np.random.default_rng(0).standard_normal(size)
    try:
        return float(eigsh(op, k=1, v0=start, tol=RANK_LANCZOS_TOL,
                           return_eigenvectors=False)[0])
    except ArpackError as exc:
        raise ContinuationError(f"rank check: ARPACK failed: {exc}") from exc


def _check_rank(problem: ContinuationProblem, jac,
                null: np.ndarray | None = None,
                factor: BorderedFactor | None = None) -> None:
    """Reject an n x (n+1) Jacobian that has lost full row rank.

    The verdict is sigma_min(J) < rank_tol * max(sigma_max(J), 1).  null
    is a unit null vector of jac (the tangent) and factor the
    BorderedFactor of [jac; row^T] that gave it; without a factor, one
    of [jac; null^T] is built, and without either, tangent(jac) gives
    both.  Bordering with c t^T, c = max(U, 1) for the norm bound U =
    sqrt(||J||_1 ||J||_inf) >= sigma_max, adds the singular value c and
    keeps the others, so sigma_min of B = [jac; c t^T] is sigma_min(J)
    exactly.  B = T + e_last w^T with w = c t - row, and row^T s = 1
    makes the Sherman-Morrison denominator 1 + w^T s = c t^T s =
    +-c ||s||, well away from zero.  The Lanczos run for sigma_max(J)
    happens only when sigma_min < rank_tol * c leaves the verdict open.
    """
    mat = sp.csr_matrix(jac)
    if factor is None and null is None:
        null, factor = tangent(mat)
    elif factor is None:
        null = np.asarray(null, dtype=float)
        try:
            lu = splu(_bordered(mat, null))
        except RuntimeError as exc:
            raise RankDeficientError(
                f"bordered Jacobian is exactly singular ({exc}) at an "
                "accepted point") from exc
        last = np.zeros(mat.shape[1])
        last[-1] = 1.0
        factor = BorderedFactor(lu, null, lu.solve(last))
    size = mat.shape[1]
    magnitude = abs(mat)
    bound = np.sqrt(magnitude.sum(axis=0).max() * magnitude.sum(axis=1).max())
    scale = max(bound, 1.0)
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
    mat_t = mat.T.tocsr()
    sigma_max = np.sqrt(_largest_eigenvalue(lambda x: mat_t @ (mat @ x),
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
        return np.append(res, row @ (z - anchor)), _bordered(jac, row)

    z, iters = newton_solve(system, anchor, newton_tol, max_newton)
    return z, iters, jac


def initial_point(problem: ContinuationProblem, z0: np.ndarray,
                  direction: float = 1.0, newton_tol: float = NEWTON_TOL,
                  max_newton: int = MAX_NEWTON) -> BranchPoint:
    """Converge a branch start and attach its oriented tangent.

    The underdetermined system is squared by pinning the last packed
    component at its start value; the tangent is oriented along
    direction * e_last.
    """
    z0 = np.asarray(z0, dtype=float)
    row = np.zeros(len(z0))
    row[-1] = 1.0
    z, iters, jac = _pinned_newton(problem, z0, row, newton_tol, max_newton)
    t, factor = tangent(jac, previous=direction * row)
    _check_rank(problem, jac, t, factor)
    rec = _record(problem, z, t)
    return BranchPoint(z, 0.0, t, rec, _signature(problem, z), iters)


def step(problem: ContinuationProblem, point: BranchPoint, ds: float,
         newton_tol: float = NEWTON_TOL,
         max_newton: int = MAX_NEWTON) -> BranchPoint:
    """One predictor-corrector step of length ds from an accepted point."""
    t = point.tangent
    z, iters, jac = _pinned_newton(problem, point.z + ds * t, t, newton_tol,
                                   max_newton)
    t_new, factor = tangent(jac, previous=t)
    _check_rank(problem, jac, t_new, factor)
    rec = _record(problem, z, t_new)
    return BranchPoint(z, point.s + ds, t_new, rec,
                       _signature(problem, z), iters)


def _event_scalar(kind: str, point: BranchPoint) -> float | None:
    if kind == "fold":
        return point.monitors.fold_direction
    return getattr(point.monitors, kind)


def _refine_event(problem, kind, before, after, m_lo, m_hi, newton_tol,
                  max_newton) -> Event:
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
        if abs(best_m) < EVENT_TOL * scale or width < DS_MIN:
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
    approximate = not abs(best_m) < EVENT_TOL * scale
    return Event(kind, best, best_m, approximate)


def detect_events(problem: ContinuationProblem, before: BranchPoint,
                  after: BranchPoint, monitor_names,
                  newton_tol: float = NEWTON_TOL,
                  max_newton: int = MAX_NEWTON) -> list:
    """Events between two consecutive accepted points, refined in place."""
    events = []
    for kind in monitor_names:
        if kind == "fold" and problem.fold_index is None:
            raise ValueError("fold events need a designated fold_index")
        m_lo = _event_scalar(kind, before)
        m_hi = _event_scalar(kind, after)
        if m_lo is None or m_hi is None:
            raise ValueError(
                f"monitor {kind!r} is not recorded on this branch")
        if m_lo == 0.0 or np.sign(m_lo) == np.sign(m_hi):
            continue
        events.append(_refine_event(problem, kind, before, after, m_lo, m_hi,
                                    newton_tol, max_newton))
    return events


def run_branch(problem: ContinuationProblem, start: BranchPoint,
               ds0: float = 0.1, max_steps: int = 200, monitor_names=(),
               stop_at=(), bounds: Callable[[np.ndarray], bool] | None = None,
               ds_max: float = DS_MAX, newton_tol: float = NEWTON_TOL,
               max_newton: int = MAX_NEWTON) -> BranchResult:
    """Adaptive predictor-corrector run from a converged start point.

    Halves the step on corrector failure, grows it by GROW_FACTOR after
    fast convergence, and stops on the step budget, a bounds violation,
    a step failure at the minimal step, or an event whose kind appears
    in stop_at.  ds0 and ds_max must be positive and finite.
    """
    for name, value in (("ds0", ds0), ("ds_max", ds_max)):
        if not (value > 0 and np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite, "
                             f"got {value}")
    points = [start]
    events: list = []
    ds = min(max(ds0, DS_MIN), ds_max)
    accepted = 0
    stopped_on = "steps"
    while accepted < max_steps:
        try:
            new_point = step(problem, points[-1], ds, newton_tol, max_newton)
        except ContinuationError:
            if ds <= DS_MIN * (1.0 + 1e-12):
                stopped_on = "step-failure"
                break
            ds = max(0.5 * ds, DS_MIN)
            continue
        accepted += 1
        found = detect_events(problem, points[-1], new_point, monitor_names,
                              newton_tol, max_newton)
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
                                   fold_parameter: int | None = None):
    """Wrap an augmented state template as a ContinuationProblem.

    The template must carry one more active parameter than its level
    pins, so the packed system is square plus one.  fold_parameter is
    the lam index whose turning marks fold events.  Only a level-0
    branch carries the sign of det G_u: on a fold, cusp or swallowtail
    line G_u is singular by construction, so the sign is undefined there
    and the recorded signature is 0.
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
    if template.level == 0:
        def signature(z):
            st = template.with_vector(z)
            f1 = st.problem.nl.derivative(1, st.u, st.lam)
            gu = st.problem.lap + sp.diags(f1)
            return solution_signature(gu.tocsc())

    return ContinuationProblem(system, named, signature, fold_index)


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
