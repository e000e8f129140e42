"""Pseudoarclength continuation with monitor-driven event detection.

Continues any square-plus-one residual system R(z) = 0, R: R^(n+1) -> R^n,
by an Euler predictor and an orthogonal corrector (Newton on R stacked
with tangent . (z - z_pred) = 0).  Residual and Jacobian come from one
callable, so each Newton iterate assembles once; the Jacobian of the
converged corrector is reused for the tangent, and the tangent's factor
for the rank check.
The layer factors the square bordered matrix [J; row^T] in `_factor`.
A level-1-3 augmented.BlockJacobian keeps its blocks and factors G_u
bordered by the kernel vector, inside augmented.  The level-0
augmented.SolutionJacobian keeps G_u and its lam column apart, and
[G_u, dG/dlam; row^T] is gathered from them straight into the grid's
nested-dissection order for one SuperLU here.  A plain Jacobian (dense
ones converted) gets one SuperLU of the whole matrix in its own order.
Every factor solves with the matrix and its transpose.  A singular
bordered tangent matrix raises RankDeficientError, which a branch run
treats like any failed step.
Every accepted point is checked to keep full row rank (`_check_rank`)
by a Sherman-Morrison update of the tangent's LU, which factors nothing
more and forms no dense or global matrix.  The same LU gives the sign of
det G_u on a level-0 branch (`solution_signature`).
Monitors are named scalar functions of z and of the tangent's factor,
recorded at every accepted point: an augmented line's monitors solve
with the BorderedGu that the tangent factored there.  Sign changes
between consecutive points are refined by re-stepping with
Anderson-Bjorck regula falsi on arclength, down to
EVENT_TOL of the monitor's scale or a bracket that floating point can
no longer split (BRACKET_RESOLUTION); a bracket with no root, whose
trials never beat its ends, ends at DS_MIN.  A fold event is a sign
change of the tangent component belonging to the designated parameter.
A ContinuationProblem carries the system, the events a run watches and
the Newton settings of its correctors.
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
    MonitorRecord,
    PermutedLU,
    SolutionJacobian,
    butterfly_monitor,
    cusp_monitor,
    residual_jacobian,
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
#: Event refinement stops when its bracket is narrower than this times
#: the original one: floating point can no longer split it.  A bracket
#: whose trials approach a root is not stopped at an arclength such as
#: DS_MIN, because a superlinear refinement closes in on the root from
#: both sides.  On the robust 10x10 hunt the cusp bracket is 1e-6 wide
#: while |m| is still twice EVENT_TOL of its scale.
BRACKET_RESOLUTION = 1e-12
#: Event refinement bisects a bracket that this many trials have not
#: halved.  Anderson-Bjorck stalls on a monitor that is flat on one side
#: of its root: the kept end's value is scaled almost to 0, the next
#: trial lands next to that end and replaces it, and the bracket hardly
#: shrinks.  On the monitor expm1(100 (x - 0.2)) over 0 <= x <= 0.35 it
#: used all REFINE_BUDGET trials and ended approximate.
STALL_TRIALS = 3
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


def bordered_csr(mat, cols: np.ndarray, rows=()) -> sp.csr_matrix:
    """[[mat, cols], [rows]] in CSR, cols and rows stored whole, zeros
    too: each row of mat gains its cols entries last, the rows follow."""
    mat, m = sp.csr_matrix(mat), cols.shape[1]
    (n, width), ends = mat.shape, np.repeat(mat.indptr[1:], m)
    rows, full = np.reshape(rows, (-1, width + m)), np.arange(width + m)
    data = np.append(np.insert(mat.data, ends, cols.ravel()), rows)
    indices = np.append(np.insert(mat.indices, ends,
                                  np.tile(full[width:], n)),
                        np.tile(full, len(rows)))
    indptr = np.append(mat.indptr + m * np.arange(n + 1), mat.nnz + n * m
                       + (width + m) * np.arange(1, len(rows) + 1))
    return sp.csr_matrix((data, indices, indptr),
                         shape=(n + len(rows), width + m))


@dataclass(frozen=True)
class _SparseJacobian:
    """A plain Jacobian, of no grid, behind the BlockJacobian interface;
    its factor is one SuperLU of the whole [mat; row^T] in mat's own
    order."""

    mat: sp.csr_matrix

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
        """[mat; row^T], the row stored whole."""
        empty = np.empty((self.shape[0], 0))
        return replace(self, mat=bordered_csr(self.mat, empty, row))

    def permuted(self) -> tuple:
        return self.mat.tocsc(), np.arange(self.shape[0])


def _jacobian(jac):
    """Any Jacobian but the augmented ones, as a _SparseJacobian."""
    if isinstance(jac, (BlockJacobian, SolutionJacobian, _SparseJacobian)):
        return jac
    return _SparseJacobian(sp.csr_matrix(jac))


def _factor(jac, strict: bool):
    """Factor of a square Jacobian from `_jacobian`, the one place where
    level 0 and the block levels part: the block solve at levels 1-3,
    else one SuperLU of P A P^T as the Jacobian gathers it (`permuted`).
    Without strict the block solve accepts a nearly singular matrix;
    SuperLU fails on an exactly zero pivot only, strict or not.  Both
    raise a RuntimeError when singular."""
    if isinstance(jac, BlockJacobian):
        return jac.factor(strict)
    mat, perm = jac.permuted()
    return PermutedLU(splu(mat, permc_spec="NATURAL",
                           diag_pivot_thresh=PIVOT_THRESH,
                           options={"SymmetricMode": True}), perm)


def _linear_solve(mat, rhs: np.ndarray) -> np.ndarray:
    """Solve the square system mat x = rhs through `_factor`: SuperLU at
    level 0, the block solve at levels 1-3."""
    try:
        sol = _factor(_jacobian(mat), strict=True).solve(rhs)
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
        # a grid Jacobian keeps the factor its solve made: let it go
        # before the next assembly rather than hold both at once
        del jac
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations (|R| = {norm:.3e})",
        z=z, iterations=max_iter, residual_norm=norm,
    )


@dataclass
class ContinuationProblem:
    """Residual, Jacobian, diagnostics and solver settings of one branch
    family.

    system maps z to the pair (residual, Jacobian); monitors maps names
    from {cusp, swallowtail, butterfly} to scalar functions of z and of
    the tangent's BorderedFactor at z, which `tangent` made at that
    accepted point;
    fold_index is the packed position of the parameter whose turning
    defines a fold event.  Each accepted point's signature is the sign
    of det J with column fold_index removed, det G_u at level 0
    (`solution_signature`), and 0 when fold_index is None.  A run
    watches the events in `watched`: the fold when fold_index is set,
    then every monitor.  newton_tol and max_newton set every corrector
    of the run, refinement trials included; rank_tol governs the
    regularity check of accepted points, and augmented problems keep
    its default.
    """

    system: Callable[[np.ndarray], tuple]
    monitors: Mapping[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict)
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
            lu = _factor(jac.bordered(row), strict=False)
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


def solution_signature(factor: BorderedFactor, k: int) -> int:
    """Sign of det J with column k removed, for the n x (n+1) Jacobian
    J of a tangent's factor: T = [J; row^T] and T s = e_last give, by
    Cramer's rule, det J_(-k) = (-1)^(n+k) s_k det T (Allgower & Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2).
    At level 0, k = n picks the parameter and J_(-n) is G_u.  0 only
    when s_k is exactly 0; otherwise the sign flips exactly where s_k,
    the tangent's component k, does, as det T keeps its sign along a
    regular branch.  factor.lu must be a PermutedLU (level 0 or a plain
    Jacobian)."""
    n = len(factor.s) - 1
    return int((-1) ** (n + k) * np.sign(factor.s[k]) * factor.lu.det_sign())


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


def _record(problem: ContinuationProblem, z: np.ndarray, tang: np.ndarray,
            factor: BorderedFactor) -> MonitorRecord:
    direction = 0.0
    if problem.fold_index is not None:
        direction = float(tang[problem.fold_index])
    rec = MonitorRecord(fold_direction=direction)
    for name, fn in problem.monitors.items():
        setattr(rec, name, float(fn(z, factor)))
    return rec


def _pinned_point(problem: ContinuationProblem, anchor: np.ndarray,
                  row: np.ndarray, previous: np.ndarray,
                  s: float) -> BranchPoint:
    """Accepted point at arclength s of Newton on R(z) = 0 stacked with
    row . (z - anchor) = 0, from anchor.

    Each Newton step factors [jac; row^T] as `_factor` dispatches it.
    The tangent, oriented along previous, comes from the Jacobian of R
    that the accepting Newton evaluation assembled, and the rank check,
    the signature and the monitors reuse the tangent's factor.
    """
    jac = None

    def system(z):
        nonlocal jac
        jac = None  # the last iterate's, and its factor, go first
        res, raw = problem.system(z)
        jac = _jacobian(raw)
        return np.append(res, row @ (z - anchor)), jac.bordered(row)

    z, iters = newton_solve(system, anchor, problem.newton_tol,
                            problem.max_newton)
    t, factor = tangent(jac, previous=previous)
    _check_rank(problem, jac, t, factor)
    signature = (0 if problem.fold_index is None
                 else solution_signature(factor, problem.fold_index))
    return BranchPoint(z, s, t, _record(problem, z, t, factor), signature,
                       iters)


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
    """Shrink a sign-change bracket by regula falsi trials in step length.

    All trial points are re-stepped from the same base point (the
    bracket's `before` end) with varying predictor length, so the
    bracketing coordinate stays exactly consistent across trials.  Each
    trial is the secant root of the bracket's ends.  When the same end
    is kept twice in a row, its monitor value is scaled by
    1 - m_new / m_prev (m_new the latest trial's, m_prev the replaced
    end's; 1/2 when that is not positive), the Anderson-Bjorck rule,
    which keeps the convergence superlinear.  A proposal outside the
    bracket, one after STALL_TRIALS trials that have not halved the
    bracket, or a failed trial is replaced by the midpoint.  Refinement
    stops when |m| < EVENT_TOL of the monitor's scale, or the bracket
    can no longer be split (BRACKET_RESOLUTION).  A bracket narrower
    than DS_MIN in which no trial has beaten an end's |m| holds a jump
    or a pole of the monitor rather than a root, and ends there too.
    """
    m_lo, m_hi = _event_scalar(kind, before), _event_scalar(kind, after)
    scale = max(abs(m_lo), abs(m_hi))
    d_lo, d_hi = 0.0, after.s - before.s
    min_width = BRACKET_RESOLUTION * d_hi
    best, best_m = (before, m_lo) if abs(m_lo) <= abs(m_hi) else (after, m_hi)
    replaced, widths = None, []
    for _ in range(REFINE_BUDGET):
        width = d_hi - d_lo
        if abs(best_m) < EVENT_TOL * scale or width < min_width:
            break
        if width < DS_MIN and (best is before or best is after):
            break  # no trial beat an end: a jump or a pole, no root
        widths.append(width)
        stalled = (len(widths) > STALL_TRIALS
                   and width > 0.5 * widths[-1 - STALL_TRIALS])
        d_trial = d_lo - m_lo * width / (m_hi - m_lo)
        if stalled or not d_lo < d_trial < d_hi:
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
            if replaced == "lo":
                m_hi *= _anderson_bjorck(m_trial, m_lo)
            d_lo, m_lo, replaced = d_trial, m_trial, "lo"
        else:
            if replaced == "hi":
                m_lo *= _anderson_bjorck(m_trial, m_hi)
            d_hi, m_hi, replaced = d_trial, m_trial, "hi"
    approximate = not abs(best_m) < EVENT_TOL * scale
    return Event(kind, best, best_m, approximate)


def _anderson_bjorck(m_new: float, m_prev: float) -> float:
    """Factor on the kept end's monitor value after a trial m_new
    replaced an end of the same sign, of value m_prev."""
    factor = 1.0 - m_new / m_prev
    return factor if factor > 0.0 else 0.5


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
    branch, through its fold_index, records the sign of det G_u: on a
    fold, cusp or swallowtail line G_u is singular by construction, so
    the sign is undefined there and the recorded signature is 0.
    newton_tol and max_newton set every corrector of the runs on the
    problem.
    """
    if template.dimension != template.residual_size + 1:
        raise ValueError("continuation needs a square-plus-one system; "
                         "free exactly one extra parameter")

    def system(z):
        return residual_jacobian(template.with_vector(z))

    named = {name: _pde_monitor(template, name) for name in monitors}

    fold_index = template.dimension - 1 if template.level == 0 else None
    return ContinuationProblem(system, named, fold_index, newton_tol,
                               max_newton)


def _pde_monitor(template, name: str):
    """The named monitor of a line through template, at z and the
    tangent's factor there.  The factor's Jacobian carries the accepted
    assembly's Linearization: the monitor reads that jet, raised to its
    own top where it is lower, and solves with the BorderedGu that the
    tangent factored, so it factors nothing of its own."""
    if name not in ("cusp", "swallowtail", "butterfly"):
        raise ValueError(f"unknown monitor {name!r}")

    def monitor(z, factor):
        state, lin = template.with_vector(z), factor.lu.jac.lin
        if name == "cusp":
            return cusp_monitor(state, lin)
        _, v = solve_v(state, lin)
        if name == "swallowtail":
            return swallowtail_monitor(state, v, lin.raised(3))
        return butterfly_monitor(state, v, lin.raised(4))

    return monitor
