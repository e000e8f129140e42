"""Pseudoarclength continuation with monitor-driven event detection.

Continues any square-plus-one residual system R(z) = 0, R: R^(n+1) -> R^n,
by pseudoarclength steps from an accepted point z_k with tangent t, unit
in a positive diagonal metric M (t . M t = 1): Newton on R stacked with
(M t) . (z - z_k - ds t) = 0, the hyperplane M-orthogonal to t through
the Euler point z_k + ds t.  Arclength, and so every step length, is
measured in M.  An augmented line's M is the discrete L2 metric of its
grid functions (`augmented_continuation_problem`), so a line takes as
many steps on a fine grid as on a coarse one (Allgower, Boehmer, Potra
& Rheinboldt, SIAM J. Numer. Anal. 23, 1986); a plain problem's M is the
identity.  The corrector starts on that hyperplane, from the cubic
Hermite interpolant in M-arclength through two accepted points of the
line, their M-unit tangents its slopes (Allgower & Georg,
Introduction to Numerical Continuation Methods, SIAM 2003, ch. 6): it
extrapolates the last two points of a run and interpolates an event
bracket's ends.  A line's first step starts from the Euler point.  A
corrector gives up after NEWTON_STALL iterations without a new lowest
residual norm.  Residual and Jacobian come from one callable, so each
Newton iterate assembles once; the Jacobian of the converged corrector
is reused for the tangent, and the tangent's factor for the rank check.
The layer factors the square bordered matrix [J; row^T] in `_factor`.
A level-1-3 augmented.BlockJacobian keeps its blocks and factors G_u
bordered by the kernel vector, inside augmented.  The level-0
augmented.SolutionJacobian keeps G_u and its lam column apart, and
[G_u, dG/dlam; row^T] is gathered from them straight into the grid's
minimum-degree order (`augmented.Problem.bordered_order`) for one
SuperLU here; a plain matrix is split so too, of no grid, and gathered
in the identity order.  Every factor solves with the matrix and its
transpose.  A singular bordered tangent matrix raises
RankDeficientError, which a branch run treats like any failed step.
Every accepted point is checked to keep full row rank (`_check_rank`)
by a Sherman-Morrison update of the tangent's LU, which factors nothing
more and forms no dense or global matrix, and a Lanczos run with full
reorthogonalization on it (`_largest_eigenvalue`).  The same LU gives
the sign of det G_u on a level-0 branch (`solution_signature`).
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

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dstev
from scipy.sparse.linalg import splu

from .augmented import (
    MONITOR_ORDERS,
    PIVOT_THRESH,
    SPLU_PANEL,
    SPLU_RELAX,
    BlockFactor,
    BlockJacobian,
    MonitorRecord,
    PermutedLU,
    SolutionJacobian,
    monitor_value,
    residual_jacobian,
    solve_v,
)
from .poisson import Grid

#: Adaptive step bounds and growth policy.
DS_MIN = 1e-5
DS_MAX = 0.5
GROW_FACTOR = 1.3
GROW_ITERS = 3

NEWTON_TOL = 1e-9
MAX_NEWTON = 25
#: A continuation corrector gives up after this many iterations without
#: a new lowest residual norm.  The failed correctors of the
#: default-config 10x10 and 15x15 hunts wander between |R| = 0.4 and
#: 1e3 and each reaches this by iteration 10; no converging corrector of
#: those hunts or of the robust ones went more than one iteration
#: without a new lowest.  A direct solve from a far start is not held
#: to it: the 1x1 direct chain's swallowtail system converges after
#: four iterations without a new lowest.
NEWTON_STALL = 3
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
#: Relative Ritz residual at which the rank check's Lanczos runs stop:
#: a run stops when beta_j |y_j|, the residual norm of its Ritz pair, is
#: at most this times |theta|, ARPACK's test.  The eigenvalue error is
#: at most this, far below the eps * sigma_max rounding of a dense SVD's
#: sigma_min near the rank_tol threshold.
RANK_LANCZOS_TOL = 1e-10
#: `tangent` borders again with the tangent it found when the cosine
#: between its bordering row and the tangent is smaller than this.
BORDER_COS_MIN = 1e-3
#: An augmented line weighs each grid unknown by its cell area over this
#: area, each parameter by 1, so the units of arclength, ds0, ds_max and
#: DS_MIN are those of the 10x10 grid's vectors.  Every weight on that
#: grid is exactly 1.0, so its runs, the test suite's main grid among
#: them, take the Euclidean steps they took before the metric.  The
#: 15x15 area made the 10x10 hunts take more steps (robust 67 -> 77,
#: default config 190 -> 255); an area of 1 found another swallowtail at
#: 15x15.
REFERENCE_AREA = Grid(10, 10).cell_area


class ContinuationError(RuntimeError):
    """Base class for continuation failures."""


class SingularJacobianError(ContinuationError):
    """Linear solve inside a Newton iteration failed."""


class RankDeficientError(ContinuationError):
    """Extended Jacobian lost full row rank at an accepted point."""


class NonFiniteResidualError(ContinuationError):
    """Newton met a NaN or infinite residual."""


class ConvergenceError(ContinuationError):
    """Newton ran out of iterations or stalled; carries the iterate of
    lowest residual norm seen, and that norm."""

    def __init__(self, message, z=None, iterations=0, residual_norm=np.inf):
        super().__init__(message)
        self.z = z
        self.iterations = iterations
        self.residual_norm = residual_norm


def _jacobian(jac):
    """jac as one of the augmented Jacobians.  A plain matrix becomes a
    SolutionJacobian of no grid: an m x (m+1) one splits off its last
    column, a square one its last column and its last row."""
    if isinstance(jac, (BlockJacobian, SolutionJacobian)):
        return jac
    mat = sp.coo_matrix(jac).tocsr()  # sums duplicates, for the gather
    n = mat.shape[1] - 1
    if mat.shape[0] not in (n, n + 1):
        raise ValueError("a plain Jacobian must be square or one column wider")
    last = np.eye(1, n + 1, n)[0]
    rows = (mat.T @ last,) if mat.shape[0] > n else ()
    return SolutionJacobian(mat[:n, :n], (mat @ last)[:n, None], None, rows)


def _factor(jac, strict: bool):
    """Factor of a square Jacobian from `_jacobian`, the one place where
    level 0 and the block levels part: the block solve at levels 1-3,
    else one SuperLU of P A P^T as the SolutionJacobian gathers it
    (`permuted`), a plain matrix's in the identity order.
    Without strict the block solve accepts a nearly singular matrix;
    SuperLU fails on an exactly zero pivot only, strict or not.  Both
    raise a RuntimeError when singular."""
    if isinstance(jac, BlockJacobian):
        return jac.factor(strict)
    mat, perm = jac.permuted()
    return PermutedLU(splu(mat, permc_spec="NATURAL",
                           diag_pivot_thresh=PIVOT_THRESH, relax=SPLU_RELAX,
                           panel_size=SPLU_PANEL,
                           options={"SymmetricMode": True}), perm)


def _linear_solve(mat, rhs: np.ndarray) -> np.ndarray:
    """Solve the square system mat x = rhs through `_factor`: SuperLU at
    level 0 and for a plain matrix, the block solve at levels 1-3."""
    try:
        sol = _factor(_jacobian(mat), strict=True).solve(rhs)
    except RuntimeError as exc:
        raise SingularJacobianError(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularJacobianError("non-finite Newton update")
    return sol


def newton_solve(system, z0, tol_inf: float = NEWTON_TOL,
                 max_iter: int = MAX_NEWTON, stall: int | None = None):
    """Newton iteration on a square system; returns (z, iterations).

    system(z) returns the residual and its Jacobian together.
    Convergence is measured by the infinity norm of the residual; the
    count excludes the final accepting evaluation, so a start that is
    already converged reports zero iterations.  With stall set, an
    evaluation that ends stall iterations in a row without a new lowest
    norm ends the run as stalled.  The ConvergenceError of a stall or of
    max_iter iterations carries the iterate of lowest norm.
    """
    z = np.array(z0, dtype=float)
    best, best_norm, best_iter = z, np.inf, 0
    for iters in range(max_iter + 1):
        r, jac = system(z)
        r = np.asarray(r, dtype=float)
        norm = float(np.max(np.abs(r))) if r.size else 0.0
        if not np.isfinite(norm):
            raise NonFiniteResidualError(
                f"non-finite residual at iteration {iters} (|R| = {norm})")
        if norm < tol_inf:
            return z, iters
        if norm < best_norm:
            best, best_norm, best_iter = z, norm, iters
        elif stall is not None and iters - best_iter >= stall:
            raise ConvergenceError(
                f"no convergence: stalled at iteration {iters}, no new "
                f"lowest |R| in {stall} iterations "
                f"(best |R| = {best_norm:.3e})",
                z=best, iterations=iters, residual_norm=best_norm)
        if iters == max_iter:
            break
        z = z - _linear_solve(jac, r)
        # a grid Jacobian keeps the factor its solve made: let it go
        # before the next assembly rather than hold both at once
        del jac
    raise ConvergenceError(
        f"no convergence in {max_iter} iterations "
        f"(best |R| = {best_norm:.3e})",
        z=best, iterations=max_iter, residual_norm=best_norm,
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
    its default.  metric is the diagonal of the positive metric M in
    which arclength is measured and tangents are unit, one weight per
    packed unknown; None is the identity.
    """

    system: Callable[[np.ndarray], tuple]
    monitors: Mapping[str, Callable[[np.ndarray], float]] = field(
        default_factory=dict)
    fold_index: int | None = None
    newton_tol: float = NEWTON_TOL
    max_newton: int = MAX_NEWTON
    rank_tol: float = 1e-8
    metric: np.ndarray | None = None

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
    solve with T and, with trans "T", with T^T, by `solve` and, without
    a block factor's refinement, by `solve_once`.  row^T s = 1, and the
    tangent is s normalized in the problem's metric.
    """

    lu: PermutedLU | BlockFactor
    row: np.ndarray
    s: np.ndarray


def _weigh(metric: np.ndarray | None, x: np.ndarray) -> np.ndarray:
    """M x for the diagonal metric M held as a vector, x for None."""
    return x if metric is None else metric * x


def tangent(jac, previous: np.ndarray | None = None,
            metric: np.ndarray | None = None):
    """Null vector of an n x (n+1) Jacobian, unit in the diagonal metric
    M (None the identity), oriented continuously.

    Solves the bordered system [jac; row] s = e_last where row is M
    times the previous tangent (orientation then follows
    automatically), or the last unit vector when previous is None, and
    returns t = s / sqrt(s . M s), oriented by row . t > 0.  A row
    within BORDER_COS_MIN of orthogonal to the kernel leaves that
    matrix ill-conditioned (a line that turns in the last parameter at
    its start), so the solve is repeated once with M t as the row.
    Returns (t, factor), the BorderedFactor that the rank check reuses.
    Like inverse iteration, the solve accepts a nearly singular bordered
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
        norm = np.sqrt(sol @ _weigh(metric, sol))
        if not (np.isfinite(norm) and norm > 0.0):
            raise RankDeficientError(
                "bordered tangent matrix is singular: the Jacobian lost "
                "rank or the bordering row is orthogonal to its kernel")
        return lu, sol, sol / norm

    row = (rhs if previous is None
           else _weigh(metric, np.asarray(previous, dtype=float)))
    lu, sol, t = bordered_solve(row)
    if row @ t < 0.0:
        t = -t
    # row^T s = 1, so ||s|| ||row|| is 1 / cos(row, s)
    if np.linalg.norm(sol) * np.linalg.norm(row) * BORDER_COS_MIN > 1.0:
        row = _weigh(metric, t)
        lu, sol, t = bordered_solve(row)
    return t, BorderedFactor(lu, row, sol)


def solution_signature(factor: BorderedFactor, k: int) -> int:
    """Sign of det J with column k removed, for the n x (n+1) Jacobian
    J of a tangent's factor: T = [J; row^T] and T s = e_last give, by
    Cramer's rule, det J_(-k) = (-1)^(n+k) s_k det T (Allgower & Georg,
    Introduction to Numerical Continuation Methods, SIAM 2003, ch. 2).
    At level 0, k = n picks the parameter and J_(-n) is G_u.  0 only
    when s_k is exactly 0; otherwise the sign flips exactly where s_k,
    the tangent's component k, does, as det T keeps its sign along a
    regular branch.  factor.lu must be a PermutedLU: J a SolutionJacobian,
    at level 0 or of a plain matrix."""
    n = len(factor.s) - 1
    return int((-1) ** (n + k) * np.sign(factor.s[k]) * factor.lu.det_sign())


def _largest_eigenvalue(matvec, size: int) -> float:
    """Eigenvalue of largest magnitude of a symmetric operator on R^size.

    Lanczos with full reorthogonalization (Parlett, The Symmetric
    Eigenvalue Problem, SIAM 1998, ch. 13) from a fixed random start
    vector, without restarts: the basis grows by one vector per
    operator application.  Each new vector is orthogonalized against
    the whole basis, and once more when that cancelled more than half
    its squared norm, the DGKS test that ARPACK applies (Daniel, Gragg,
    Kaufman & Stewart, Math. Comp. 30, 1976).  After step j the run
    takes the Ritz value theta of largest magnitude of the tridiagonal
    T_j, y its unit eigenvector, and stops when beta_j |y_j| <=
    RANK_LANCZOS_TOL |theta|, ARPACK's test; a breakdown, beta_j = 0,
    leaves theta exact.  A run that spans R^size without converging,
    meets a non-finite vector or cannot diagonalize T_j is a
    ContinuationError.
    """
    start = np.random.default_rng(0).standard_normal(size)
    basis = np.empty((min(size, 16), size))  # rows double when full
    basis[0] = start / np.linalg.norm(start)
    diagonal, off = np.zeros(size), np.zeros(size)
    for j in range(size):
        q = basis[: j + 1]
        w = matvec(q[j])
        h = q @ w
        w = w - h @ q
        beta = math.sqrt(w @ w)
        if beta * beta < h @ h:
            again = q @ w
            w -= again @ q
            h += again
            beta = math.sqrt(w @ w)
        if not math.isfinite(beta):
            raise ContinuationError(
                "rank check: the Lanczos operator gave a non-finite vector")
        diagonal[j] = h[j]
        theta, y, info = dstev(diagonal[: j + 1], off[: max(j, 1)])
        if info:
            raise ContinuationError(f"rank check: LAPACK dstev failed on "
                                    f"the Lanczos tridiagonal (info {info})")
        k = -1 if theta[-1] >= -theta[0] else 0  # theta ascends
        if beta * abs(y[j, k]) <= RANK_LANCZOS_TOL * abs(theta[k]):
            return float(theta[k])
        if j + 1 == size:
            break
        off[j] = beta
        if j + 1 == len(basis):
            basis = np.concatenate(
                [basis, np.empty((min(j + 1, size - j - 1), size))])
        basis[j + 1] = w / beta
    raise ContinuationError(f"rank check: the Lanczos run did not converge "
                            f"in {size} steps, the operator's size")


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
    away from zero.  sigma_min is the inverse square root of the largest
    eigenvalue of the inverse Gram operator (B^T B)^-1, sigma_max(J) the
    square root of J^T J's, each from one run of `_largest_eigenvalue`,
    an unrestarted Lanczos from a fixed start vector.  The Gram operator
    solves with T by the factor's `solve_once`: a block factor skips the
    iterative refinement of its `solve`, which halves its SuperLU solves
    and moved sigma_min by at most 3.7e-15 relative on the robust and
    default-config hunts.  The Lanczos run for sigma_max(J) happens only
    when sigma_min < rank_tol * c leaves the verdict open.
    """
    jac = _jacobian(jac)
    if factor is None:
        null, factor = tangent(jac)
    size = jac.shape[1]
    scale = max(np.sqrt(np.prod(jac.norms())), 1.0)
    lu, s = factor.lu, factor.s
    w = scale * null - factor.row
    denom = 1.0 + w @ s
    w_t = lu.solve_once(w, trans="T")

    def inverse_gram(x):
        y = lu.solve_once(x)
        y -= s * ((w @ y) / denom)
        z = lu.solve_once(y, trans="T")
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


def _pinned_point(problem: ContinuationProblem, start: np.ndarray,
                  anchor: np.ndarray, row: np.ndarray, previous: np.ndarray,
                  s: float) -> BranchPoint:
    """Accepted point at arclength s of Newton on R(z) = 0 stacked with
    row . (z - anchor) = 0, from start.

    Each Newton step factors [jac; row^T] as `_factor` dispatches it,
    and Newton gives up after NEWTON_STALL iterations without progress.
    The tangent, unit in the problem's metric and oriented along
    previous, comes from the Jacobian of R that the accepting Newton
    evaluation assembled, and the rank check, the signature and the
    monitors reuse the tangent's factor.  The rank check takes the
    Euclidean unit null vector.
    """
    jac = None

    def system(z):
        nonlocal jac
        jac = None  # the last iterate's, and its factor, go first
        res, raw = problem.system(z)
        jac = _jacobian(raw)
        return np.append(res, row @ (z - anchor)), jac.bordered(row)

    z, iters = newton_solve(system, start, problem.newton_tol,
                            problem.max_newton, NEWTON_STALL)
    t, factor = tangent(jac, previous=previous, metric=problem.metric)
    _check_rank(problem, jac, t / np.linalg.norm(t), factor)
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
    return _pinned_point(problem, z0, z0, row, direction * row, 0.0)


def reversed_point(point: BranchPoint) -> BranchPoint:
    """point as the start of its line's other way: its tangent, and the
    fold direction recorded from it, negated.  Everything else recorded
    there is the same either way: the monitors read z and G_u, and the
    signature's two signs, of s_k and det [J; row^T], flip together."""
    return replace(point, tangent=-point.tangent,
                   monitors=replace(point.monitors,
                                    fold_direction=-point.monitors
                                    .fold_direction))


def _hermite(a: BranchPoint, b: BranchPoint, ds: float) -> np.ndarray:
    """Cubic Hermite interpolant in arclength through a and b, their z
    and unit tangents, at a.s + ds; outside [a.s, b.s] it extrapolates."""
    h = b.s - a.s
    x = ds / h
    return ((1.0 + 2.0 * x) * (1.0 - x) ** 2 * a.z
            + x * (1.0 - x) ** 2 * h * a.tangent
            + x * x * (3.0 - 2.0 * x) * b.z
            + x * x * (x - 1.0) * h * b.tangent)


def step(problem: ContinuationProblem, point: BranchPoint, ds: float,
         other: BranchPoint | None = None) -> BranchPoint:
    """One pseudoarclength step of arclength ds, in the problem's metric
    M, from an accepted point.

    The accepted point solves R(z) = 0 on the hyperplane (M t) . (z -
    z_k - ds t) = 0, t and z_k the point's M-unit tangent and z.  Newton
    starts on that hyperplane, from the projection along t of the cubic
    Hermite interpolant (`_hermite`) through point and other, another
    accepted point of the same line: the one before it on a run, the far
    end of the bracket in an event refinement.  Without other it starts
    from the Euler point z_k + ds t.
    """
    t = point.tangent
    row = _weigh(problem.metric, t)
    anchor = point.z + ds * t
    start = anchor if other is None else _hermite(point, other, ds)
    start = start - (row @ (start - anchor)) * t
    return _pinned_point(problem, start, anchor, row, t, point.s + ds)


def _event_scalar(kind: str, point: BranchPoint) -> float | None:
    if kind == "fold":
        return point.monitors.fold_direction
    return getattr(point.monitors, kind)


def _refine_event(problem, kind, before, after) -> Event:
    """Shrink a sign-change bracket by regula falsi trials in step length.

    All trial points are re-stepped from the same base point (the
    bracket's `before` end) with varying step length, so the bracketing
    coordinate stays exactly consistent across trials; each corrector
    starts from the Hermite interpolant between the bracket's original
    ends (`step`).  Each trial is the secant root of the bracket's
    ends.  When the same end is kept twice in a row, its monitor value
    is scaled by 1 - m_new / m_prev (m_new the latest trial's, m_prev
    the replaced end's; 1/2 when that is not positive), the
    Anderson-Bjorck rule, which keeps the convergence superlinear.  A
    proposal outside the bracket, one after STALL_TRIALS trials that
    have not halved the bracket, or a failed trial is replaced by the
    midpoint.  Refinement stops when |m| < EVENT_TOL of the monitor's
    scale, or the bracket can no longer be split (BRACKET_RESOLUTION).
    A bracket narrower than DS_MIN in which no trial has beaten an end's
    |m| holds a jump or a pole of the monitor rather than a root, and
    ends there too.
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
            trial = step(problem, before, d_trial, after)
        except ContinuationError:
            d_trial = d_lo + 0.5 * width
            try:
                trial = step(problem, before, d_trial, after)
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
    """Adaptive pseudoarclength run from a converged start point.

    ds0 and ds_max, like the arclength s of each point, are measured in
    the problem's metric.  Each step's corrector starts from the Hermite
    extrapolation of the last two accepted points (`step`), the first
    step's from the Euler point.  Watches the problem's events
    (`ContinuationProblem.watched`).
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
            new_point = step(problem, points[-1], ds,
                             points[-2] if len(points) > 1 else None)
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
    problem.  Arclength is the discrete L2 one: the metric weighs each
    grid unknown (u, alpha and vbar) by its cell area over
    REFERENCE_AREA and each active parameter by 1, so it is the
    Euclidean one on a 10x10 grid.
    """
    if template.dimension != template.residual_size + 1:
        raise ValueError("continuation needs a square-plus-one system; "
                         "free exactly one extra parameter")

    def system(z):
        return residual_jacobian(template.with_vector(z))

    named = {name: _pde_monitor(template, name) for name in monitors}

    fold_index = template.dimension - 1 if template.level == 0 else None
    n_lam = len(template.active)
    metric = np.ones(template.dimension)
    metric[:-n_lam] = template.problem.weight / REFERENCE_AREA
    return ContinuationProblem(system, named, fold_index, newton_tol,
                               max_newton, metric=metric)


def _pde_monitor(template, name: str):
    """The named monitor of a line through template, at z and the
    tangent's factor there: `monitor_value` of the name's order on the
    accepted assembly's Linearization, which the factor's Jacobian
    carries.  It solves with the BorderedGu that the tangent factored,
    so it factors nothing of its own."""
    if name not in MONITOR_ORDERS:
        raise ValueError(f"unknown monitor {name!r}")
    order = MONITOR_ORDERS[name]

    def monitor(z, factor):
        state, lin = template.with_vector(z), factor.lu.jac.lin
        jet = [solve_v(state, lin)] if order > 3 else []
        return monitor_value(lin, order, jet)

    return monitor
