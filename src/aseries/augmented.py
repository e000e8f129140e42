"""Augmented systems locating folds, cusps and swallowtails directly.

The level-k system is the level-(k-1) system plus its own test
equations, one level of rows on top of the last:

    level 0 (solution):    G(u, lam)
    level 1 (fold):        + G_u a and dx dy a.a - 1
    level 2 (cusp):        + f_uu . a^3
    level 3 (swallowtail): + the vbar equation
                             (G_u^2 + a a^T) vbar + f_uu . a^2
                           + the swallowtail value
                             f_uuu . a^4 + 6 (f_uu a^2) . G_u vbar
                             + 3 vbar . G_u^3 vbar

(. is the componentwise product, vector powers componentwise).  The
unknowns are u, then alpha (level >= 1), then vbar (level 3), then the
active parameters.  One routine, `_assemble(state, level)`, builds the
residual and the analytic Jacobian of every level: it evaluates the
derivative diagonals f .. f^(level+1) and their lam-gradients once and
stacks the rows level by level.  `solution_residual_jacobian` and
`f1_`/`f2_`/`f3_residual_jacobian` each assemble one fixed level, so a
level-k name applied to a higher-level state still gives level k.

The normalization is the discrete-L2 dx dy a.a = 1.  The auxiliary
vbar parameterizes the kernel-orthogonal correction v = G_u vbar, so
orthogonality to the kernel holds exactly even on coarse grids.

The level-3 Jacobian is returned as a RankOneUpdate, a sparse core S
plus one outer product c d^T.  The vbar-equation rows differentiate to
a vbar^T + (a.vbar) I + 2 diag(f_uu . a) in alpha and G_u^2 + a a^T in
vbar; both rank-one terms share the left vector a, so c holds a in the
vbar rows and d holds vbar in the alpha columns and a in the vbar
columns.  S then has O(n) nonzeros, and a Newton step factors the
bordered matrix [[S, c], [d^T, -1]] instead of a matrix with dense
n x n blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp
from scipy.linalg import ldl
from scipy.sparse.linalg import splu

from .poisson import Grid, Nonlinearity, build_laplacian

#: `solution_signature` of a numerically singular matrix.
DEGENERATE = 0


class SingularAuxiliaryError(RuntimeError):
    """Regularized normal equations are singular (kernel dimension > 1)."""


@dataclass(frozen=True)
class Problem:
    """Grid, nonlinearity and the assembled Laplacian, shared by states."""

    grid: Grid
    nl: Nonlinearity
    lap: sp.csr_matrix = None

    def __post_init__(self):
        if self.lap is None:
            object.__setattr__(self, "lap", build_laplacian(self.grid))


@dataclass
class AugmentedState:
    """Unknowns of one augmented system.

    `active` lists the free parameter indices (into lam) in the order
    they appear in the packed unknown vector; the remaining parameters
    are held fixed at their stored values.
    """

    problem: Problem
    level: int
    u: np.ndarray
    lam: np.ndarray
    alpha: np.ndarray | None = None
    vbar: np.ndarray | None = None
    active: tuple = (0,)

    def __post_init__(self):
        n = self.problem.grid.size
        self.u = np.asarray(self.u, dtype=float)
        self.lam = np.asarray(self.lam, dtype=float)
        if self.level not in (0, 1, 2, 3):
            raise ValueError("level must be 0, 1, 2 or 3")
        if self.u.shape != (n,) or self.lam.shape != (3,):
            raise ValueError("state shapes do not match the grid")
        if self.level >= 1:
            if self.alpha is None:
                raise ValueError("levels >= 1 carry a kernel vector")
            self.alpha = np.asarray(self.alpha, dtype=float)
            if self.alpha.shape != (n,):
                raise ValueError("kernel vector has wrong length")
        if self.level == 3:
            if self.vbar is None:
                raise ValueError("level 3 carries vbar")
            self.vbar = np.asarray(self.vbar, dtype=float)
            if self.vbar.shape != (n,):
                raise ValueError("vbar has wrong length")
        self.active = tuple(int(i) for i in self.active)
        if not self.active or any(i not in (0, 1, 2) for i in self.active):
            raise ValueError("active parameter indices must be within 0..2")

    @property
    def residual_size(self) -> int:
        n = self.problem.grid.size
        return {0: n, 1: 2 * n + 1, 2: 2 * n + 2, 3: 3 * n + 3}[self.level]

    @property
    def dimension(self) -> int:
        """Packed unknown count: u, (alpha, vbar,) active parameters."""
        n = self.problem.grid.size
        blocks = {0: 1, 1: 2, 2: 2, 3: 3}[self.level]
        return blocks * n + len(self.active)

    def pack(self) -> np.ndarray:
        parts = [self.u]
        if self.level >= 1:
            parts.append(self.alpha)
        if self.level == 3:
            parts.append(self.vbar)
        parts.append(self.lam[list(self.active)])
        return np.concatenate(parts)

    def with_vector(self, z: np.ndarray) -> "AugmentedState":
        n = self.problem.grid.size
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dimension,):
            raise ValueError(f"expected vector of length {self.dimension}")
        u = z[:n]
        alpha = z[n : 2 * n] if self.level >= 1 else None
        vbar = z[2 * n : 3 * n] if self.level == 3 else None
        lam = self.lam.copy()
        lam[list(self.active)] = z[-len(self.active) :]
        return replace(self, u=u, alpha=alpha, vbar=vbar, lam=lam)


@dataclass
class MonitorRecord:
    """Scalar diagnostics carried along a continuation branch."""

    fold_direction: float = 0.0
    cusp: float = 0.0
    swallowtail: float = 0.0
    butterfly: float | None = None


def _stacks(state: AugmentedState, top: int):
    """t-derivative diagonals f_u .. f^(top) at the current state."""
    nl, u, lam = state.problem.nl, state.u, state.lam
    return [nl.derivative(k, u, lam) for k in range(1, top + 1)]


def _dense(block) -> sp.csr_matrix:
    # bmat rejects rows made of bare ndarrays with mixed widths
    return sp.csr_matrix(np.atleast_2d(block))


@dataclass(frozen=True)
class RankOneUpdate:
    """The matrix core + left right^T, with the outer product never formed.

    Linear solves go through `bordered()`: [[core, left], [right^T, -1]]
    [x; y] = [b; 0] gives y = right . x and (core + left right^T) x = b,
    and the bordered matrix is nonsingular exactly when the sum is.
    """

    core: sp.csr_matrix
    left: np.ndarray
    right: np.ndarray

    @property
    def shape(self) -> tuple:
        return self.core.shape

    @property
    def nnz(self) -> int:
        """Stored entries: the core's plus the nonzeros of both vectors."""
        return int(self.core.nnz + np.count_nonzero(self.left)
                   + np.count_nonzero(self.right))

    def toarray(self) -> np.ndarray:
        return self.core.toarray() + np.outer(self.left, self.right)

    def bordered(self) -> sp.csc_matrix:
        return sp.bmat([[self.core, self.left[:, None]],
                        [self.right[None, :], [[-1.0]]]], format="csc")


def rank_one_solve(a_sparse, alpha: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (A + alpha alpha^T) x = b without densifying the rank-one part."""
    n = alpha.shape[0]
    bordered = RankOneUpdate(a_sparse, alpha, alpha).bordered()
    try:
        solution = splu(bordered).solve(np.append(b, 0.0))
    except RuntimeError as exc:
        raise SingularAuxiliaryError("regularized system is singular") from exc
    x = solution[:n]
    if not np.all(np.isfinite(x)):
        raise SingularAuxiliaryError(
            "regularized system is numerically singular")
    return x


def _swallowtail_rows(gu, f, dlam, a, vbar):
    """Residuals and block rows of the vbar equation and the swallowtail
    value, in the columns u, alpha, vbar and the full lam-gradient.

    The alpha and vbar blocks of the vbar equation leave out their
    rank-one parts a vbar^T and a a^T.  The cubic vbar term
    differentiates into the weight 2 vbar . G_u^2 vbar + (G_u vbar)^2
    against d(f_u).
    """
    f2, f3, f4 = f[2:]
    dlam_fu, dlam_fuu, dlam_fuuu = dlam[1:]
    v = gu @ vbar          # kernel-orthogonal correction
    q = gu @ v             # G_u^2 vbar
    res = [q + a * (a @ vbar) + f2 * a**2,
           [f3 @ a**4 + 6.0 * (f2 * a**2) @ v + 3.0 * vbar @ (gu @ q)]]
    weight = 2.0 * vbar * q + v * v
    vbar_row = [
        gu @ sp.diags(f2 * vbar) + sp.diags(f2 * v + f3 * a**2),
        sp.diags((a @ vbar) + 2.0 * f2 * a),
        gu @ gu,
        v[:, None] * dlam_fu + gu @ (vbar[:, None] * dlam_fu)
        + (a**2)[:, None] * dlam_fuu,
    ]
    value_row = [
        _dense(f4 * a**4 + 6.0 * f3 * a**2 * v + 6.0 * f2**2 * a**2 * vbar
               + 3.0 * f2 * weight),
        _dense(4.0 * f3 * a**3 + 12.0 * f2 * a * v),
        _dense(6.0 * (f2 * a**2) @ gu + 6.0 * (gu @ q)),
        a**4 @ dlam_fuuu + 6.0 * (a**2 * v) @ dlam_fuu
        + 6.0 * (f2 * a**2 * vbar) @ dlam_fu + 3.0 * weight @ dlam_fu,
    ]
    return res, [vbar_row, value_row]


def _assemble(state: AugmentedState, level: int):
    """Residual and analytic Jacobian of the level-`level` system.

    Each level appends its rows to the rows of the level below, and
    every t-derivative and lam-gradient is evaluated once.  A block row
    is [u, alpha, vbar, lam] with the lam-gradient over all three
    parameters; columns the level does not have are dropped and the
    gradient is sliced to the active parameters at the end.
    """
    if level > state.level:
        raise ValueError(f"level-{level} assembly needs a level-{level} "
                         "state")
    prob, u, lam = state.problem, state.u, state.lam
    f = [prob.nl.derivative(k, u, lam) for k in range(level + 2)]
    dlam = [prob.nl.lambda_derivative(k, u, lam) for k in range(level + 1)]
    gu = (prob.lap + sp.diags(f[1])).tocsr()
    res = [prob.lap @ u + f[0]]
    rows = [[gu, None, None, dlam[0]]]
    if level >= 1:
        a, area = state.alpha, prob.grid.cell_area
        res += [gu @ a, [area * (a @ a) - 1.0]]
        rows += [[sp.diags(f[2] * a), gu, None, a[:, None] * dlam[1]],
                 [None, _dense(2.0 * area * a), None, np.zeros(3)]]
    if level >= 2:
        res.append([f[2] @ a**3])
        rows.append([_dense(f[3] * a**3), _dense(3.0 * f[2] * a**2), None,
                     a**3 @ dlam[2]])
    if level == 3:
        more_res, more_rows = _swallowtail_rows(gu, f, dlam, a, state.vbar)
        res += more_res
        rows += more_rows
    columns = {0: (0,), 1: (0, 1), 2: (0, 1), 3: (0, 1, 2)}[level]
    act = list(state.active)
    jac = sp.bmat([[row[j] for j in columns]
                   + [_dense(np.atleast_2d(row[3])[:, act])] for row in rows],
                  format="csr")
    res = np.concatenate(res)
    if level < 3:
        return res, jac
    # the outer product of the vbar rows: a times (vbar, a) in (alpha, vbar)
    n = u.size
    left = np.zeros(jac.shape[0])
    left[2 * n + 2 : 3 * n + 2] = a
    right = np.zeros(jac.shape[1])
    right[n : 2 * n] = state.vbar
    right[2 * n : 3 * n] = a
    return res, RankOneUpdate(jac, left, right)


def residual_jacobian(state: AugmentedState):
    """Dispatch to the assembly routine matching state.level."""
    return {
        0: solution_residual_jacobian,
        1: f1_residual_jacobian,
        2: f2_residual_jacobian,
        3: f3_residual_jacobian,
    }[state.level](state)


def solution_residual_jacobian(state: AugmentedState):
    """Plain solution branch: G(u, lam) with u and the active lam free."""
    return _assemble(state, 0)


def f1_residual_jacobian(state: AugmentedState):
    """Fold system: [G; G_u a; dx dy a.a - 1] and its Jacobian."""
    return _assemble(state, 1)


def f2_residual_jacobian(state: AugmentedState):
    """Cusp system: fold rows plus the cusp test value."""
    return _assemble(state, 2)


def f3_residual_jacobian(state: AugmentedState):
    """Swallowtail system: cusp rows plus the vbar equation and the
    swallowtail value; the Jacobian is a RankOneUpdate."""
    return _assemble(state, 3)


def cusp_monitor(state: AugmentedState) -> float:
    f2 = state.problem.nl.derivative(2, state.u, state.lam)
    return float(f2 @ state.alpha**3)


def solve_v(state: AugmentedState):
    """Kernel-orthogonal correction: (G_u^2 + a a^T) vbar = -(f_uu . a^2).

    Returns (vbar, v) with v = G_u vbar; v solves G_u v = -(f_uu . a^2)
    projected off the kernel, and is orthogonal to it by construction.
    """
    f1, f2 = _stacks(state, 2)
    gu = (state.problem.lap + sp.diags(f1)).tocsr()
    vbar = rank_one_solve((gu @ gu).tocsc(), state.alpha, -f2 * state.alpha**2)
    return vbar, gu @ vbar


def swallowtail_monitor(state: AugmentedState, v: np.ndarray) -> float:
    a = state.alpha
    f1, f2, f3 = _stacks(state, 3)
    gu = (state.problem.lap + sp.diags(f1)).tocsr()
    return float(f3 @ a**4 + 6.0 * (f2 * a**2) @ v + 3.0 * v @ (gu @ v))


def butterfly_monitor(state: AugmentedState, v: np.ndarray) -> float:
    """Butterfly test with the auxiliary w-solve.

    (G_u^2 + a a^T) wbar = -(3 f_uu . a . v + f_uuu . a^3), w = G_u wbar,
    value = f_uuuu . a^5 - 15 (f_uu . a) . v^2 + 10 (f_uu . a^2) . w.
    """
    a = state.alpha
    f1, f2, f3, f4 = _stacks(state, 4)
    gu = (state.problem.lap + sp.diags(f1)).tocsr()
    wbar = rank_one_solve((gu @ gu).tocsc(), a,
                          -(3.0 * f2 * a * v + f3 * a**3))
    w = gu @ wbar
    return float(f4 @ a**5 - 15.0 * (f2 * a) @ (v * v)
                 + 10.0 * (f2 * a**2) @ w)


def evaluate_monitors(state: AugmentedState) -> MonitorRecord:
    """Cusp and swallowtail values at a state; butterfly at level 3."""
    _, v = solve_v(state)
    butterfly = butterfly_monitor(state, v) if state.level == 3 else None
    return MonitorRecord(
        cusp=cusp_monitor(state),
        swallowtail=swallowtail_monitor(state, v),
        butterfly=butterfly,
    )


def _permutation_parity(perm: np.ndarray) -> int:
    perm = np.asarray(perm)
    visited = np.zeros(perm.shape[0], dtype=bool)
    sign = 1
    for start in range(perm.shape[0]):
        if visited[start]:
            continue
        length = 0
        j = start
        while not visited[j]:
            visited[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def solution_signature(gu, tol: float = 1e-10):
    """Sign of det(G_u): LU in natural order, inertia fallback.

    The LU factorization keeps the natural ordering and diagonal pivots
    wherever possible, so the sign is the parity of negative pivots
    (times the parity of any structural permutations).  A pivot below
    tol relative to the largest switches to a dense symmetric LDL^T
    factorization; a near-singular factor reports DEGENERATE (0).
    """
    gu = sp.csc_matrix(gu)
    try:
        lu = splu(gu, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
        pivots = lu.U.diagonal()
        scale = np.max(np.abs(pivots))
        if scale > 0 and np.min(np.abs(pivots)) > tol * scale:
            sign = -1 if int(np.sum(pivots < 0)) % 2 else 1
            return sign * _permutation_parity(lu.perm_r) * _permutation_parity(
                lu.perm_c
            )
    except RuntimeError:
        pass  # exactly singular factor: decide below
    _, d, _ = ldl(gu.toarray())
    eigs = np.linalg.eigvalsh(d)
    scale = max(float(np.max(np.abs(eigs))), 1.0)
    if np.min(np.abs(eigs)) < tol * scale:
        return DEGENERATE
    return -1 if int(np.sum(eigs < 0)) % 2 else 1
