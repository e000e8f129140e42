"""Augmented systems locating folds, cusps and swallowtails directly.

Stacks the discrete residual G(u, lam) with kernel, normalization and
test-value equations:

    level 1 (fold):        [G; G_u a; dx dy a.a - 1]
    level 2 (cusp):        level 1 rows plus f_uu . a^3
    level 3 (swallowtail): level 2 rows plus the v-equation
                           (G_u^2 + a a^T) vbar + f_uu . a^2
                           and the swallowtail value
                           f_uuu . a^4 + 6 (f_uu a^2) . G_u vbar
                             + 3 vbar . G_u^3 vbar

(. is the componentwise product, vector powers componentwise).  Every
level uses the discrete-L2 normalization dx dy a.a = 1.  The auxiliary
vbar parameterizes the kernel-orthogonal correction v = G_u vbar, so
orthogonality to the kernel holds exactly even on coarse grids.  All
Jacobians are analytic, including the u- and lam-derivatives of the
cubic vbar terms.

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

from .classifier import DEGENERATE
from .poisson import Grid, Nonlinearity, build_laplacian

#: Monitor magnitude treated as a blow-up (D4-type degeneracy heuristic).
BLOWUP_ABS = 1e6
#: Monitor growth factor over one step treated as a blow-up.
BLOWUP_RATIO = 100.0


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
    blowup_flag: bool = False


def flag_blowup(record: MonitorRecord,
                previous: MonitorRecord | None) -> MonitorRecord:
    """Set blowup_flag on absolute blow-up or rapid one-step growth."""
    values = [record.cusp, record.swallowtail]
    if record.butterfly is not None:
        values.append(record.butterfly)
    if not all(np.isfinite(values)) or np.max(np.abs(values)) > BLOWUP_ABS:
        record.blowup_flag = True
        return record
    if previous is not None:
        pairs = [(record.cusp, previous.cusp),
                 (record.swallowtail, previous.swallowtail)]
        for cur, prev in pairs:
            if abs(prev) > 1e-8 and abs(cur) > BLOWUP_RATIO * abs(prev):
                record.blowup_flag = True
        return record
    return record


def _stacks(state: AugmentedState, top: int):
    """t-derivative diagonals f_u .. f^(top) at the current state."""
    nl, u, lam = state.problem.nl, state.u, state.lam
    return [nl.derivative(k, u, lam) for k in range(1, top + 1)]


def _lambda_stacks(state: AugmentedState, top: int):
    """lam-gradients of f, f_u, .. f^(top-1); each of shape (n, 3)."""
    nl, u, lam = state.problem.nl, state.u, state.lam
    return [nl.lambda_derivative(k, u, lam) for k in range(top)]


def _slice_lambda(block: np.ndarray, active) -> np.ndarray:
    return np.atleast_2d(block)[:, list(active)]


def _dense(block) -> sp.csr_matrix:
    # bmat rejects rows made of bare ndarrays with mixed widths
    return sp.csr_matrix(np.atleast_2d(block))


def solution_residual_jacobian(state: AugmentedState):
    """Plain solution branch: G(u, lam) with u and the active lam free."""
    prob = state.problem
    f0, f1 = (prob.nl.derivative(k, state.u, state.lam) for k in (0, 1))
    gu = (prob.lap + sp.diags(f1)).tocsr()
    res = prob.lap @ state.u + f0
    dlam_f = prob.nl.lambda_derivative(0, state.u, state.lam)
    jac = sp.bmat([[gu, _dense(_slice_lambda(dlam_f, state.active))]], format="csr")
    return res, jac


def residual_jacobian(state: AugmentedState):
    """Dispatch to the assembly routine matching state.level."""
    return {
        0: solution_residual_jacobian,
        1: f1_residual_jacobian,
        2: f2_residual_jacobian,
        3: f3_residual_jacobian,
    }[state.level](state)


def f1_residual_jacobian(state: AugmentedState):
    """Fold system: [G; G_u a; dx dy a.a - 1] and its Jacobian."""
    prob, grid = state.problem, state.problem.grid
    a, u = state.alpha, state.u
    area = grid.cell_area
    f0, f1, f2 = (state.problem.nl.derivative(k, u, state.lam) for k in (0, 1, 2))
    gu = (prob.lap + sp.diags(f1)).tocsr()
    res = np.concatenate([prob.lap @ u + f0, gu @ a, [area * (a @ a) - 1.0]])

    dlam_f, dlam_fu = _lambda_stacks(state, 2)
    jac = sp.bmat(
        [
            [gu, None, _dense(_slice_lambda(dlam_f, state.active))],
            [sp.diags(f2 * a), gu,
             _dense(_slice_lambda(a[:, None] * dlam_fu, state.active))],
            [None, _dense(2.0 * area * a), sp.csr_matrix((1, len(state.active)))],
        ],
        format="csr",
    )
    return res, jac


def cusp_monitor(state: AugmentedState) -> float:
    f2 = state.problem.nl.derivative(2, state.u, state.lam)
    return float(f2 @ state.alpha**3)


def _cusp_jacobian_rows(state: AugmentedState):
    """u-, alpha- and lam-blocks of the cusp row."""
    a = state.alpha
    f2, f3 = (state.problem.nl.derivative(k, state.u, state.lam) for k in (2, 3))
    dlam_f2 = state.problem.nl.lambda_derivative(2, state.u, state.lam)
    return f3 * a**3, 3.0 * f2 * a**2, a**3 @ dlam_f2


def f2_residual_jacobian(state: AugmentedState):
    """Cusp system: fold rows plus the cusp test value."""
    res1, jac1 = f1_residual_jacobian(state)
    res = np.append(res1, cusp_monitor(state))
    du, da, dlam = _cusp_jacobian_rows(state)
    row = sp.bmat(
        [[_dense(du), _dense(da), _dense(_slice_lambda(dlam, state.active))]],
        format="csr",
    )
    return res, sp.vstack([jac1, row], format="csr")


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
        raise SingularAuxiliaryError("regularized system is numerically singular")
    return x


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
    wbar = rank_one_solve((gu @ gu).tocsc(), a, -(3.0 * f2 * a * v + f3 * a**3))
    w = gu @ wbar
    return float(f4 @ a**5 - 15.0 * (f2 * a) @ (v * v) + 10.0 * (f2 * a**2) @ w)


def f3_residual_jacobian(state: AugmentedState):
    """Swallowtail system and its full analytic Jacobian.

    Unknown layout [u, alpha, vbar, lam_active]; rows are the fold and
    cusp equations followed by the vbar equation and the swallowtail
    value written in vbar form (3 vbar . G_u^3 vbar).  The Jacobian is a
    RankOneUpdate whose outer product holds the a vbar^T and a a^T terms
    of the vbar equation; everything else is in the sparse core.
    """
    if state.level != 3:
        raise ValueError("f3 needs a level-3 state")
    prob, grid = state.problem, state.problem.grid
    n = grid.size
    a, u, vbar = state.alpha, state.u, state.vbar
    area = grid.cell_area
    f0, f1, f2, f3, f4 = (prob.nl.derivative(k, u, state.lam) for k in range(5))
    dlam_f, dlam_fu, dlam_fuu, dlam_fuuu = _lambda_stacks(state, 4)
    gu = (prob.lap + sp.diags(f1)).tocsr()
    v = gu @ vbar          # kernel-orthogonal correction
    q = gu @ v             # G_u^2 vbar

    res = np.concatenate(
        [
            prob.lap @ u + f0,
            gu @ a,
            [area * (a @ a) - 1.0],
            [f2 @ a**3],
            q + a * (a @ vbar) + f2 * a**2,
            [f3 @ a**4 + 6.0 * (f2 * a**2) @ v + 3.0 * vbar @ (gu @ q)],
        ]
    )

    cusp_du, cusp_da, cusp_dlam = _cusp_jacobian_rows(state)

    # vbar-equation blocks
    row5_du = (
        gu @ sp.diags(f2 * vbar)
        + sp.diags(f2 * v + f3 * a**2)
    )
    row5_da = sp.diags((a @ vbar) + 2.0 * f2 * a)   # plus a vbar^T
    row5_dv = gu @ gu                                # plus a a^T
    row5_dlam = (
        v[:, None] * dlam_fu
        + gu @ (vbar[:, None] * dlam_fu)
        + (a**2)[:, None] * dlam_fuu
    )

    # swallowtail-value blocks; the cubic vbar term differentiates into
    # the weight 2 vbar . G_u^2 vbar + (G_u vbar)^2 against d(f_u)
    weight = 2.0 * vbar * q + v * v
    row6_du = (
        f4 * a**4
        + 6.0 * f3 * a**2 * v
        + 6.0 * f2**2 * a**2 * vbar
        + 3.0 * f2 * weight
    )
    row6_da = 4.0 * f3 * a**3 + 12.0 * f2 * a * v
    row6_dv = 6.0 * (f2 * a**2) @ gu + 6.0 * (gu @ q)
    row6_dlam = (
        a**4 @ dlam_fuuu
        + 6.0 * (a**2 * v) @ dlam_fuu
        + 6.0 * (f2 * a**2 * vbar) @ dlam_fu
        + 3.0 * weight @ dlam_fu
    )

    act = state.active
    core = sp.bmat(
        [
            [gu, None, None, _dense(_slice_lambda(dlam_f, act))],
            [sp.diags(f2 * a), gu, None,
             _dense(_slice_lambda(a[:, None] * dlam_fu, act))],
            [None, _dense(2.0 * area * a), None, sp.csr_matrix((1, len(act)))],
            [_dense(cusp_du), _dense(cusp_da), None,
             _dense(_slice_lambda(cusp_dlam, act))],
            [row5_du, row5_da, row5_dv,
             _dense(_slice_lambda(row5_dlam, act))],
            [_dense(row6_du), _dense(row6_da), _dense(row6_dv),
             _dense(_slice_lambda(row6_dlam, act))],
        ],
        format="csr",
    )
    left = np.zeros(state.residual_size)
    left[2 * n + 2 : 3 * n + 2] = a
    right = np.zeros(state.dimension)
    right[n : 2 * n] = vbar
    right[2 * n : 3 * n] = a
    return res, RankOneUpdate(core, left, right)


def evaluate_monitors(state: AugmentedState, with_butterfly: bool = False,
                      fold_direction: float = 0.0) -> MonitorRecord:
    """Cusp/swallowtail (and optionally butterfly) values at a state."""
    _, v = solve_v(state)
    butterfly = butterfly_monitor(state, v) if with_butterfly else None
    return MonitorRecord(
        fold_direction=fold_direction,
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
