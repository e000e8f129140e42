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

The level-3 Jacobian is returned as a SwallowtailJacobian: its blocks,
never one global matrix.  In (u, alpha, vbar) it is block lower
triangular with diagonal blocks G_u, G_u and G_u^2 + a a^T, bordered
by three single rows (normalization, cusp, value) and the lam
columns; the vbar rows carry the rank-one terms a vbar^T (alpha
columns) and a a^T (vbar columns).  A Newton step factors one
(n+1) x (n+1) matrix, G_u bordered by the scaled kernel vector
k = a / sqrt(|a|).  It solves with B = G_u + k k^T, which is regular
at a simple fold, and B^2 differs from G_u^2 + a a^T by rank two.  The
step substitutes forward through the block triangle with diagonal
blocks B, B and B^2 and folds the rest (the differences from G_u and
G_u^2 + a a^T, the lam columns and the single rows) into a 10 x 10
Woodbury capacitance, with one step of iterative refinement.  This is
the bordering / mixed block elimination of Govaerts, Numerical Methods
for Bifurcations of Dynamical Equilibria (SIAM 2000), ch. 3.
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
#: A level-3 block solve treats its Jacobian as singular when the
#: capacitance, rows and then columns scaled to unit max-norm, has a
#: larger condition number.  It was 75-91 on every Newton iterate of the
#: robust 10x10 and 15x15 hunts and the 10-30 ladder, and 9.8e12 or
#: more for random Jacobians made exactly singular by a zero or repeated
#: row or column.
CAPACITANCE_COND_MAX = 1e12


class SingularAuxiliaryError(RuntimeError):
    """A regularized system G + a a^T (kernel dimension > 1), or the
    level-3 Jacobian it helps to solve, is singular."""


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


def _regularized_lu(mat, a: np.ndarray):
    """SuperLU of the bordered matrix [[mat, a], [a^T, -1]].

    With right-hand side [b; 0] its solution [x; a.x] has
    (mat + a a^T) x = b, and it is singular exactly when mat + a a^T is.
    """
    bordered = sp.bmat([[mat, a[:, None]], [a[None, :], [[-1.0]]]],
                       format="csc")
    try:
        return splu(bordered)
    except RuntimeError as exc:
        raise SingularAuxiliaryError("regularized system is singular") from exc


def _lu_solve(lu, rhs: np.ndarray) -> np.ndarray:
    """(mat + a a^T)^-1 rhs, column by column, from `_regularized_lu`."""
    return lu.solve(np.vstack([rhs, np.zeros((1, rhs.shape[1]))]))[:-1]


def rank_one_solve(a_sparse, alpha: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (A + alpha alpha^T) x = b without densifying the rank-one part."""
    x = _regularized_lu(a_sparse, alpha).solve(np.append(b, 0.0))[:-1]
    if not np.all(np.isfinite(x)):
        raise SingularAuxiliaryError(
            "regularized system is numerically singular")
    return x


def _scaled_cond(mat: np.ndarray) -> float:
    """Condition number of mat with rows, then columns, scaled to unit
    max-norm; inf when a row or column is zero or an entry not finite."""
    for axis in (1, 0):
        scale = np.max(np.abs(mat), axis=axis, keepdims=True)
        if not np.all((scale > 0) & np.isfinite(scale)):
            return np.inf
        mat = mat / scale
    return float(np.linalg.cond(mat))


@dataclass(frozen=True)
class SwallowtailJacobian:
    """The level-3 Jacobian, kept as its blocks and solved by blocks.

    In the columns (u, alpha, vbar, lam) the block rows G, G_u a and
    the vbar equation read

        [[G_u,      0,                   0,              cols[:n]],
         [diag(d),  G_u,                 0,              cols[n:2n]],
         [p,        diag(e) + a vbar^T,  G_u^2 + a a^T,  cols[2n:]]]

    and `rows` holds the normalization, cusp and value rows in full.
    G_u^2 is applied as G_u twice, never formed.  The residual
    interleaves the rows: G, G_u a, normalization, cusp, vbar equation,
    value.
    """

    gu: sp.csr_matrix
    d: np.ndarray
    p: sp.csr_matrix
    e: np.ndarray
    a: np.ndarray
    vbar: np.ndarray
    cols: np.ndarray
    rows: np.ndarray

    @property
    def shape(self) -> tuple:
        return 3 * self.a.size + 3, self.rows.shape[1]

    @property
    def nnz(self) -> int:
        """Stored entries: the sparse blocks' plus the dense nonzeros."""
        return int(self.gu.nnz + self.p.nnz + sum(
            np.count_nonzero(x) for x in (self.d, self.e, self.a, self.vbar,
                                          self.cols, self.rows)))

    def _order(self) -> tuple:
        """Residual positions of the block rows and of the single rows."""
        n = self.a.size
        single = np.array([2 * n, 2 * n + 1, 3 * n + 2])
        return np.delete(np.arange(3 * n + 3), single), single

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.a.size
        xu, xa, xv = x[:n], x[n : 2 * n], x[2 * n : 3 * n]
        lam = self.cols @ x[3 * n :]
        single = self.rows @ x
        aux = (self.p @ xu + self.e * xa + self.a * (self.vbar @ xa)
               + self.gu @ (self.gu @ xv) + self.a * (self.a @ xv)
               + lam[2 * n :])
        return np.concatenate([self.gu @ xu + lam[:n],
                               self.d * xu + self.gu @ xa + lam[n : 2 * n],
                               single[:2], aux, single[2:]])

    def toarray(self) -> np.ndarray:
        n = self.a.size
        gu, zero = self.gu.toarray(), np.zeros((n, n))
        body = np.block([
            [gu, zero, zero],
            [np.diag(self.d), gu, zero],
            [self.p.toarray(), np.diag(self.e) + np.outer(self.a, self.vbar),
             gu @ gu + np.outer(self.a, self.a)]])
        block, single = self._order()
        out = np.empty(self.shape)
        out[block] = np.hstack([body, self.cols])
        out[single] = self.rows
        return out

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """x with self @ x = rhs, by block elimination.

        One bordered factorization solves with B = G_u + k k^T, where
        k = a / sqrt(|a|); B is regular at a simple fold, and B^2 =
        G_u^2 + a a^T + g k^T + k g^T with g = G_u k.  So the block
        triangle L with diagonal blocks B, B and B^2 solves by forward
        substitution.  The matrix is [[L, 0], [0, I]] plus a rank-10
        term: -k k^T in the two G_u blocks, -(g k^T + k g^T) in the
        G_u^2 block, the three lam columns and the three single rows.
        Woodbury folds that term into a 10 x 10 capacitance, and one
        step of iterative refinement against the full product follows.
        A singular factorization or capacitance, or a non-finite
        result, raises SingularAuxiliaryError.
        """
        n, a = self.a.size, self.a
        if self.shape[0] != self.shape[1]:
            raise ValueError("the block solve needs a square Jacobian")
        k = a / np.sqrt(np.linalg.norm(a) or 1.0)
        g = self.gu @ k
        lu = _regularized_lu(self.gu, k)

        def forward(f):
            x1 = _lu_solve(lu, f[:n])
            x2 = _lu_solve(lu, f[n : 2 * n] - self.d[:, None] * x1)
            x3 = _lu_solve(lu, _lu_solve(
                lu, f[2 * n :] - self.p @ x1 - self.e[:, None] * x2
                - np.outer(a, self.vbar @ x2)))
            return np.vstack([x1, x2, x3])

        def project(w):
            # the rank-10 term's right factor applied to columns w
            return np.vstack([k @ w[:n], k @ w[n : 2 * n],
                              k @ w[2 * n : 3 * n], g @ w[2 * n : 3 * n],
                              w[3 * n :], self.rows[:, : 3 * n] @ w[: 3 * n]])

        # its left factor, through [[L, 0], [0, I]]^-1
        left = np.zeros((3 * n, 7))
        left[:n, 0] = left[n : 2 * n, 1] = left[2 * n :, 3] = -k
        left[2 * n :, 2] = -g
        left[:, 4:] = self.cols
        z = np.zeros((3 * n + 3, 10))
        z[: 3 * n, :7] = forward(left)
        z[3 * n :, 4:7] = self.rows[:, 3 * n :] - np.eye(3)
        z[3 * n :, 7:] = np.eye(3)
        cap = np.eye(10) + project(z)
        cond = _scaled_cond(cap)
        if not cond < CAPACITANCE_COND_MAX:
            raise SingularAuxiliaryError(
                f"level-3 Jacobian is singular: scaled capacitance "
                f"condition {cond:.3g}")
        block, single = self._order()

        def once(b):
            y = np.vstack([forward(b[block, None]), b[single, None]])
            return (y - z @ np.linalg.solve(cap, project(y)))[:, 0]

        x = once(rhs)
        x = x + once(rhs - self @ x)
        if not np.all(np.isfinite(x)):
            raise SingularAuxiliaryError("non-finite level-3 block solve")
        return x


def _swallowtail_system(gu, f, dlam, a, vbar, head, act):
    """Residuals of the vbar equation and the swallowtail value, and the
    level-3 SwallowtailJacobian.

    head holds the normalization and cusp rows over (u, alpha, lam) from
    the levels below.  The cubic vbar term differentiates into the
    weight 2 vbar . G_u^2 vbar + (G_u vbar)^2 against d(f_u).
    """
    f2, f3, f4 = f[2:]
    dlam_fu, dlam_fuu, dlam_fuuu = dlam[1:]
    v = gu @ vbar          # kernel-orthogonal correction
    q = gu @ v             # G_u^2 vbar
    res = [q + a * (a @ vbar) + f2 * a**2,
           [f3 @ a**4 + 6.0 * (f2 * a**2) @ v + 3.0 * vbar @ (gu @ q)]]
    weight = 2.0 * vbar * q + v * v
    value = (
        f4 * a**4 + 6.0 * f3 * a**2 * v + 6.0 * f2**2 * a**2 * vbar
        + 3.0 * f2 * weight,
        4.0 * f3 * a**3 + 12.0 * f2 * a * v,
        6.0 * (f2 * a**2) @ gu + 6.0 * (gu @ q),
        a**4 @ dlam_fuuu + 6.0 * (a**2 * v) @ dlam_fuu
        + 6.0 * (f2 * a**2 * vbar) @ dlam_fu + 3.0 * weight @ dlam_fu,
    )
    zero = np.zeros_like(a)
    rows = [np.concatenate([zero if x is None else x for x in row[:2]]
                           + [zero] + [row[2][act]])
            for row in head]
    rows.append(np.concatenate(value[:3] + (value[3][act],)))
    cols = np.vstack([
        dlam[0], a[:, None] * dlam[1],
        v[:, None] * dlam_fu + gu @ (vbar[:, None] * dlam_fu)
        + (a**2)[:, None] * dlam_fuu])
    jac = SwallowtailJacobian(
        gu=gu, d=f2 * a,
        p=gu @ sp.diags(f2 * vbar) + sp.diags(f2 * v + f3 * a**2),
        e=(a @ vbar) + 2.0 * f2 * a, a=a, vbar=vbar,
        cols=cols[:, act], rows=np.array(rows))
    return res, jac


def _assemble(state: AugmentedState, level: int):
    """Residual and analytic Jacobian of the level-`level` system.

    Each level appends its rows to the rows of the level below, and
    every t-derivative and lam-gradient is evaluated once.  A block row
    is [u, alpha, lam] with the lam-gradient over all three parameters;
    columns the level does not have are dropped and the gradient is
    sliced to the active parameters at the end.  Level 3 returns its
    blocks as a SwallowtailJacobian instead of one sparse matrix.
    """
    if level > state.level:
        raise ValueError(f"level-{level} assembly needs a level-{level} "
                         "state")
    prob, u, lam = state.problem, state.u, state.lam
    f = [prob.nl.derivative(k, u, lam) for k in range(level + 2)]
    dlam = [prob.nl.lambda_derivative(k, u, lam) for k in range(level + 1)]
    gu = (prob.lap + sp.diags(f[1])).tocsr()
    act = list(state.active)
    res = [prob.lap @ u + f[0]]
    head = []
    if level >= 1:
        a, area = state.alpha, prob.grid.cell_area
        res += [gu @ a, [area * (a @ a) - 1.0]]
        head.append((None, 2.0 * area * a, np.zeros(3)))
    if level >= 2:
        res.append([f[2] @ a**3])
        head.append((f[3] * a**3, 3.0 * f[2] * a**2, a**3 @ dlam[2]))
    if level == 3:
        more_res, jac = _swallowtail_system(gu, f, dlam, a, state.vbar,
                                            head, act)
        return np.concatenate(res + more_res), jac
    rows = [[gu, None, dlam[0]]]
    if level >= 1:
        rows.append([sp.diags(f[2] * a), gu, a[:, None] * dlam[1]])
    rows += [[x if x is None else _dense(x) for x in row[:2]] + [row[2]]
             for row in head]
    width = 1 if level == 0 else 2
    jac = sp.bmat([row[:width] + [_dense(np.atleast_2d(row[2])[:, act])]
                   for row in rows], format="csr")
    return np.concatenate(res), jac


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
    swallowtail value; the Jacobian is a SwallowtailJacobian."""
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
