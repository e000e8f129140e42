"""Augmented systems locating folds, cusps and swallowtails directly.

The level-k system is the level-(k-1) system plus its own test
equations, nested per kind: grid rows (n equations each) and single
rows (one equation each),

    level 0 (solution):    grid   G(u, lam)
    level 1 (fold):        grid   + G_u a
                           single dx dy a.a - 1
    level 2 (cusp):        single + f_uu . a^3
    level 3 (swallowtail): grid   + the vbar equation
                                    (G_u^2 + a a^T) vbar + f_uu . a^2
                           single + the swallowtail value
                                    f_uuu . a^4 + 6 (f_uu a^2) . G_u vbar
                                    + 3 vbar . G_u^3 vbar

(. is the componentwise product, vector powers componentwise).  The
residual lists every grid row before every single row, the row order of
the Jacobian's blocks; each kind stacks level by level.  The unknowns
are u, then alpha (level >= 1), then vbar (level 3), then the active
parameters.  One routine, `_assemble(state, level)`, builds the
residual and the analytic Jacobian of every level: one call each
evaluates the jet f[k] = f^(k), k = 0..level+1, of derivative diagonals
and its lam-gradients up to order level.  `solution_residual_jacobian` and
`f1_`/`f2_`/`f3_residual_jacobian` each assemble one fixed level, so a
level-k name applied to a higher-level state still gives level k.

The normalization is the discrete-L2 dx dy a.a = 1.  Only level 3
carries vbar, with v = G_u vbar.  The monitors are the classifier's
test values r^3 (cusp), r^4 (swallowtail) and r^5 (butterfly), run on
a state's Linearization, the grid's sparse derivative oracle.  Their
jet vectors v = F'' and w = F''' solve the classifier's Bell
right-hand sides kernel-orthogonally, one bordered solve each:
G_u v + mu a = -f_uu . a^2 with a.v = 0.  The cusp row is the same
contraction as the cusp monitor.

Levels 1-3 return their Jacobian as a BlockJacobian, never one global
matrix.  Its BlockFactor factors one (n+1) x (n+1) matrix, G_u bordered
by the scaled kernel vector, and folds the rest into a small Woodbury
capacitance: the bordering / mixed block elimination of Govaerts,
Numerical Methods for Bifurcations of Dynamical Equilibria (SIAM 2000),
ch. 3, and Govaerts & Pryce (IMA J. Numer. Anal. 1993).  Its forward
substitution skips the capacitance columns that are zero in the block
rows and reuses B^-1 k, which the BorderedGu solves once for its
kernel-orthogonal solves too.  Level 0 returns a SolutionJacobian, G_u
and its lam column kept apart.

Every grid matrix that this module or continuation factors is one G_u
bordered by one column and one row: [[G_u, k], [k^T, -1]] here
(`BorderedGu`), [G_u, dG/dlam; t^T] at level 0 in continuation, which
also reads the sign of det G_u from that factor.  `Problem.gu` keeps
G_u on the Laplacian's CSR pattern, and the level-3 block
G_u diag(f_uu vbar) + diag(f_uu v + f_uuu a^2) on the same pattern
(`Problem.on_pattern`): no grid matrix comes from sparse products or
sums.  So `Problem.bordered_order` gathers each factor's input
straight from [G_u data | column | row] into one order of the grid's
points, the border last; no bordered matrix is built per factor.  That
order is SuperLU's multiple minimum degree on the Laplacian's pattern,
computed once per Problem by one ordering pass; every factor then
keeps it (permc_spec "NATURAL").  An assembly's Linearization (its
jet, G_u and BorderedGu) rides on its BlockJacobian: every factor of
that Jacobian shares the one BorderedGu, and on a line the monitors at
an accepted point solve with the BorderedGu that the tangent factored
there and read the assembly's jet.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .classifier import jet_rhs, test_value
from .poisson import Grid, Nonlinearity, build_laplacian

#: diag_pivot_thresh of the level-0 and BorderedGu factors: at a fold
#: t_lam and G_u are singular, so a small diagonal pivot is swapped.
PIVOT_THRESH = 0.1
#: SuperLU's supernode relaxation and panel size in every factor.  Its
#: defaults suit the wide fronts of 3-D problems; the separators of a
#: 2-D grid are small.  The fill does not depend on them: the level-0
#: bordered matrix in the minimum-degree order has 21,998 L+U entries
#: at N = 30.  (1, 1) factored it in 291 us against 668 us at SuperLU's
#: default, 4.1 ms against 8.5 ms at N = 90, and one solve took 21 us
#: against 28 us at N = 30; (2, 2), (1, 4), (2, 4) and (4, 8) were
#: slower at both sizes.
SPLU_RELAX = 1
SPLU_PANEL = 1
#: A strict block solve treats its Jacobian as singular when the
#: capacitance, rows and then columns scaled by the magnitudes it was
#: summed from, has a larger condition number.  On every level-1/2
#: Newton iterate and tangent of the robust 10x10 and 15x15 hunts it was
#: 8.3-245, on their level-3 iterates 66-101 and on the 10-30 ladder
#: 67-177.  Jacobians made exactly singular gave 8.5e14 or more: at
#: levels 1-2 by a repeated G row or a zeroed lam column, at level 3
#: (8.5e16 or more) by a zero row or column.
CAPACITANCE_COND_MAX = 1e12
#: `BorderedGu.orthogonal_solve` treats [[G_u, k], [k^T, 0]] as singular
#: when k.B^-1 k is at most this many rounding units of the magnitudes
#: it is summed from: then it is 0 up to rounding, and mu = k.x / k.B^-1
#: k blows up instead of failing.  On a fold line k.B^-1 k is about 1
#: and so are its magnitudes.
AUX_CANCEL = 16.0


class SingularAuxiliaryError(RuntimeError):
    """G_u + k k^T (kernel dimension > 1), a kernel-orthogonal solve on
    it, or the block Jacobian it helps to solve, is singular."""


@dataclass(frozen=True)
class BorderedOrder:
    """The factor order of A = [[G_u, col], [row^T]] for every G_u on one
    square CSR pattern, col of length n and row of length n + 1.

    `gather` takes the CSC of P A P^T, (P A P^T)[i, j] = A[perm[i],
    perm[j]], straight from the vector [G_u data | col | row], the G_u
    data in the pattern's order: one concatenation and one fancy-index
    gather, no bordered matrix built or permuted.  col and row are
    stored whole, zeros too, so the pattern never moves.
    """

    pattern: tuple  # (indptr, indices) of G_u
    perm: np.ndarray
    source: sp.csc_matrix  # P A P^T's pattern; data index the vector

    @classmethod
    def of(cls, gu: sp.csr_matrix, perm=None) -> "BorderedOrder":
        """The order perm of gu's bordered pattern, the identity if None."""
        n = gu.shape[0]
        perm = np.arange(n + 1) if perm is None else perm
        rank = np.empty_like(perm)
        rank[perm] = np.arange(n + 1)
        rows = np.concatenate([np.repeat(np.arange(n), np.diff(gu.indptr)),
                               np.arange(n), np.full(n + 1, n)])
        cols = np.concatenate([gu.indices, np.full(n, n), np.arange(n + 1)])
        source = sp.csc_matrix(  # counted from 1, so none is dropped
            (np.arange(1, rows.size + 1), (rank[rows], rank[cols])),
            shape=(n + 1, n + 1))
        source.data -= 1
        return cls((gu.indptr, gu.indices), perm, source)

    def gather(self, gu: sp.csr_matrix, col: np.ndarray,
               row: np.ndarray) -> sp.csc_matrix:
        if not all(map(np.array_equal, self.pattern, (gu.indptr, gu.indices))):
            raise ValueError("G_u does not have the ordering's pattern")
        at = self.source
        data = np.concatenate([gu.data, col, row])[at.data]
        return sp.csc_matrix((data, at.indices, at.indptr), shape=at.shape)


def _permutation_parity(perm: np.ndarray) -> int:
    """Sign of a permutation, from the cycles of the entries it moves:
    each cycle of length l is l - 1 transpositions."""
    perm = np.asarray(perm)
    moved = np.flatnonzero(perm != np.arange(perm.size))
    seen, cycles = np.zeros(perm.size, dtype=bool), 0
    for j in moved:
        cycles += not seen[j]
        while not seen[j]:
            seen[j], j = True, perm[j]
    return -1 if (moved.size - cycles) % 2 else 1


@dataclass(frozen=True)
class PermutedLU:
    """SuperLU of P A P^T; solves with A, or A^T for trans "T", 1-D or 2-D.
    It refines nothing, so `solve_once` is `solve`."""

    lu: SuperLU
    perm: np.ndarray

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        x = np.empty(np.shape(rhs))
        x[self.perm] = self.lu.solve(np.asarray(rhs)[self.perm], trans=trans)
        return x

    solve_once = solve

    def det_sign(self) -> int:
        """Sign of det A.  P A P^T has A's determinant; SuperLU's row and
        column permutations factor it into L U, L with a unit diagonal."""
        negative = np.count_nonzero(self.lu.U.diagonal() < 0)
        return ((-1) ** negative * _permutation_parity(self.lu.perm_r)
                * _permutation_parity(self.lu.perm_c))


@dataclass(frozen=True)
class Problem:
    """Grid, nonlinearity and the assembled Laplacian, shared by states."""

    grid: Grid
    nl: Nonlinearity

    @cached_property
    def lap(self) -> sp.csr_matrix:
        return build_laplacian(self.grid)

    @property
    def weight(self) -> float:
        """Quadrature weight of each unknown: the grid's cell area."""
        return self.grid.cell_area

    def inner(self, x: np.ndarray, y: np.ndarray) -> float:
        """The discrete L2 pairing weight * (x . y)."""
        return self.weight * (x @ y)

    def normalize(self, a: np.ndarray) -> np.ndarray:
        """a scaled to unit discrete L2 norm."""
        return a / np.sqrt(self.inner(a, a))

    @cached_property
    def _diagonal(self) -> np.ndarray:
        """Positions of the Laplacian's diagonal in its CSR data."""
        lap = self.lap
        rows = np.repeat(np.arange(lap.shape[0]), np.diff(lap.indptr))
        found = np.flatnonzero(lap.indices == rows)
        if found.size != lap.shape[0]:
            raise ValueError("the Laplacian must store its whole diagonal")
        return found

    @cached_property
    def bordered_order(self) -> BorderedOrder:
        """Order of G_u bordered by one row and column, built on first
        use: SuperLU's multiple minimum degree on the pattern of L + L^T,
        which is G_u's, with the border last (George & Liu, SIAM Review
        31, 1989).  The order depends on the pattern alone, so one
        ordering pass, a factor of L, serves every G_u of the Problem.
        In SymmetricMode, as every factor runs, SuperLU keeps that
        order as it is, without postordering it."""
        lu = splu(self.lap.tocsc(), permc_spec="MMD_AT_PLUS_A",
                  relax=SPLU_RELAX, panel_size=SPLU_PANEL,
                  options={"SymmetricMode": True})
        return BorderedOrder.of(
            self.lap, np.append(np.argsort(lu.perm_c), self.grid.size))

    @cached_property
    def _off_diagonal_sums(self) -> tuple:
        """Row and column sums of |L| off its diagonal."""
        data = np.abs(self.lap.data)
        data[self._diagonal] = 0.0
        mag = sp.csr_matrix((data, self.lap.indices, self.lap.indptr),
                            shape=self.lap.shape)
        return (np.asarray(mag.sum(axis=1)).ravel(),
                np.asarray(mag.sum(axis=0)).ravel())

    def gu(self, fu: np.ndarray) -> sp.csr_matrix:
        """G_u = L + diag(f_u), on the Laplacian's sparsity pattern."""
        return self.on_pattern(self.lap.data.copy(), fu)

    def on_pattern(self, data: np.ndarray,
                   diagonal: np.ndarray) -> sp.csr_matrix:
        """The matrix with `data` on the Laplacian's CSR pattern and
        `diagonal` added to its diagonal entries, in place in data."""
        data[self._diagonal] += diagonal
        return sp.csr_matrix((data, self.lap.indices, self.lap.indptr),
                             shape=self.lap.shape)


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


#: The classifier's order n of each grid monitor r^n.
MONITOR_ORDERS = {"cusp": 3, "swallowtail": 4, "butterfly": 5}


@dataclass
class MonitorRecord:
    """Scalar diagnostics carried along a continuation branch."""

    fold_direction: float = 0.0
    cusp: float = 0.0
    swallowtail: float = 0.0
    butterfly: float | None = None


def _scaled_cond(mat: np.ndarray, ref: np.ndarray) -> float:
    """Condition number of mat with rows, then columns, scaled to unit
    max-norm of ref, the entrywise magnitudes that mat was summed from.

    Scaling by ref rather than by mat keeps a row or column that
    cancelled to rounding noise small, so it reads as singular.  inf
    when ref has a zero row or column or an entry is not finite.
    """
    for axis in (1, 0):
        scale = np.max(ref, axis=axis, keepdims=True)
        if not np.all((scale > 0) & np.isfinite(scale)):
            return np.inf
        mat, ref = mat / scale, ref / scale
    return float(np.linalg.cond(mat))


class BorderedGu:
    """SuperLU of G_u bordered by the scaled kernel vector k = a / sqrt(|a|).

    With right-hand side [b; 0] the bordered matrix [[G_u, k], [k^T, -1]]
    has the solution [x; k.x] with B x = b, B = G_u + k k^T, and it is
    singular exactly when B is.  B is regular at a simple fold, where a
    spans the kernel of G_u.  g = G_u k serves the level-3 block solve,
    and `bk` = B^-1 k, solved once, serves `orthogonal_solve` and every
    BlockFactor that shares this factor.  order is a Problem's
    bordered_order, which gathers the bordered matrix from gu and k;
    None for a plain gu factors in gu's own order."""

    def __init__(self, gu, a: np.ndarray,
                 order: BorderedOrder | None = None):
        if order is None:
            gu = sp.coo_matrix(gu).tocsr()  # sums duplicates, for the gather
            order = BorderedOrder.of(gu)
        self.k = k = a / np.sqrt(np.linalg.norm(a) or 1.0)
        self.g = gu @ k
        try:
            self.lu = PermutedLU(splu(
                order.gather(gu, k, np.append(k, -1.0)),
                permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESH,
                relax=SPLU_RELAX, panel_size=SPLU_PANEL,
                options={"SymmetricMode": True}), order.perm)
        except RuntimeError as exc:
            raise SingularAuxiliaryError(
                "regularized system is singular") from exc

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """B^-1 rhs, or B^-T rhs with trans "T", column by column."""
        pad = np.zeros((1, rhs.shape[1]))
        return self.lu.solve(np.vstack([rhs, pad]), trans=trans)[:-1]

    @cached_property
    def bk(self) -> np.ndarray:
        """B^-1 k, solved on first use."""
        return self.solve(self.k[:, None])[:, 0]

    def orthogonal_solve(self, rhs: np.ndarray) -> np.ndarray:
        """v with G_u v + mu k = rhs and k.v = 0, for any G_u.

        x = B^-1 [rhs, k], its second column the factor's `bk`; mu =
        k.x_rhs / k.x_k makes v = x_rhs - mu x_k orthogonal to k, and then
        B v = rhs - mu k reads G_u v + mu k = rhs.  A k.x_k that cancels
        to rounding (AUX_CANCEL), and a non-finite v, raise
        SingularAuxiliaryError.  The products read x's strided columns:
        BLAS rounds a strided dot product unlike a contiguous one.
        """
        x = np.column_stack([self.solve(rhs[:, None])[:, 0], self.bk])
        k_x = self.k @ x[:, 1]
        eps = np.finfo(float).eps
        if not abs(k_x) > AUX_CANCEL * eps * (np.abs(self.k)
                                              @ np.abs(x[:, 1])):
            raise SingularAuxiliaryError(
                f"bordered system is numerically singular: k.B^-1 k = "
                f"{k_x:.3e} cancels to rounding")
        with np.errstate(over="ignore", invalid="ignore"):
            v = x[:, 0] - (self.k @ x[:, 0]) / k_x * x[:, 1]
        if not np.all(np.isfinite(v)):
            raise SingularAuxiliaryError(
                "bordered system is numerically singular")
        return v


def _gu_sums(gu, problem: Problem | None) -> tuple:
    """Row and column sums of |G_u|.  For a Problem's G_u they are its
    Laplacian's sums off the diagonal, cached, plus |diag G_u|, and no
    sparse matrix is built; with problem None they come from |gu|."""
    if problem is None:
        mag = abs(sp.csr_matrix(gu))
        return (np.asarray(mag.sum(axis=1)).ravel(),
                np.asarray(mag.sum(axis=0)).ravel())
    diag = np.abs(gu.data[problem._diagonal])
    rows, cols = problem._off_diagonal_sums
    return rows + diag, cols + diag


@dataclass(frozen=True)
class SolutionJacobian:
    """The level-0 Jacobian [G_u, dG/dlam], kept as G_u on its Problem's
    pattern and the lam columns, never one sparse matrix.

    `bordered` appends single rows below.  With one lam column and one
    row `permuted` gathers it for SuperLU in the Problem's bordered_order,
    or, for a plain matrix of no grid (problem None), the identity order.
    """

    gu: sp.csr_matrix
    cols: np.ndarray
    problem: Problem | None
    rows: tuple = ()

    @property
    def shape(self) -> tuple:
        n = self.gu.shape[0]
        return n + len(self.rows), n + self.cols.shape[1]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n = self.gu.shape[0]
        return np.concatenate([self.gu @ x[:n] + self.cols @ x[n:],
                               [row @ x for row in self.rows]])

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """The transposed product J^T y."""
        n = self.gu.shape[0]
        out = np.concatenate([self.gu.T @ y[:n], self.cols.T @ y[:n]])
        for row, weight in zip(self.rows, y[n:]):
            out += weight * row
        return out

    def norms(self) -> tuple:
        """(||J||_1, ||J||_inf) exactly, from the pieces."""
        gu_rows, gu_cols = _gu_sums(self.gu, self.problem)
        cols = np.abs(self.cols)
        rows = np.abs(np.reshape(self.rows, (-1, self.shape[1])))
        row_sums = np.concatenate([gu_rows + cols.sum(axis=1),
                                   rows.sum(axis=1)])
        col_sums = rows.sum(axis=0) + np.concatenate([gu_cols,
                                                      cols.sum(axis=0)])
        return float(col_sums.max()), float(row_sums.max())

    def bordered(self, row: np.ndarray) -> "SolutionJacobian":
        """[J; row^T]: the same pieces with one more single row."""
        return replace(self, rows=self.rows + (row,))

    def permuted(self) -> tuple:
        """(P A P^T in CSC, perm) of the square A = [G_u, c; r^T]."""
        if self.shape != (self.gu.shape[0] + 1,) * 2:
            raise ValueError("the level-0 factor needs one lam column "
                             "and one row")
        order = (BorderedOrder.of(self.gu) if self.problem is None
                 else self.problem.bordered_order)
        return (order.gather(self.gu, self.cols[:, 0], self.rows[0]),
                order.perm)


@dataclass(frozen=True)
class BlockJacobian:
    """The Jacobian of a level-1, 2 or 3 system, kept as its blocks.

    In the columns (u, alpha, [vbar,] lam) the block rows G and G_u a
    read

        [[G_u,      0,    cols[:n]],
         [diag(d),  G_u,  cols[n:2n]]]

    and level 3 adds the vbar equation

         [p,  diag(e) + a vbar^T,  G_u^2 + a a^T,  cols[2n:]]

    (p, e and vbar are None below level 3).  p = G_u diag(f_uu vbar) +
    diag(f_uu v + f_uuu a^2) stores G_u's pattern, zeros too: at
    vbar = 0 its whole off-diagonal; `nnz` counts its nonzeros only.
    `rows` holds the single rows in full: normalization, cusp (level >=
    2), value (level 3) and, after `bordered`, a continuation row.
    G_u^2 is applied as G_u twice, never formed.  The rows are in the
    residual's order: the `size` block rows, then the single rows.
    lin, on a grid, is the Linearization that gu, d and a came from: its
    Problem's order and sums, its jet for the monitors and its
    BorderedGu, which every factor of the Jacobian shares.
    """

    gu: sp.csr_matrix
    d: np.ndarray
    a: np.ndarray
    cols: np.ndarray
    rows: np.ndarray
    p: sp.csr_matrix | None = None
    e: np.ndarray | None = None
    vbar: np.ndarray | None = None
    lin: Linearization | None = None

    @property
    def blocks(self) -> int:
        """Block rows (and block columns): 2, or 3 with vbar."""
        return 2 if self.vbar is None else 3

    @property
    def shape(self) -> tuple:
        return self.size + self.rows.shape[0], self.rows.shape[1]

    @property
    def nnz(self) -> int:
        """G_u's stored entries plus the nonzeros of the other blocks; p
        stores G_u's pattern, zeros too, and counts its nonzeros."""
        sparse = self.gu.nnz + (0 if self.p is None
                                else np.count_nonzero(self.p.data))
        return int(sparse + sum(
            np.count_nonzero(x) for x in (self.d, self.e, self.a, self.vbar,
                                          self.cols, self.rows)
            if x is not None))

    @property
    def size(self) -> int:
        """Number of block rows, the grid rows before the single rows."""
        return self.blocks * self.a.size

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n, size = self.a.size, self.size
        xu, xa = x[:n], x[n : 2 * n]
        out = [self.gu @ xu, self.d * xu + self.gu @ xa]
        if self.vbar is not None:
            xv = x[2 * n : size]
            out.append(self.p @ xu + self.e * xa + self.a * (self.vbar @ xa)
                       + self.gu @ (self.gu @ xv) + self.a * (self.a @ xv))
        return np.concatenate([np.concatenate(out) + self.cols @ x[size:],
                               self.rows @ x])

    def _below_level_3(self, what: str) -> None:
        # continuation, which needs these, never runs at level 3
        if self.vbar is not None:
            raise ValueError(f"{what} are defined below level 3")

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """The transposed product J^T y; levels 1-2."""
        self._below_level_3("transposed products")
        yb, n, gu_t = y[: self.size], self.a.size, self.gu.T
        out = np.concatenate([gu_t @ yb[:n] + self.d * yb[n:],
                              gu_t @ yb[n:], self.cols.T @ yb])
        return out + self.rows.T @ y[self.size :]

    def norms(self) -> tuple:
        """(||J||_1, ||J||_inf) exactly, from the blocks; levels 1-2."""
        self._below_level_3("block norms")
        n = self.a.size
        gu_rows, gu_cols = _gu_sums(
            self.gu, None if self.lin is None else self.lin.problem)
        cols, rows, d = np.abs(self.cols), np.abs(self.rows), np.abs(self.d)
        row_sums = np.concatenate([gu_rows + cols[:n].sum(axis=1),
                                   d + gu_rows + cols[n:].sum(axis=1),
                                   rows.sum(axis=1)])
        col_sums = rows.sum(axis=0) + np.concatenate(
            [gu_cols + d, gu_cols, cols.sum(axis=0)])
        return float(col_sums.max()), float(row_sums.max())

    def bordered(self, row: np.ndarray) -> "BlockJacobian":
        """[J; row^T]: the same blocks with one more single row."""
        return replace(self, rows=np.vstack([self.rows, row]))

    def factor(self, strict: bool = True) -> "BlockFactor":
        return BlockFactor(self, strict)


class BlockFactor:
    """Factor of a square BlockJacobian J; solves J x = b and J^T x = b.

    One BorderedGu factorization solves with B = G_u + k k^T (its lin's,
    when J has one, factored once for every J bordered from it), so the
    block triangle L with diagonal blocks B, B (and B^2 at level 3)
    solves by forward substitution, and L^T by back substitution.  J,
    its block rows first, is [[L, 0], [0, I]] plus a low-rank term
    U V^T: -k k^T in the two G_u blocks, -(g k^T + k g^T) in the G_u^2
    block, the lam columns and the single rows.  Woodbury folds that
    term into a capacitance of order 2 + 2m (4 + 2m at level 3) for m
    single rows, 8 on the bordered cusp line and 10 at level 3; its
    transpose serves the transposed solve (levels 1-2).  It needs L^-1 U
    in the block rows, and forward substitution solves only the blocks
    of U's columns that are not known: the m columns of the single rows
    are zero there, and -B^-1 k, the BorderedGu's `bk`, is the first
    block of the first column and the second block of the second.  At
    level 3 the blocks B, B and B^2 solve 3, 4 and twice 7 of the 10
    columns, and `bk` one more.  Every solve cuts its vector at J's
    `size`, into the block rows and the single rows.  `solve` takes one
    step of iterative refinement against the full product: two Woodbury
    passes and one product.  `solve_once` is one pass, for the rank
    check's Gram operator, whose verdict needs no refinement.  A
    singular factorization or capacitance raises SingularAuxiliaryError;
    with strict, so does a scaled capacitance condition of
    CAPACITANCE_COND_MAX or more.  Without strict a nearly singular J
    still solves, as inverse iteration does.
    """

    def __init__(self, jac: BlockJacobian, strict: bool = True):
        if jac.shape[0] != jac.shape[1]:
            raise ValueError("the block solve needs a square Jacobian")
        n, m, size = jac.a.size, jac.rows.shape[0], jac.size
        self.jac = jac
        self.lu = (BorderedGu(jac.gu, jac.a) if jac.lin is None
                   else jac.lin.bordered)
        k, g = self.lu.k, self.lu.g
        low = 2 * jac.blocks - 2  # columns of the G_u block corrections
        left = np.zeros((size + m, low + 2 * m))
        right = np.zeros_like(left)
        left[:n, 0] = left[n : 2 * n, 1] = -k
        right[:n, 0] = right[n : 2 * n, 1] = k
        if jac.vbar is not None:
            left[2 * n : size, 2:4] = np.column_stack([-g, -k])
            right[2 * n : size, 2:4] = np.column_stack([k, g])
        lam = slice(low, low + m)
        left[:size, lam] = jac.cols
        left[size:, lam] = jac.rows[:, size:] - np.eye(m)
        right[size:, lam] = np.eye(m)
        left[size:, low + m :] = np.eye(m)
        right[:size, low + m :] = jac.rows[:, :size].T
        self.right = right
        self.z = np.vstack([self._forward_left(left[:size], low, m),
                            left[size:]])
        cap = np.eye(low + 2 * m) + right.T @ self.z
        cond = _scaled_cond(cap, np.eye(low + 2 * m)
                            + np.abs(right).T @ np.abs(self.z))
        try:
            self.cap_inv = np.linalg.inv(cap)
        except np.linalg.LinAlgError:
            cond = np.inf
        if not cond < (CAPACITANCE_COND_MAX if strict else np.inf):
            raise SingularAuxiliaryError(
                f"block Jacobian is singular: scaled capacitance "
                f"condition {cond:.3g}")

    def _forward(self, f: np.ndarray) -> np.ndarray:
        """L^-1 f, column by column."""
        jac, lu, n = self.jac, self.lu, self.jac.a.size
        x1 = lu.solve(f[:n])
        x2 = lu.solve(f[n : 2 * n] - jac.d[:, None] * x1)
        if jac.vbar is None:
            return np.vstack([x1, x2])
        return np.vstack([x1, x2, self._third(f[2 * n :], x1, x2)])

    def _third(self, f3: np.ndarray, x1: np.ndarray, x2: np.ndarray,
               cols=slice(None)) -> np.ndarray:
        """Columns cols of the level-3 block of L^-1 f, from the first two
        blocks x1 and x2.  The right-hand side is formed in every column:
        BLAS rounds vbar . x2 in a column by its place among them."""
        jac, lu = self.jac, self.lu
        rhs = (f3 - jac.p @ x1 - jac.e[:, None] * x2
               - np.outer(jac.a, jac.vbar @ x2))
        return lu.solve(lu.solve(rhs[:, cols]))

    def _forward_left(self, f: np.ndarray, low: int, m: int) -> np.ndarray:
        """L^-1 f for the block rows f of the Woodbury factor `left`,
        solving only the blocks that are not known in advance.

        Its last m columns are zero, and so is their L^-1.  Column 0 is
        -k in the first block, column 1 -k in the second, and each is
        zero above, so that block of L^-1 is -B^-1 k, the BorderedGu's
        `bk`; the other level-3 columns are zero in the first two.
        """
        jac, lu, n = self.jac, self.lu, self.jac.a.size
        z = np.zeros_like(f)
        x1, x2 = z[:n], z[n : 2 * n]
        lam = slice(low, low + m)
        solved = np.r_[0, low : low + m]  # the second block's unknowns
        x1[:, 0] = x2[:, 1] = -lu.bk
        x1[:, lam] = lu.solve(f[:n, lam])
        x2[:, solved] = lu.solve(f[n : 2 * n, solved]
                                 - jac.d[:, None] * x1[:, solved])
        if jac.vbar is not None:
            z[2 * n :, : low + m] = self._third(f[2 * n :], x1, x2,
                                                slice(0, low + m))
        return z

    def _backward(self, f: np.ndarray) -> np.ndarray:
        """L^-T f, column by column; levels 1-2."""
        self.jac._below_level_3("transposed solves")
        n, lu = self.jac.a.size, self.lu
        x2 = lu.solve(f[n:], "T")
        return np.vstack([lu.solve(f[:n] - self.jac.d[:, None] * x2, "T"),
                          x2])

    def solve_once(self, b: np.ndarray, trans: str = "N") -> np.ndarray:
        """One Woodbury pass of `solve`, without its refinement."""
        size = self.jac.size
        if trans == "N":
            y = np.concatenate([self._forward(b[:size, None])[:, 0],
                                b[size:]])
            return y - self.z @ (self.cap_inv @ (self.right.T @ y))
        c = b - self.right @ (self.cap_inv.T @ (self.z.T @ b))
        return np.concatenate([self._backward(c[:size, None])[:, 0],
                               c[size:]])

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """x with J x = rhs, or J^T x = rhs with trans "T"."""
        x = self.solve_once(rhs, trans)
        product = self.jac @ x if trans == "N" else self.jac.rmatvec(x)
        return x + self.solve_once(rhs - product, trans)


def _swallowtail_system(lin, dlam, a, vbar):
    """The pair of residuals of the vbar equation and the swallowtail
    value, the value row over (u, alpha, vbar, all three lam), the vbar
    rows' lam columns and the level-3 blocks p, e and vbar, from lin's
    G_u and jet.

    The cubic vbar term differentiates into the weight
    2 vbar . G_u^2 vbar + (G_u vbar)^2 against d(f_u).  The block
    p = G_u diag(f_uu vbar) + diag(f_uu v + f_uuu a^2) is written on
    G_u's own pattern, zeros stored too: each entry of G_u scaled by its
    column's f_uu vbar, the diagonal then added.
    """
    gu, (f2, f3, f4) = lin.gu, lin.f[2:]
    dlam_fu, dlam_fuu, dlam_fuuu = dlam[1:]
    v = gu @ vbar          # kernel-orthogonal correction
    q = gu @ v             # G_u^2 vbar
    res = (q + a * (a @ vbar) + f2 * a**2,
           f3 @ a**4 + 6.0 * (f2 * a**2) @ v + 3.0 * vbar @ (gu @ q))
    weight = 2.0 * vbar * q + v * v
    value = (
        f4 * a**4 + 6.0 * f3 * a**2 * v + 6.0 * f2**2 * a**2 * vbar
        + 3.0 * f2 * weight,
        4.0 * f3 * a**3 + 12.0 * f2 * a * v,
        6.0 * (f2 * a**2) @ gu + 6.0 * (gu @ q),
        a**4 @ dlam_fuuu + 6.0 * (a**2 * v) @ dlam_fuu
        + 6.0 * (f2 * a**2 * vbar) @ dlam_fu + 3.0 * weight @ dlam_fu,
    )
    cols = (v[:, None] * dlam_fu + gu @ (vbar[:, None] * dlam_fu)
            + (a**2)[:, None] * dlam_fuu)
    p = lin.problem.on_pattern(gu.data * (f2 * vbar)[gu.indices],
                               f2 * v + f3 * a**2)
    blocks = dict(p=p, e=(a @ vbar) + 2.0 * f2 * a, vbar=vbar)
    return res, value, cols, blocks


def _assemble(state: AugmentedState, level: int):
    """Residual and analytic Jacobian of the level-`level` system.

    Each level appends its grid rows to the grid rows of the level
    below, and its single rows to the single rows; the residual is the
    grid rows, then the single rows, the order of its Jacobian.  The
    t-derivatives come from one Linearization(state, level + 1) and the
    lam-gradients from one lambda_derivative(level) call.  A single
    row is (u, alpha, [vbar,] lam) with the lam-gradient over all three
    parameters, sliced to the active ones at the end, and so are the
    lam columns.  Level 0 returns a SolutionJacobian and levels 1-3 a
    BlockJacobian, never one global matrix.
    """
    if level > state.level:
        raise ValueError(f"level-{level} assembly needs a level-{level} "
                         "state")
    prob, u = state.problem, state.u
    lin = Linearization(state, level + 1)
    f, gu = lin.f, lin.gu
    dlam = prob.nl.lambda_derivative(level, u, state.lam)
    act = list(state.active)
    res = [prob.lap @ u + f[0]]
    if level == 0:
        return res[0], SolutionJacobian(gu, dlam[0][:, act], prob)
    a = state.alpha
    zero = np.zeros_like(a)
    res.append(gu @ a)
    single = [prob.inner(a, a) - 1.0]
    rows = [(zero, 2.0 * prob.weight * a, np.zeros(3))]
    if level >= 2:
        single.append(lin.contract(3, a, a, a))
        rows.append((f[3] * a**3, 3.0 * f[2] * a**2, a**3 @ dlam[2]))
    cols = [dlam[0], a[:, None] * dlam[1]]
    blocks = {}
    if level == 3:
        (vbar_res, value_res), value, vbar_cols, blocks = (
            _swallowtail_system(lin, dlam, a, state.vbar))
        res.append(vbar_res)
        single.append(value_res)
        rows = [(x, y, zero, g) for x, y, g in rows] + [value]
        cols.append(vbar_cols)
    jac = BlockJacobian(
        gu=gu, d=f[2] * a, a=a, cols=np.vstack(cols)[:, act],
        rows=np.array([np.concatenate(row[:-1] + (row[-1][act],))
                       for row in rows]), lin=lin, **blocks)
    return np.concatenate(res + [single]), jac


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
    swallowtail value; the Jacobian is a level-3 BlockJacobian."""
    return _assemble(state, 3)


class Linearization:
    """The jet f[k] = f^(k), k = 0..top (top >= 1), and G_u at one
    state, and G_u bordered by the kernel vector, factored on first use.
    One derivative call builds the jet; the monitors evaluated at one
    state share one Linearization, and so does an assembly with its
    Jacobian's factors and, on a line, the monitors at its point.

    It is the grid's `classifier.DerivativeOracle` of orders 2..top + 1:
    contract_free(2, x) = G_u x and, for k >= 3, the diagonal product
    f^(k-1) . x_1 ... x_(k-1).  It has no dense `hessian`; its jet
    vectors solve with the BorderedGu, and `classifier.detect` still
    needs a TensorOracle.
    """

    def __init__(self, state: AugmentedState, top: int):
        self.state = state
        self.alpha, self.problem = state.alpha, state.problem
        self.dimension = state.problem.grid.size
        self.f = state.problem.nl.derivative(top, state.u, state.lam)
        self.gu = state.problem.gu(self.f[1])

    @property
    def max_order(self) -> int:
        return len(self.f)

    @cached_property
    def bordered(self) -> BorderedGu:
        return BorderedGu(self.gu, self.alpha, self.problem.bordered_order)

    def raised(self, top: int) -> "Linearization":
        """This linearization with its jet to top at least: itself, or a
        copy with the longer jet that shares G_u and the bordered factor
        (entry k of a jet does not depend on its top)."""
        if top < len(self.f):
            return self
        out = copy.copy(self)
        out.f = self.problem.nl.derivative(top, self.state.u, self.state.lam)
        return out

    def contract_free(self, k: int, *vectors) -> np.ndarray:
        if len(vectors) != k - 1:
            raise ValueError(f"contract_free({k}) needs {k - 1} vectors")
        if not 2 <= k <= self.max_order:
            raise ValueError(f"order {k} outside 2..{self.max_order}")
        if k == 2:
            return self.gu @ vectors[0]
        out = self.f[k - 1]
        for x in vectors:
            out = out * x
        return out

    def contract(self, k: int, *vectors) -> float:
        return float(self.contract_free(k, *vectors[:-1]) @ vectors[-1])

    def jet_vector(self, jet: list) -> np.ndarray:
        """The jet's next vector F^(m) after jet = [F'', .., F^(m-1)]: the
        classifier's Bell right-hand side of order m + 2 solved, kernel
        orthogonal, by one bordered solve."""
        return self.bordered.orthogonal_solve(
            jet_rhs(self, self.alpha, jet, len(jet) + 4))


def solve_v(state: AugmentedState, lin: Linearization | None = None):
    """The jet's first vector F'' = v: G_u v + mu a = -(f_uu . a^2) with
    a.v = 0, one bordered solve on lin's BorderedGu."""
    return (lin or Linearization(state, 2)).jet_vector([])


def monitor_value(lin: Linearization, n: int, jet=()) -> float:
    """The classifier's test value r^n on lin: the cusp (n = 3),
    swallowtail (4) or butterfly (5) monitor.  jet, the leading vectors
    F'', F''', .. that the caller has, is completed to F^(n-2) by
    `Linearization.jet_vector`, and lin's jet is raised to f^(n-1)."""
    lin, jet = lin.raised(n - 1), list(jet)
    while len(jet) < n - 3:
        jet.append(lin.jet_vector(jet))
    return test_value(lin, lin.alpha, jet, n)


def evaluate_monitors(state: AugmentedState) -> MonitorRecord:
    """Cusp and swallowtail values at a state; butterfly at level 3."""
    lin = Linearization(state, 4 if state.level == 3 else 3)
    jet = [solve_v(state, lin)]
    return MonitorRecord(
        cusp=monitor_value(lin, 3), swallowtail=monitor_value(lin, 4, jet),
        butterfly=monitor_value(lin, 5, jet) if state.level == 3 else None)
