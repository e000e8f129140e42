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
residual and the analytic Jacobian of every level: one call each
evaluates the jet f[k] = f^(k), k = 0..level+1, of derivative diagonals
and its lam-gradients up to order level, and the rows stack level by
level.  `solution_residual_jacobian` and
`f1_`/`f2_`/`f3_residual_jacobian` each assemble one fixed level, so a
level-k name applied to a higher-level state still gives level k.

The normalization is the discrete-L2 dx dy a.a = 1.  The auxiliary
vbar parameterizes the kernel-orthogonal correction v = G_u vbar, so
orthogonality to the kernel holds exactly even on coarse grids.

Levels 1-3 return their Jacobian as a BlockJacobian, never one global
matrix.  Its BlockFactor factors one (n+1) x (n+1) matrix, G_u bordered
by the scaled kernel vector, and folds the rest into a small Woodbury
capacitance: the bordering / mixed block elimination of Govaerts,
Numerical Methods for Bifurcations of Dynamical Equilibria (SIAM 2000),
ch. 3, and Govaerts & Pryce (IMA J. Numer. Anal. 1993).  Level 0
returns a SolutionJacobian, G_u and its lam column kept apart.

Every grid matrix that this module or continuation factors is one G_u
bordered by one column and one row: [[G_u, k], [k^T, -1]] here
(`BorderedGu`), [G_u, dG/dlam; t^T] at level 0 in continuation, which
also reads the sign of det G_u from that factor.  `Problem.gu` keeps
G_u on the Laplacian's CSR pattern, so `Problem.bordered_order`
gathers each factor's input straight from [G_u data | column | row]
into the nested-dissection order of the grid's points, the border
last; no bordered matrix is built per factor.  An assembly's
Linearization (its jet, G_u and BorderedGu) rides on its BlockJacobian:
every factor of that Jacobian shares the one BorderedGu, and on a line
the monitors at an accepted point solve with the BorderedGu that the
tangent factored there and read the assembly's jet.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .poisson import Grid, Nonlinearity, build_laplacian, nested_dissection

#: diag_pivot_thresh of the level-0 and BorderedGu factors: at a fold
#: t_lam and G_u are singular, so a small diagonal pivot is swapped.
PIVOT_THRESH = 0.1
#: A strict block solve treats its Jacobian as singular when the
#: capacitance, rows and then columns scaled by the magnitudes it was
#: summed from, has a larger condition number.  On every level-1/2
#: Newton iterate and tangent of the robust 10x10 and 15x15 hunts it was
#: 8.3-245, on their level-3 iterates 66-101 and on the 10-30 ladder
#: 67-177.  Jacobians made exactly singular gave 8.5e14 or more: at
#: levels 1-2 by a repeated G row or a zeroed lam column, at level 3
#: (8.5e16 or more) by a zero row or column.
CAPACITANCE_COND_MAX = 1e12


class SingularAuxiliaryError(RuntimeError):
    """A regularized system G + a a^T (kernel dimension > 1), or the
    block Jacobian it helps to solve, is singular."""


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
    """SuperLU of P A P^T; solves with A, or A^T for trans "T", 1-D or 2-D."""

    lu: SuperLU
    perm: np.ndarray

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        x = np.empty(np.shape(rhs))
        x[self.perm] = self.lu.solve(np.asarray(rhs)[self.perm], trans=trans)
        return x

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
        use: the grid's nested dissection, the border last."""
        n = self.grid.size
        return BorderedOrder.of(
            self.lap, np.append(nested_dissection(self.grid), n))

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
        data = self.lap.data.copy()
        data[self._diagonal] += fu
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
    spans the kernel of G_u.  For symmetric G_u, B^2 = G_u^2 + a a^T +
    g k^T + k g^T with g = G_u k.  order is a Problem's bordered_order,
    which gathers the bordered matrix from gu and k; None for a plain gu
    factors in gu's own order."""

    def __init__(self, gu, a: np.ndarray,
                 order: BorderedOrder | None = None):
        if order is None:
            gu = sp.csr_matrix(gu)
            order = BorderedOrder.of(gu)
        self.k = k = a / np.sqrt(np.linalg.norm(a) or 1.0)
        self.g = gu @ k
        try:
            self.lu = PermutedLU(splu(
                order.gather(gu, k, np.append(k, -1.0)),
                permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESH,
                options={"SymmetricMode": True}), order.perm)
        except RuntimeError as exc:
            raise SingularAuxiliaryError(
                "regularized system is singular") from exc

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """B^-1 rhs, or B^-T rhs with trans "T", column by column."""
        pad = np.zeros((1, rhs.shape[1]))
        return self.lu.solve(np.vstack([rhs, pad]), trans=trans)[:-1]

    def square_solve(self, rhs: np.ndarray) -> np.ndarray:
        """(G_u^2 + a a^T)^-1 rhs for symmetric G_u.

        That matrix is B^2 less the rank-two g k^T + k g^T, so two
        solves with B and a 2 x 2 Woodbury capacitance give it.
        """
        y = self.solve(self.solve(np.column_stack([rhs, self.g, self.k])))
        right = np.column_stack([self.k, self.g])
        try:
            x = y[:, 0] + y[:, 1:] @ np.linalg.solve(
                np.eye(2) - right.T @ y[:, 1:], right.T @ y[:, 0])
        except np.linalg.LinAlgError as exc:
            raise SingularAuxiliaryError(
                "regularized system is singular") from exc
        if not np.all(np.isfinite(x)):
            raise SingularAuxiliaryError(
                "regularized system is numerically singular")
        return x


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
    row it is square, G_u bordered once, and `permuted` gathers it in
    the Problem's bordered_order for SuperLU to factor.
    """

    gu: sp.csr_matrix
    cols: np.ndarray
    problem: Problem
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
        order = self.problem.bordered_order
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

    (p, e and vbar are None below level 3).  `rows` holds the single
    rows in full: normalization, cusp (level >= 2), value (level 3)
    and, after `bordered`, a continuation row.  G_u^2 is applied as G_u
    twice, never formed.  The residual interleaves the rows: G, G_u a,
    normalization, cusp, vbar equation, then the remaining single rows.
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
        return (self.blocks * self.a.size + self.rows.shape[0],
                self.rows.shape[1])

    @property
    def nnz(self) -> int:
        """Stored entries: the sparse blocks' plus the dense nonzeros."""
        sparse = self.gu.nnz + (0 if self.p is None else self.p.nnz)
        return int(sparse + sum(
            np.count_nonzero(x) for x in (self.d, self.e, self.a, self.vbar,
                                          self.cols, self.rows)
            if x is not None))

    @cached_property
    def _order(self) -> tuple:
        """Residual positions of the block rows and of the single rows."""
        n, m = self.a.size, self.rows.shape[0]
        head = m if self.vbar is None else 2
        single = np.concatenate([2 * n + np.arange(head),
                                 3 * n + 2 + np.arange(m - head)])
        return np.delete(np.arange(self.shape[0]), single), single

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        n, size = self.a.size, self.blocks * self.a.size
        xu, xa = x[:n], x[n : 2 * n]
        out = [self.gu @ xu, self.d * xu + self.gu @ xa]
        if self.vbar is not None:
            xv = x[2 * n : 3 * n]
            out.append(self.p @ xu + self.e * xa + self.a * (self.vbar @ xa)
                       + self.gu @ (self.gu @ xv) + self.a * (self.a @ xv))
        block, single = self._order
        y = np.empty(self.shape[0])
        y[block] = np.concatenate(out) + self.cols @ x[size:]
        y[single] = self.rows @ x
        return y

    def _below_level_3(self, what: str) -> None:
        # continuation, which needs these, never runs at level 3
        if self.vbar is not None:
            raise ValueError(f"{what} are defined below level 3")

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        """The transposed product J^T y; levels 1-2."""
        self._below_level_3("transposed products")
        block, single = self._order
        yb, n, gu_t = y[block], self.a.size, self.gu.T
        out = np.concatenate([gu_t @ yb[:n] + self.d * yb[n:],
                              gu_t @ yb[n:], self.cols.T @ yb])
        return out + self.rows.T @ y[single]

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
    solves by forward substitution, and L^T by back substitution.  In
    the block rows, then the single rows, J is [[L, 0], [0, I]] plus a
    low-rank term U V^T: -k k^T in the two G_u blocks, -(g k^T + k g^T)
    in the G_u^2 block, the lam columns and the single rows.  Woodbury
    folds that term into a capacitance of order 2 + 2m (4 + 2m at level
    3) for m single rows, 8 on the bordered cusp line and 10 at level 3;
    its transpose serves the transposed solve (levels 1-2).  Each solve
    takes one step of iterative refinement against the full product.  A
    singular factorization or capacitance raises SingularAuxiliaryError;
    with strict, so does a scaled capacitance condition of
    CAPACITANCE_COND_MAX or more.  Without strict a nearly singular J
    still solves, as inverse iteration does.
    """

    def __init__(self, jac: BlockJacobian, strict: bool = True):
        if jac.shape[0] != jac.shape[1]:
            raise ValueError("the block solve needs a square Jacobian")
        n, m = jac.a.size, jac.rows.shape[0]
        size = jac.blocks * n
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
        self.z = np.vstack([self._forward(left[:size]), left[size:]])
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
        self.block, self.single = jac._order

    def _forward(self, f: np.ndarray) -> np.ndarray:
        """L^-1 f, column by column."""
        jac, lu, n = self.jac, self.lu, self.jac.a.size
        x1 = lu.solve(f[:n])
        x2 = lu.solve(f[n : 2 * n] - jac.d[:, None] * x1)
        if jac.vbar is None:
            return np.vstack([x1, x2])
        x3 = lu.solve(lu.solve(
            f[2 * n :] - jac.p @ x1 - jac.e[:, None] * x2
            - np.outer(jac.a, jac.vbar @ x2)))
        return np.vstack([x1, x2, x3])

    def _backward(self, f: np.ndarray) -> np.ndarray:
        """L^-T f, column by column; levels 1-2."""
        self.jac._below_level_3("transposed solves")
        n, lu = self.jac.a.size, self.lu
        x2 = lu.solve(f[n:], "T")
        return np.vstack([lu.solve(f[:n] - self.jac.d[:, None] * x2, "T"),
                          x2])

    def _once(self, b: np.ndarray, trans: str) -> np.ndarray:
        size = self.block.size
        if trans == "N":
            y = np.concatenate([self._forward(b[self.block, None])[:, 0],
                                b[self.single]])
            return y - self.z @ (self.cap_inv @ (self.right.T @ y))
        # J^T = M^T P for M = P J, the rows permuted into block order
        c = b - self.right @ (self.cap_inv.T @ (self.z.T @ b))
        x = np.empty_like(c)
        x[self.block] = self._backward(c[:size, None])[:, 0]
        x[self.single] = c[size:]
        return x

    def solve(self, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
        """x with J x = rhs, or J^T x = rhs with trans "T"."""
        x = self._once(rhs, trans)
        product = self.jac @ x if trans == "N" else self.jac.rmatvec(x)
        return x + self._once(rhs - product, trans)


def _swallowtail_system(gu, f, dlam, a, vbar):
    """Residuals of the vbar equation and the swallowtail value, the
    value row over (u, alpha, vbar, all three lam), the vbar rows' lam
    columns and the level-3 blocks p, e and vbar.

    The cubic vbar term differentiates into the weight
    2 vbar . G_u^2 vbar + (G_u vbar)^2 against d(f_u).
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
    cols = (v[:, None] * dlam_fu + gu @ (vbar[:, None] * dlam_fu)
            + (a**2)[:, None] * dlam_fuu)
    blocks = dict(p=gu @ sp.diags(f2 * vbar) + sp.diags(f2 * v + f3 * a**2),
                  e=(a @ vbar) + 2.0 * f2 * a, vbar=vbar)
    return res, value, cols, blocks


def _assemble(state: AugmentedState, level: int):
    """Residual and analytic Jacobian of the level-`level` system.

    Each level appends its rows to the rows of the level below.  The
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
    a, area = state.alpha, prob.grid.cell_area
    zero = np.zeros_like(a)
    res += [gu @ a, [area * (a @ a) - 1.0]]
    rows = [(zero, 2.0 * area * a, np.zeros(3))]
    if level >= 2:
        res.append([f[2] @ a**3])
        rows.append((f[3] * a**3, 3.0 * f[2] * a**2, a**3 @ dlam[2]))
    cols = [dlam[0], a[:, None] * dlam[1]]
    blocks = {}
    if level == 3:
        more_res, value, vbar_cols, blocks = _swallowtail_system(
            gu, f, dlam, a, state.vbar)
        res += more_res
        rows = [(x, y, zero, g) for x, y, g in rows] + [value]
        cols.append(vbar_cols)
    jac = BlockJacobian(
        gu=gu, d=f[2] * a, a=a, cols=np.vstack(cols)[:, act],
        rows=np.array([np.concatenate(row[:-1] + (row[-1][act],))
                       for row in rows]), lin=lin, **blocks)
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
    swallowtail value; the Jacobian is a level-3 BlockJacobian."""
    return _assemble(state, 3)


class Linearization:
    """The jet f[k] = f^(k), k = 0..top (top >= 1), and G_u at one
    state, and G_u bordered by the kernel vector, factored on first use.
    One derivative call builds the jet; the monitors evaluated at one
    state share one Linearization, and so does an assembly with its
    Jacobian's factors and, on a line, the monitors at its point."""

    def __init__(self, state: AugmentedState, top: int):
        self.state = state
        self.alpha, self.problem = state.alpha, state.problem
        self.f = state.problem.nl.derivative(top, state.u, state.lam)
        self.gu = state.problem.gu(self.f[1])

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


def cusp_monitor(state: AugmentedState,
                 lin: Linearization | None = None) -> float:
    f2 = (lin or Linearization(state, 2)).f[2]
    return float(f2 @ state.alpha**3)


def solve_v(state: AugmentedState, lin: Linearization | None = None):
    """Kernel-orthogonal correction: (G_u^2 + a a^T) vbar = -(f_uu . a^2).

    Returns (vbar, v) with v = G_u vbar; v solves G_u v = -(f_uu . a^2)
    projected off the kernel, and is orthogonal to it by construction.
    """
    lin = lin or Linearization(state, 2)
    vbar = lin.bordered.square_solve(-lin.f[2] * state.alpha**2)
    return vbar, lin.gu @ vbar


def swallowtail_monitor(state: AugmentedState, v: np.ndarray,
                        lin: Linearization | None = None) -> float:
    a = state.alpha
    lin = lin or Linearization(state, 3)
    f2, f3 = lin.f[2:4]
    return float(f3 @ a**4 + 6.0 * (f2 * a**2) @ v + 3.0 * v @ (lin.gu @ v))


def butterfly_monitor(state: AugmentedState, v: np.ndarray,
                      lin: Linearization | None = None) -> float:
    """Butterfly test with the auxiliary w-solve.

    (G_u^2 + a a^T) wbar = -(3 f_uu . a . v + f_uuu . a^3), w = G_u wbar,
    value = f_uuuu . a^5 - 15 (f_uu . a) . v^2 + 10 (f_uu . a^2) . w.
    """
    a = state.alpha
    lin = lin or Linearization(state, 4)
    f2, f3, f4 = lin.f[2:5]
    wbar = lin.bordered.square_solve(-(3.0 * f2 * a * v + f3 * a**3))
    w = lin.gu @ wbar
    return float(f4 @ a**5 - 15.0 * (f2 * a) @ (v * v)
                 + 10.0 * (f2 * a**2) @ w)


def evaluate_monitors(state: AugmentedState) -> MonitorRecord:
    """Cusp and swallowtail values at a state; butterfly at level 3."""
    lin = Linearization(state, 4 if state.level == 3 else 3)
    _, v = solve_v(state, lin)
    butterfly = (butterfly_monitor(state, v, lin) if state.level == 3
                 else None)
    return MonitorRecord(
        cusp=cusp_monitor(state, lin),
        swallowtail=swallowtail_monitor(state, v, lin),
        butterfly=butterfly,
    )
