"""Shared test utilities: independent oracles the library must reproduce.

Everything here is deliberately written from first principles (brute
force, finite differences, dense algebra) so it can arbitrate the
library's optimized implementations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import svdvals
from scipy.sparse.linalg import splu

from aseries.augmented import BlockJacobian, SolutionJacobian
from aseries.classifier import TensorOracle
from aseries.continuation import (
    RankDeficientError,
    SingularJacobianError,
    _SparseJacobian,
    bordered_csr,
    solution_signature,
    tangent,
)


# ---------------------------------------------------------------------------
# set partitions (oracle for the Bell combinatorics)


def set_partitions(items):
    """All partitions of `items` into nonempty blocks (brute force)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def partition_count(n: int) -> int:
    return sum(1 for _ in set_partitions(range(n)))


def bell_value_by_partitions(n: int, xs) -> float:
    """B_n(x_1..x_n) = sum over partitions of prod over blocks x_{|block|}."""
    xs = list(xs)
    total = 0.0
    for part in set_partitions(range(n)):
        term = 1.0
        for block in part:
            term *= xs[len(block) - 1]
        total += term
    return total


# ---------------------------------------------------------------------------
# polynomial functionals as dense derivative tensors


def tensors_from_polynomial(coeffs: dict, m: int, max_order: int):
    """Derivative tensors at 0 of S(x) = sum coeffs[beta] * x**beta.

    `coeffs` maps exponent tuples beta (length m) to coefficients.  The
    order-k tensor entry at indices (i_1..i_k) whose multiplicity vector
    is beta equals coeffs[beta] * prod(beta_i!), the k-th partial
    derivative of the monomial at the origin.
    """
    tensors = [np.zeros((m,) * k) for k in range(1, max_order + 1)]
    for beta, c in coeffs.items():
        k = sum(beta)
        if k < 1 or k > max_order:
            continue
        value = c * math.prod(math.factorial(b) for b in beta)
        base = []
        for i, b in enumerate(beta):
            base.extend([i] * b)
        for perm in set(itertools.permutations(base)):
            tensors[k - 1][perm] = value
    return tensors


def polynomial_value(coeffs: dict, z) -> float:
    z = np.asarray(z, dtype=float)
    total = 0.0
    for beta, c in coeffs.items():
        total += c * math.prod(zi**b for zi, b in zip(z, beta))
    return total


def rotate_tensors(tensors, rot: np.ndarray):
    """Tensors of S(R^T x) from tensors of S: apply R^T to every slot."""
    out = []
    for t in tensors:
        for axis in range(t.ndim):
            t = np.tensordot(t, rot, axes=([0], [0]))
        out.append(t)
    return out


def random_orthogonal(rng: np.random.Generator, m: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((m, m)))
    return q * np.sign(np.diag(r))


# ---------------------------------------------------------------------------
# finite-difference oracle for the reduced function r(s)


def reduced_function(oracle: TensorOracle, alpha, newton_tol=1e-13):
    """Callable r(s) = S(s*alpha + F(s)) with F solving the stationarity
    condition on the orthogonal complement of alpha (dense Newton).

    The correction F is warm-started from the previous call, so sample
    points should be visited in order of increasing |s|.
    """
    alpha = np.asarray(alpha, dtype=float)
    m = oracle.dimension
    a_unit = alpha / np.linalg.norm(alpha)
    basis = _complement_basis(a_unit)  # m x (m-1), orthonormal columns
    state = {"y": np.zeros(m - 1)}

    def r(s: float) -> float:
        y = state["y"].copy()
        for _ in range(80):
            z = s * alpha + basis @ y
            g = basis.T @ _poly_gradient(oracle, z)
            step = np.linalg.solve(basis.T @ _poly_hessian(oracle, z) @ basis, g)
            y -= step
            if np.linalg.norm(g, ord=np.inf) < newton_tol:
                break
        else:
            raise RuntimeError(f"constrained stationarity failed at s={s}")
        state["y"] = y
        return oracle.value(s * alpha + basis @ y)

    return r


def _complement_basis(a_unit: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the hyperplane orthogonal to a_unit."""
    m = a_unit.shape[0]
    projector = np.eye(m) - np.outer(a_unit, a_unit)
    u, _, _ = np.linalg.svd(projector)
    return u[:, : m - 1]


def _poly_gradient(oracle: TensorOracle, z: np.ndarray) -> np.ndarray:
    """Gradient of the Taylor polynomial sum_k T_k[z..z]/k! at z."""
    g = np.zeros(oracle.dimension)
    fact = 1.0
    for k in range(1, oracle.max_order + 1):
        fact *= k
        t = oracle.tensors[k - 1]
        for _ in range(k - 1):
            t = t @ z
        g += np.asarray(t, dtype=float) * (k / fact)
    return g


def _poly_hessian(oracle: TensorOracle, z: np.ndarray) -> np.ndarray:
    h = np.zeros((oracle.dimension, oracle.dimension))
    fact = 1.0
    for k in range(1, oracle.max_order + 1):
        fact *= k
        if k < 2:
            continue
        t = oracle.tensors[k - 1]
        for _ in range(k - 2):
            t = t @ z
        h += np.asarray(t, dtype=float) * (k * (k - 1) / fact)
    return h


def fit_derivatives(func, orders, h: float, degree: int = 10,
                    points: int = 13) -> dict:
    """High-order derivatives of `func` at 0 by polynomial fitting.

    Samples symmetric nodes in [-h, h] (visited center-out so the callable
    may warm-start), fits a degree-`degree` polynomial in the scaled
    variable s/h, and reads the requested derivatives off the coefficients.
    """
    nodes = h * np.linspace(-1.0, 1.0, points)
    order_out = sorted(range(points), key=lambda i: (abs(nodes[i]), nodes[i]))
    values = np.empty(points)
    for i in order_out:
        values[i] = func(nodes[i])
    coeffs = np.polynomial.polynomial.polyfit(nodes / h, values, degree)
    return {n: math.factorial(n) * coeffs[n] / h**n for n in orders}


def fd_derivative(func, order: int, h: float) -> float:
    return fit_derivatives(func, [order], h)[order]


# ---------------------------------------------------------------------------
# dense and finite-difference jacobians


def dense_jacobian(jac) -> np.ndarray:
    """Any Jacobian the library returns, as one dense array.

    A BlockJacobian is formed from its blocks in the residual's row
    order: the full analytic Jacobian, G_u^2 multiplied out.  A
    SolutionJacobian is [G_u, cols] over its rows, a _SparseJacobian its
    matrix; sparse matrices and arrays are converted as they are.
    """
    if isinstance(jac, SolutionJacobian):
        width = jac.shape[1]
        return np.vstack([np.hstack([jac.gu.toarray(), jac.cols]),
                          np.reshape(jac.rows, (-1, width))])
    if isinstance(jac, _SparseJacobian):
        return jac.mat.toarray()
    if not isinstance(jac, BlockJacobian):
        return jac.toarray() if sp.issparse(jac) else np.asarray(jac, float)
    n = jac.a.size
    gu, zero = jac.gu.toarray(), np.zeros((n, n))
    body = [[gu, zero], [np.diag(jac.d), gu]]
    if jac.vbar is not None:
        body = [row + [zero] for row in body]
        body.append([jac.p.toarray(),
                     np.diag(jac.e) + np.outer(jac.a, jac.vbar),
                     gu @ gu + np.outer(jac.a, jac.a)])
    block, single = jac._order
    out = np.empty(jac.shape)
    out[block] = np.hstack([np.block(body), jac.cols])
    out[single] = jac.rows
    return out


def fd_jacobian(func, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Dense central-difference Jacobian of func: R^n -> R^m."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(func(x), dtype=float)
    jac = np.empty((f0.size, x.size))
    for j in range(x.size):
        step = h * max(1.0, abs(x[j]))
        xp = x.copy()
        xm = x.copy()
        xp[j] += step
        xm[j] -= step
        jac[:, j] = (np.asarray(func(xp)) - np.asarray(func(xm))) / (2 * step)
    return jac


def dense_rank_check(jac, rank_tol: float = 1e-8) -> None:
    """Full-row-rank check of an n x (n+1) Jacobian by a dense SVD.

    Raises RankDeficientError when sigma_min < rank_tol * max(sigma_max, 1),
    the verdict the library's sparse rank check must reproduce.
    """
    sing = svdvals(dense_jacobian(jac))
    if sing[-1] < rank_tol * max(sing[0], 1.0):
        raise RankDeficientError(
            f"smallest singular value {sing[-1]:.3e} at an accepted point")


def dense_tangent(jac, previous=None, rank_tol: float = 1e-8) -> np.ndarray:
    """Unit null vector of an n x (n+1) Jacobian by dense algebra.

    Solves the bordered system [jac; row] t = e_last by dense LU, where
    row is the previous tangent or, when None, the last unit vector.
    When that matrix is singular it falls back to the SVD null vector,
    and raises RankDeficientError if sigma_min < rank_tol *
    max(sigma_max, 1).  The library's sparse tangent must agree with it
    on full-rank matrices, and an accepted point (tangent, then rank
    check) must reject every matrix it rejects.
    """
    dense = dense_jacobian(jac)
    rhs = np.zeros(dense.shape[1])
    rhs[-1] = 1.0
    row = rhs if previous is None else np.asarray(previous, dtype=float)
    try:
        sol = np.linalg.solve(np.vstack([dense, row[None, :]]), rhs)
        if not np.all(np.isfinite(sol)) or np.linalg.norm(sol) == 0.0:
            sol = None
    except np.linalg.LinAlgError:
        sol = None
    if sol is None:
        _, sing, vt = np.linalg.svd(dense)
        if sing[-1] < rank_tol * max(sing[0], 1.0):
            raise RankDeficientError("extended Jacobian is rank deficient")
        sol = vt[-1]
    t = sol / np.linalg.norm(sol)
    if row @ t < 0.0:
        t = -t
    return t


def dense_newton_step(jac, res: np.ndarray) -> np.ndarray:
    """Newton step of a (possibly bordered) Jacobian by dense LU."""
    return np.linalg.solve(dense_jacobian(jac), res)


def relative_error(found: np.ndarray, expected: np.ndarray) -> float:
    found = np.asarray(found, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1.0)
    return float(np.max(np.abs(found - expected))) / scale


def bordered_newton_step(jac, res: np.ndarray) -> np.ndarray:
    """Level-3 Newton step by one SuperLU of the whole bordered system.

    The level-3 BlockJacobian's blocks form a sparse core S, and its two
    rank-one terms a vbar^T and a a^T one outer product c d^T, with c
    = a in the vbar-equation rows and d = (vbar, a) in the (alpha, vbar)
    columns.  [[S, c], [d^T, -1]] [x; y] = [res; 0] then gives
    (S + c d^T) x = res.  A singular factor or a non-finite step raises
    SingularJacobianError, which the block solve must reproduce.
    """
    n = jac.a.size
    zero = sp.csr_matrix((n, n))
    cols = np.split(jac.cols, 3)
    block = sp.bmat([[jac.gu, zero, zero, cols[0]],
                     [sp.diags(jac.d), jac.gu, zero, cols[1]],
                     [jac.p, sp.diags(jac.e), jac.gu @ jac.gu, cols[2]]],
                    format="csr")
    core = sp.vstack([block[: 2 * n], sp.csr_matrix(jac.rows[:2]),
                      block[2 * n :], sp.csr_matrix(jac.rows[2:])])
    left = np.zeros(jac.shape[0])
    left[2 * n + 2 : 3 * n + 2] = jac.a
    right = np.zeros(jac.shape[1])
    right[n : 2 * n] = jac.vbar
    right[2 * n : 3 * n] = jac.a
    bordered = sp.bmat([[core, left[:, None]], [right[None, :], [[-1.0]]]],
                       format="csc")
    try:
        sol = splu(bordered).solve(np.append(res, 0.0))[:-1]
    except RuntimeError as exc:
        raise SingularJacobianError(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularJacobianError("non-finite Newton update")
    return sol


# ---------------------------------------------------------------------------
# levels 1-2 as one global matrix (oracle for the block solve)


def assembled_jacobian(jac, row=None) -> sp.csr_matrix:
    """A level-1/2 BlockJacobian as one global sparse matrix.

    Assembled with sp.bmat as the library did before its block solve:
    block rows G and G_u a over (u, alpha, lam), then the single rows
    (normalization, cusp, any continuation row), then row when given.
    """
    n = jac.a.size
    rows = jac.rows if row is None else np.vstack([jac.rows, row])
    blocks = sp.bmat([[jac.gu, None, sp.csr_matrix(jac.cols[:n])],
                      [sp.diags(jac.d), jac.gu,
                       sp.csr_matrix(jac.cols[n:])]])
    return sp.vstack([blocks, sp.csr_matrix(rows)], format="csr")


def superlu_solve(mat, rhs: np.ndarray, trans: str = "N") -> np.ndarray:
    """x with mat x = rhs (mat^T x = rhs for trans "T") by one SuperLU of
    the whole square matrix.  A singular factor or a non-finite x raises
    SingularJacobianError."""
    try:
        sol = splu(sp.csc_matrix(mat)).solve(rhs, trans=trans)
    except RuntimeError as exc:
        raise SingularJacobianError(str(exc)) from exc
    if not np.all(np.isfinite(sol)):
        raise SingularJacobianError("non-finite solution")
    return sol


def superlu_tangent(jac, previous=None) -> np.ndarray:
    """Unit null vector of a level-1/2 BlockJacobian from the SuperLU
    solve of the assembled [J; row^T] s = e_last, row the previous
    tangent or the last unit vector, oriented along row."""
    rhs = np.zeros(jac.shape[1])
    rhs[-1] = 1.0
    row = rhs if previous is None else np.asarray(previous, dtype=float)
    try:
        sol = superlu_solve(assembled_jacobian(jac, row), rhs)
    except SingularJacobianError as exc:
        raise RankDeficientError(str(exc)) from exc
    t = sol / np.linalg.norm(sol)
    return -t if row @ t < 0.0 else t


# ---------------------------------------------------------------------------
# the sign of det G_u from a tangent's factor, and its dense oracle


def tangent_factor(gu, seed: int = 0, problem=None):
    """The BorderedFactor that `tangent` makes for J = [G_u, g], g and the
    bordering row seeded standard normal draws.  With a Problem, G_u is
    on its grid and J a SolutionJacobian, gathered in the grid's order;
    without, J is the plain matrix in its own order."""
    gu = sp.csr_matrix(gu)
    n = gu.shape[0]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 1))
    jac = (_SparseJacobian(bordered_csr(gu, g)) if problem is None
           else SolutionJacobian(gu, g, problem))
    return tangent(jac, rng.standard_normal(n + 1))[1]


def tangent_signature(gu, seed: int = 0, problem=None) -> int:
    """`solution_signature` of J = [G_u, g] at k = n: the sign of det G_u."""
    return solution_signature(tangent_factor(gu, seed, problem), gu.shape[0])


# ---------------------------------------------------------------------------
# the bordered matrix built and permuted whole (oracle for the gather)


@dataclass(frozen=True)
class Ordering:
    """A symmetric permutation of one square CSR pattern: `permute`
    gathers the CSR data of A into the CSC of P A P^T, (P A P^T)[i, j]
    = A[perm[i], perm[j]], the way every grid factor's input was built
    before `augmented.BorderedOrder` gathered it from its pieces."""

    csr: tuple  # (indptr, indices) of A
    perm: np.ndarray
    position: sp.csc_matrix  # of each entry of P A P^T in A's CSR data

    @classmethod
    def of(cls, pattern: sp.csr_matrix, perm=None) -> "Ordering":
        perm = np.arange(pattern.shape[0]) if perm is None else perm
        position = sp.csr_matrix(  # counted from 1, so none is dropped
            (np.arange(1, pattern.nnz + 1), pattern.indices,
             pattern.indptr), shape=pattern.shape)[perm][:, perm].tocsc()
        position.data -= 1
        return cls((pattern.indptr, pattern.indices), perm, position)

    def permute(self, mat: sp.csr_matrix) -> sp.csc_matrix:
        if not all(map(np.array_equal, self.csr, (mat.indptr, mat.indices))):
            raise ValueError("matrix does not have the ordering's pattern")
        at = self.position
        return sp.csc_matrix((mat.data[at.data], at.indices, at.indptr),
                             shape=at.shape)


def permuted_bordered(gu, col, row, perm=None) -> sp.csc_matrix:
    """P [[gu, col], [row^T]] P^T by `bordered_csr` and `Ordering.permute`:
    the bordered CSR built whole, then permuted in the order of its
    pattern with ones in col and row; perm None is the identity."""
    gu, n = sp.csr_matrix(gu), gu.shape[0]
    pattern = bordered_csr(sp.csr_matrix((np.ones(gu.nnz), gu.indices,
                                          gu.indptr), shape=gu.shape),
                           np.ones((n, 1)), np.ones(n + 1))
    return Ordering.of(pattern, perm).permute(
        bordered_csr(gu, np.reshape(col, (n, 1)), row))


def dense_det_sign(mat) -> int:
    """Sign of det(mat) by a dense LU (np.linalg.slogdet); 0 if singular."""
    return int(np.linalg.slogdet(dense_jacobian(mat))[0])
