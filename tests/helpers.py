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
from scipy.sparse.linalg import LinearOperator, eigsh, splu

from aseries.augmented import (
    BlockJacobian,
    Linearization,
    SolutionJacobian,
    monitor_value,
    solve_v,
)
from aseries.bell import bell_value
from aseries.classifier import TensorOracle
from aseries.poisson import GridFunction
from aseries.continuation import (
    RANK_LANCZOS_TOL,
    RankDeficientError,
    SingularJacobianError,
    _largest_eigenvalue,
    _pinned_point,
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


def bell_number(n: int) -> int:
    """Number of partitions of an n-set: B_n(1, ..., 1)."""
    return int(bell_value(n, (1,) * n))


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


def tensor_value(oracle: TensorOracle, z) -> float:
    """Taylor evaluation sum_k T_k[z,...,z]/k! (exact for polynomials)."""
    z = np.asarray(z, dtype=float)
    total = 0.0
    fact = 1.0
    for k in range(1, oracle.max_order + 1):
        fact *= k
        t = oracle.tensors[k - 1]
        for _ in range(k):
            t = t @ z
        total += float(t) / fact
    return total


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
        return tensor_value(oracle, s * alpha + basis @ y)

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

    A BlockJacobian is formed from its blocks, the block rows over the
    single rows: the full analytic Jacobian, G_u^2 multiplied out.  A
    SolutionJacobian is [G_u, cols] over its rows; sparse matrices and
    arrays are converted as they are.
    """
    if isinstance(jac, SolutionJacobian):
        width = jac.shape[1]
        return np.vstack([np.hstack([jac.gu.toarray(), jac.cols]),
                          np.reshape(jac.rows, (-1, width))])
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
    return np.vstack([np.hstack([np.block(body), jac.cols]), jac.rows])


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


def refined_sigma_min(jac, null, factor) -> tuple:
    """(sigma_min, scale) of an n x (n+1) Jacobian from the inverse Gram
    operator of `continuation._check_rank` built on the refined `solve`
    of factor.lu, as the rank check built it before it solved once per
    application: the oracle of that single-pass operator."""
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

    value = _largest_eigenvalue(inverse_gram, jac.shape[1])
    return 1.0 / np.sqrt(abs(value)), scale


def arpack_largest(matvec, size: int) -> float:
    """Eigenvalue of largest magnitude of a symmetric operator on
    R^size by ARPACK's eigsh, restarted Lanczos on its default subspace,
    from the rank check's start vector and to its tolerance: the oracle
    of `continuation._largest_eigenvalue`."""
    op = LinearOperator((size, size), matvec=matvec, dtype=float)
    start = np.random.default_rng(0).standard_normal(size)
    return float(eigsh(op, k=1, v0=start, tol=RANK_LANCZOS_TOL,
                       return_eigenvectors=False)[0])


def refined_rank_check(jac, null, factor, rank_tol: float = 1e-8) -> float:
    """The rank check's verdict from `refined_sigma_min`, sigma_max by a
    dense SVD when the norm bound leaves it open: raises
    RankDeficientError, else returns sigma_min."""
    sigma_min, scale = refined_sigma_min(jac, null, factor)
    if sigma_min < rank_tol * scale:
        threshold = rank_tol * max(svdvals(dense_jacobian(jac))[0], 1.0)
        if sigma_min < threshold:
            raise RankDeficientError(
                f"smallest singular value {sigma_min:.3e} below "
                f"{threshold:.3e}")
    return sigma_min


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


def bordered_auxiliary(g, a: np.ndarray, rhs: np.ndarray) -> tuple:
    """(v, mu) with G v + mu a = rhs and a.v = 0, by dense LU of the
    bordered matrix [[G, a], [a^T, 0]]; singular raises LinAlgError."""
    g, n = np.asarray(g, dtype=float), a.size
    mat = np.block([[g, a[:, None]], [a, 0.0]])
    x = np.linalg.solve(mat, np.append(rhs, 0.0))
    return x[:n], x[n]


def squared_auxiliary(g, a: np.ndarray, rhs: np.ndarray) -> tuple:
    """(vbar, v) of the squared formulation: (G^2 + a a^T) vbar = rhs and
    v = G vbar, by dense LU.  The level-3 system keeps vbar; for
    symmetric G with G a = 0, v solves the bordered equation too."""
    g = np.asarray(g, dtype=float)
    vbar = np.linalg.solve(g @ g + np.outer(a, a), rhs)
    return vbar, g @ vbar


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
    core = sp.vstack([block, sp.csr_matrix(jac.rows)])
    left = np.zeros(jac.shape[0])
    left[2 * n : 3 * n] = jac.a
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


def superlu_tangent(jac, previous=None, metric=None) -> np.ndarray:
    """Null vector of a level-1/2 BlockJacobian, unit in the diagonal
    metric M (None the identity), from the SuperLU solve of the
    assembled [J; row^T] s = e_last, row M times the previous tangent or
    the last unit vector, oriented along row."""
    rhs = np.zeros(jac.shape[1])
    rhs[-1] = 1.0
    weights = np.ones(jac.shape[1]) if metric is None else metric
    row = rhs if previous is None else weights * previous
    try:
        sol = superlu_solve(assembled_jacobian(jac, row), rhs)
    except SingularJacobianError as exc:
        raise RankDeficientError(str(exc)) from exc
    t = sol / np.sqrt(sol @ (weights * sol))
    return -t if row @ t < 0.0 else t


# ---------------------------------------------------------------------------
# the sign of det G_u from a tangent's factor, and its dense oracle


def tangent_factor(gu, seed: int = 0, problem=None):
    """The BorderedFactor that `tangent` makes for J = [G_u, g], g and the
    bordering row seeded standard normal draws.  With a Problem, G_u is
    on its grid, gathered in the grid's order; without, J is a
    SolutionJacobian of no grid, gathered in the identity order."""
    gu = sp.csr_matrix(gu)
    n = gu.shape[0]
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, 1))
    jac = SolutionJacobian(gu, g, problem)
    return tangent(jac, rng.standard_normal(n + 1))[1]


def tangent_signature(gu, seed: int = 0, problem=None) -> int:
    """`solution_signature` of J = [G_u, g] at k = n: the sign of det G_u."""
    return solution_signature(tangent_factor(gu, seed, problem), gu.shape[0])


# ---------------------------------------------------------------------------
# G_u built whole and the nested-dissection order (oracles for
# `Problem.gu` and for the minimum-degree order of every grid factor)


def residual(u: np.ndarray, lam, nl, lap) -> np.ndarray:
    """G(u, lam) = L u + f(u, lam) componentwise."""
    u = np.asarray(u, dtype=float)
    if u.shape != (lap.shape[0],):
        raise ValueError(f"expected {lap.shape[0]} unknowns, got {u.shape}")
    return lap @ u + nl.derivative(0, u, lam)[0]


def poisson_jacobian(u: np.ndarray, lam, nl, lap) -> sp.csr_matrix:
    """G_u = L + diag(f_u(u, lam)), the sum of two sparse matrices;
    symmetric."""
    u = np.asarray(u, dtype=float)
    return (lap + sp.diags(nl.derivative(1, u, lam)[1])).tocsr()


def nested_dissection(grid) -> np.ndarray:
    """Grid points in nested-dissection order (George, SIAM J. Numer.
    Anal. 10, 1973): a box of more than 8 points is cut across its
    longer side by a line of points, its halves are ordered first, the
    same way, then the line; the stencil fills O(n log n) in O(n^1.5)."""

    def dissect(box):  # box[y, x] is the flattened index x + nx y
        if box.size <= 8:
            return [box.ravel()]
        if box.shape[1] >= box.shape[0]:
            mid = box.shape[1] // 2
            low, line, high = box[:, :mid], box[:, mid], box[:, mid + 1:]
        else:
            mid = box.shape[0] // 2
            low, line, high = box[:mid], box[mid], box[mid + 1:]
        return dissect(low) + dissect(high) + [line]

    return np.concatenate(dissect(
        np.arange(grid.size).reshape(grid.ny, grid.nx)))


# ---------------------------------------------------------------------------
# the bordered matrix built and permuted whole (oracle for the gather)


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


def euler_step(problem, point, ds, other=None):
    """`continuation.step` with its corrector started from the Euler
    point z + ds t, other unused: the same hyperplane, anchor and row M
    t, so the same accepted point up to the Newton tolerance."""
    t = point.tangent
    row = t if problem.metric is None else problem.metric * t
    anchor = point.z + ds * t
    return _pinned_point(problem, anchor, anchor, row, t, point.s + ds)


# ---------------------------------------------------------------------------
# the discrete functional's dense derivative tensors (oracle for the
# grid's sparse Linearization and its monitors)


def grid_tensor_oracle(u: np.ndarray, lam, nl, lap) -> TensorOracle:
    """Dense TensorOracle of S(u + x, lam) at a small grid state: T1 = G,
    T2 = G_u and, for k = 3..5, T_k the diagonal tensor of f^(k-1)."""
    u, n = np.asarray(u, dtype=float), lap.shape[0]
    f = nl.derivative(4, u, lam)
    tensors = [residual(u, lam, nl, lap),
               poisson_jacobian(u, lam, nl, lap).toarray()]
    for k in range(3, 6):
        t = np.zeros((n,) * k)
        t[(np.arange(n),) * k] = f[k - 1]
        tensors.append(t)
    return TensorOracle(tensors)


def grid_monitor(state, n: int) -> float:
    """The grid monitor r^n at state from a fresh Linearization."""
    return monitor_value(Linearization(state, n - 1), n)


def fresh_monitors(state) -> dict:
    """The monitors of a located point, evaluated apart from the hunt: a
    fresh Linearization to f (f' at level 3), F'' from one
    `solve_v` on it, then `monitor_value` of each order.  Cusp and
    swallowtail, and butterfly at level 3."""
    lin = Linearization(state, 4 if state.level == 3 else 3)
    jet = [solve_v(state, lin)]
    monitors = {"cusp": monitor_value(lin, 3),
                "swallowtail": monitor_value(lin, 4, jet)}
    if state.level == 3:
        monitors["butterfly"] = monitor_value(lin, 5, jet)
    return monitors


def grid_function_from_matrix(matrix: np.ndarray, grid):
    """The GridFunction of an (nx, ny) matrix of nodal values, flattened
    column by column."""
    return GridFunction(np.asarray(matrix, dtype=float).flatten(order="F"),
                        grid)


# ---------------------------------------------------------------------------
# grid matrices by sparse arithmetic, the exp-sine jets with one trig call
# per order and the block capacitance solved in all its columns (oracles
# for the direct CSR builds, the shared sine cycle and the skipped solves)


def kronecker_laplacian(grid) -> sp.csr_matrix:
    """The five-point Laplacian as the Kronecker sum I (x) D_xx + D_yy (x)
    I of the 1-d second differences, its explicit zeros dropped."""

    def second_difference(n: int, h: float) -> sp.csr_matrix:
        main = np.full(n, -2.0)
        off = np.ones(n - 1)
        return sp.diags([off, main, off], [-1, 0, 1]) / h**2

    lap = (sp.kron(sp.identity(grid.ny), second_difference(grid.nx, grid.dx))
           + sp.kron(second_difference(grid.ny, grid.dy),
                     sp.identity(grid.nx))).tocsr()
    lap.eliminate_zeros()
    return lap


def level3_product_block(lin, vbar: np.ndarray,
                         a: np.ndarray) -> sp.csr_matrix:
    """The level-3 block p = G_u diag(c) + diag(d) of lin's G_u and jet,
    c = f_uu vbar and d = f_uu v + f_uuu a^2 with v = G_u vbar, by a
    sparse product and a sparse sum, which drop the zeros they make."""
    gu, f2, f3 = lin.gu, lin.f[2], lin.f[3]
    return (gu @ sp.diags(f2 * vbar)
            + sp.diags(f2 * (gu @ vbar) + f3 * a**2)).tocsr()


def sin_derivative(k: int, x):
    """k-th derivative of sin at x, one trig call: sin, cos, -sin, ..."""
    value = [np.sin, np.cos][k % 2](x)
    return -value if k % 4 >= 2 else value


def exp_sine_derivative(nl, top: int, t, lam) -> np.ndarray:
    """`ExpSineNonlinearity.derivative` with sin^(k) taken anew per k."""
    t, ek = nl._exp_stack(t, lam, top)
    lam1, _, lam3 = lam
    return np.stack([lam1 * ek[k] + lam3 * lam1**k * sin_derivative(
        k, lam1 * t) for k in range(top + 1)])


def exp_sine_lambda_derivative(nl, top: int, t, lam) -> np.ndarray:
    """`ExpSineNonlinearity.lambda_derivative` with sin^(k) and
    sin^(k+1) taken anew per k."""
    t, ek = nl._exp_stack(t, lam, top + 1)
    lam1, _, lam3 = lam
    jet = []
    for k in range(top + 1):
        sin_k = sin_derivative(k, lam1 * t)
        d1 = ek[k] + lam3 * (lam1**k * t * sin_derivative(k + 1, lam1 * t)
                             + k * lam1 ** max(k - 1, 0) * sin_k)
        d2 = -lam1 * (t**2 * ek[k + 1] + 2 * k * t * ek[k]
                      + k * (k - 1) * ek[abs(k - 1)])
        jet.append(np.stack(np.broadcast_arrays(d1, d2, lam1**k * sin_k),
                            axis=-1))
    return np.stack(jet)


def all_column_z(factor) -> np.ndarray:
    """A BlockFactor's z = [L^-1 left[:size]; left[size:]] with every
    column of the Woodbury factor `left` forward-solved, the zero ones
    too, and no block of L^-1 taken as known."""
    jac = factor.jac
    n, m = jac.a.size, jac.rows.shape[0]
    size = jac.blocks * n
    k, g = factor.lu.k, factor.lu.g
    low = 2 * jac.blocks - 2
    left = np.zeros((size + m, low + 2 * m))
    left[:n, 0] = left[n : 2 * n, 1] = -k
    if jac.vbar is not None:
        left[2 * n : size, 2:4] = np.column_stack([-g, -k])
    left[:size, low : low + m] = jac.cols
    left[size:, low : low + m] = jac.rows[:, size:] - np.eye(m)
    left[size:, low + m :] = np.eye(m)
    return np.vstack([factor._forward(left[:size]), left[size:]])
