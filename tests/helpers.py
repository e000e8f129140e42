"""Shared test utilities: independent oracles the library must reproduce.

Everything here is deliberately written from first principles (brute
force, finite differences, dense algebra) so it can arbitrate the
library's optimized implementations.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from aseries.classifier import TensorOracle


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
# finite-difference jacobians


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


def dense_newton_step(jac, res: np.ndarray) -> np.ndarray:
    """Newton step of a (possibly bordered) Jacobian by dense LU."""
    return np.linalg.solve(jac.toarray(), res)


def relative_error(found: np.ndarray, expected: np.ndarray) -> float:
    found = np.asarray(found, dtype=float)
    expected = np.asarray(expected, dtype=float)
    scale = max(float(np.max(np.abs(expected))), 1.0)
    return float(np.max(np.abs(found - expected))) / scale
