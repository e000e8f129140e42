"""Generic finite-dimensional classifier for A-series singularities.

Works on a critical point of a smooth functional S through a
`DerivativeOracle` supplying the symmetric multilinear forms
S^(k) = D^(k)S(0).  The detection loop mirrors the reduction of S to a
one-variable function r(s) = S(s*alpha + F(s)) on the kernel of the
Hessian: the jet of the implicitly defined map F is recovered order by
order from Bell-polynomial contraction identities, and the derivatives
r^(n)(0) serve as test values.  r^(k)(0) = 0 for 3 <= k <= n together
with r^(n+1)(0) != 0 identifies a singularity of type A_n.

`test_value` and `jet_rhs` need only contractions, so they run on any
oracle; they are the grid's monitors too, on the sparse
`augmented.Linearization`.  `solve_jet_step`, `kernel_of_hessian` and
`detect` read the oracle's dense Hessian, so they need a
`TensorOracle`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from .bell import enumerate_multi_indices, multi_index_coefficient


class ClassifierError(RuntimeError):
    pass


class SolvabilityError(ClassifierError):
    """Right-hand side of an auxiliary linear solve has a kernel component."""


class SingularSystemError(ClassifierError):
    """Restricted Hessian solve failed; kernel dimension is likely > 1."""


class InsufficientJetError(ClassifierError):
    """A test value was requested beyond the supplied jet of F."""


class DerivativeOracle(Protocol):
    """Interface: symmetric multilinear forms of a functional at 0.

    An oracle has a `dimension` and a highest order `max_order`.
    `contract(k, v_1, ..., v_k)` is the k-th form on k vectors,
    `contract_free(k, v_1, ..., v_{k-1})` the vector of contractions
    with one slot left open, and `hessian()` the dense symmetric second
    form.  `TensorOracle` implements all of it densely.  The grid's
    `augmented.Linearization` implements `contract` and `contract_free`
    from order 2, sparse, but no `hessian`: `test_value` and `jet_rhs`
    run on it, and its jet vectors solve with its bordered factor.  The
    protocol holds no code of its own.
    """

    dimension: int
    max_order: int

    def contract(self, k: int, *vectors) -> float: ...

    def contract_free(self, k: int, *vectors) -> np.ndarray: ...

    def hessian(self) -> np.ndarray: ...


class TensorOracle:
    """Oracle backed by dense symmetric tensors T_k of shape (m,)*k.

    `tensors[k-1]` holds D^(k)S(0); a leading scalar for k=0 is not
    stored (S(0)=0 is assumed throughout).
    """

    def __init__(self, tensors):
        self.tensors = [np.asarray(t, dtype=float) for t in tensors]
        if not self.tensors:
            raise ValueError("need at least the gradient tensor")
        self.dimension = self.tensors[0].shape[0]
        self.max_order = len(self.tensors)
        for k, t in enumerate(self.tensors, start=1):
            if t.shape != (self.dimension,) * k:
                raise ValueError(f"tensor {k} has shape {t.shape}")

    def contract(self, k: int, *vectors) -> float:
        if k < 1 or k > self.max_order:
            raise ValueError(f"order {k} outside 1..{self.max_order}")
        if len(vectors) != k:
            raise ValueError(f"contract({k}) needs {k} vectors")
        t = self.tensors[k - 1]
        for v in vectors:
            t = t @ np.asarray(v, dtype=float)
        return float(t)

    def contract_free(self, k: int, *vectors) -> np.ndarray:
        if len(vectors) != k - 1:
            raise ValueError(f"contract_free({k}) needs {k - 1} vectors")
        t = self.tensors[k - 1]
        for v in vectors:
            t = t @ np.asarray(v, dtype=float)
        return np.asarray(t, dtype=float)

    def hessian(self) -> np.ndarray:
        if self.max_order < 2:
            raise ValueError("oracle has no second-order tensor")
        h = self.tensors[1]
        return 0.5 * (h + h.T)


@dataclass
class Tolerances:
    """Numerical thresholds of the detection algorithm."""

    gradient: float = 1e-8     # ||S^(1)||_inf above this: not a critical point
    kernel_ratio: float = 1e-6  # singular-value ratio for the kernel test
    zero_test: float = 1e-8    # |r^(n)(0)| threshold, scaled by ||alpha||**n
    solvability: float = 1e-8  # kernel component allowed in auxiliary solves


@dataclass
class SingularityReport:
    # not-critical | not-A-series | A<n> | undetermined
    kind: str
    order: int | None = None   # n of A_n when kind is A<n>
    test_values: list = field(default_factory=list)
    signature: int | None = None
    kernel_dim: int | None = None
    alpha: np.ndarray | None = None
    jet: list = field(default_factory=list)


@dataclass
class ClosedFormTests:
    cusp: float
    v: np.ndarray | None = None
    swallowtail: float | None = None
    w: np.ndarray | None = None
    butterfly: float | None = None


def kernel_of_hessian(oracle: DerivativeOracle, tol_ratio: float = 1e-6):
    """Kernel dimension of the Hessian and, if it is one, a unit basis vector.

    The dimension counts singular values below tol_ratio times the
    largest one (an all-zero Hessian has full-dimensional kernel).
    """
    h = oracle.hessian()
    u, s, _ = np.linalg.svd(h)
    if s[0] == 0.0:
        return h.shape[0], None
    dim = int(np.sum(s <= tol_ratio * s[0]))
    if dim != 1:
        return dim, None
    alpha = u[:, -1]
    return 1, alpha


def _derivative_table(alpha, jet, top: int):
    """Vectors d^l/ds^l (s*alpha + F(s)) at 0 for l = 1..top.

    None marks an unknown entry.
    """
    table: list[np.ndarray | None] = [None] * (top + 1)
    table[1] = np.asarray(alpha, dtype=float)
    for l in range(2, top + 1):
        if l - 2 < len(jet):
            table[l] = np.asarray(jet[l - 2], dtype=float)
    return table


def _solve_restricted(hessian: np.ndarray, alpha: np.ndarray, rhs: np.ndarray):
    """Solve S^(2)(x, xi) = rhs . xi for all xi orthogonal to alpha, x ⟂ alpha.

    One dense solve of the bordered system [[H, alpha], [alpha^T, 0]]
    [x; mu] = [rhs; 0]: H x + mu alpha = rhs with alpha . x = 0, mu
    taking up the alpha component of rhs.
    """
    m = hessian.shape[0]
    a = np.asarray(alpha, dtype=float)
    mat = np.block([[hessian, a[:, None]], [a, 0.0]])
    try:
        x = np.linalg.solve(mat, np.append(rhs, 0.0))[:m]
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(
            "bordered Hessian system is singular") from exc
    # consistency: H x - rhs must vanish off alpha, else the kernel is larger
    resid = hessian @ x - rhs
    a_unit = a / np.linalg.norm(a)
    resid = resid - a_unit * (a_unit @ resid)
    scale = max(np.linalg.norm(rhs), np.linalg.norm(hessian, ord=np.inf), 1.0)
    if np.linalg.norm(resid) > 1e-6 * scale * m:
        raise SingularSystemError("restricted Hessian solve did not close")
    return x


def jet_rhs(oracle: DerivativeOracle, alpha, jet, n: int) -> np.ndarray:
    """Right-hand side b of the order-(n-2) contraction identity.

    For every xi orthogonal to alpha,

        0 = sum_{k=1}^{m} sum_{j in J(m,k)} m!/j! *
            S^(k+1)(xi (x) args(j)),   m = n - 2,

    with args drawn from alpha (l=1) and F^(l)(0) (l >= 2); the unknown
    F^(m)(0) enters only through S^(2)(xi, F^(m)).  Moved to the left,
    it reads S^(2)(F^(m), xi) = b . xi on the complement of alpha: F^(m)
    solves H x + mu alpha = b with alpha . x = 0.
    """
    if n < 4:
        raise ValueError("jet recursion starts at n=4")
    m = n - 2
    if len(jet) < m - 2:
        raise InsufficientJetError(f"need F'' .. F^({m - 1}) for n={n}")
    table = _derivative_table(alpha, jet, m)
    rhs = np.zeros(oracle.dimension)
    for k in range(1, m + 1):
        for index in enumerate_multi_indices(m, k):
            entries = index.entries
            if len(entries) >= m and entries[m - 1] == 1:
                continue  # the unknown F^(m) term, moved to the left-hand side
            args = []
            for l, count in enumerate(entries, start=1):
                args.extend([table[l]] * count)
            rhs += multi_index_coefficient(index) * oracle.contract_free(
                k + 1, *args)
    return -rhs


def solve_jet_step(oracle: DerivativeOracle, alpha, jet, n: int) -> np.ndarray:
    """Next jet vector F^(n-2)(0): `jet_rhs` solved on the complement of
    alpha by one dense bordered solve of the oracle's Hessian."""
    return _solve_restricted(oracle.hessian(), alpha,
                             jet_rhs(oracle, alpha, jet, n))


def test_value(oracle: DerivativeOracle, alpha, jet, n: int) -> float:
    """Bell-contraction value r^(n)(0) of the reduced function.

    The jet must supply F''(0) .. F^(n-2)(0).  The terms of the two
    highest slots (orders n-1 and n) are skipped: they feed
    S^(2)(alpha, .) and S^(1), which vanish at a critical point with
    alpha in the Hessian kernel.
    """
    if n < 3:
        raise ValueError("test values start at n=3")
    if len(jet) < n - 3:
        raise InsufficientJetError(f"need F'' .. F^({n - 2}) for n={n}")
    table = _derivative_table(alpha, jet[: max(0, n - 3)], n)
    total = 0.0
    for k in range(1, n + 1):
        for index in enumerate_multi_indices(n, k):
            args = []
            skip = False
            for l, count in enumerate(index.entries, start=1):
                if count == 0:
                    continue
                if table[l] is None:
                    skip = True
                    break
                args.extend([table[l]] * count)
            if skip:
                continue
            total += multi_index_coefficient(index) * oracle.contract(k, *args)
    return total


def closed_form_tests(
    oracle: DerivativeOracle,
    alpha,
    tolerances: Tolerances | None = None,
) -> ClosedFormTests:
    """Cusp/swallowtail/butterfly test values in their simplified forms.

    cusp        = S3(a,a,a)
    v solves      S2(v, xi) = -S3(a, a, xi)        for xi ⟂ a
    swallowtail = S4(a,a,a,a) - 3 S2(v,v)
    w solves      S2(w, xi) = -S4(a,a,a,xi) - 3 S3(a,v,xi)
    butterfly   = S5(a^5) - 15 S3(a,v,v) + 10 S3(a,a,w)

    Evaluation stops after the first test value that is nonzero at the
    working tolerance (deeper auxiliary equations are then unsolvable:
    the kernel component of each right-hand side equals the previous
    test value up to sign).  No pipeline path calls it: it is kept as
    the acceptance tests' independent reference for the Bell-recursion
    values, on the grid (criterion 9) and on tensors.
    """
    tol = tolerances or Tolerances()
    alpha = np.asarray(alpha, dtype=float)
    anorm = np.linalg.norm(alpha)
    cusp = oracle.contract(3, alpha, alpha, alpha)
    result = ClosedFormTests(cusp=cusp)
    if abs(cusp) > tol.zero_test * anorm**3:
        return result
    hess = oracle.hessian()
    a_unit = alpha / anorm

    b3 = oracle.contract_free(3, alpha, alpha)
    _check_solvable(b3, a_unit, tol.solvability)
    v = _solve_restricted(hess, alpha, -b3)  # S2(v, xi) = -b3 . xi
    result.v = v
    result.swallowtail = oracle.contract(
        4, alpha, alpha, alpha, alpha) - 3.0 * float(v @ (hess @ v))
    if abs(result.swallowtail) > tol.zero_test * anorm**4:
        return result

    bw = (oracle.contract_free(4, alpha, alpha, alpha)
          + 3.0 * oracle.contract_free(3, alpha, v))
    _check_solvable(bw, a_unit, tol.solvability)
    w = _solve_restricted(hess, alpha, -bw)  # S2(w, xi) = -bw . xi
    result.w = w
    result.butterfly = (
        oracle.contract(5, alpha, alpha, alpha, alpha, alpha)
        - 15.0 * oracle.contract(3, alpha, v, v)
        + 10.0 * oracle.contract(3, alpha, alpha, w)
    )
    return result


def _check_solvable(rhs: np.ndarray, a_unit: np.ndarray, tol: float) -> None:
    scale = max(float(np.linalg.norm(rhs)), 1.0)
    if abs(float(a_unit @ rhs)) > tol * scale * 100.0:
        raise SolvabilityError("right-hand side has a kernel component")


def detect(oracle: DerivativeOracle,
           max_order: int = 6) -> SingularityReport:
    """Run the full detection algorithm up to r^(max_order)(0).

    Returns A_(n-1) when the first nonvanishing test value is r^(n)(0);
    for even n its sign is recorded as the signature (positive type
    if positive).  Odd-order final values flip sign with alpha -> -alpha,
    so no signature is assigned.
    """
    tol = Tolerances()
    if max_order > oracle.max_order:
        raise ValueError(
            f"max_order {max_order} exceeds oracle order {oracle.max_order}"
        )
    gradient = oracle.contract_free(1)
    if np.linalg.norm(gradient, ord=np.inf) > tol.gradient:
        return SingularityReport(kind="not-critical", order=None)

    dim, alpha = kernel_of_hessian(oracle, tol.kernel_ratio)
    if dim != 1:
        return SingularityReport(kind="not-A-series", kernel_dim=dim)

    anorm = np.linalg.norm(alpha)
    values: list[float] = []
    jet: list[np.ndarray] = []
    for n in range(3, max_order + 1):
        if n > 3:
            jet.append(solve_jet_step(oracle, alpha, jet, n))
        rn = test_value(oracle, alpha, jet, n)
        values.append(rn)
        if abs(rn) > tol.zero_test * anorm**n:
            signature = None
            if n % 2 == 0:
                signature = 1 if rn > 0 else -1
            return SingularityReport(
                kind=f"A{n - 1}",
                order=n - 1,
                test_values=values,
                signature=signature,
                kernel_dim=1,
                alpha=alpha,
                jet=jet,
            )
    return SingularityReport(
        kind="undetermined",
        test_values=values,
        kernel_dim=1,
        alpha=alpha,
        jet=jet,
    )
