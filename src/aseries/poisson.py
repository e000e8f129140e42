"""Finite differences for semilinear Poisson problems on the unit square.

Discretizes -u'' style variational problems

    S(u, lam) = 1/2 u^T L u + sum_k fbar(u_k, lam),
    G(u, lam) = L u + f(u, lam)  (componentwise),

with the five-point Laplacian L on an N x M interior grid, zero Dirichlet
boundary kept implicit.  Matrices of nodal values U_{i,j} are flattened
column by column, u_{(j-1)N+i} = U_{i,j}.  Two nonlinearity families are
provided with derivative stacks up to fourth order in u and first order
in the three parameters: an exponential-sine (Bratu-type) family and a
polynomial family whose low-order Taylor coefficients are the parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bell import bell_value

#: Evaluations closer than this to the 1 + lam2*t pole raise PoleError.
POLE_GUARD = 1e-8


class PoleError(ValueError):
    """Argument of the exponential nonlinearity hit its pole."""


@dataclass(frozen=True)
class Grid:
    """Interior points of a uniform mesh on (0,1) x (0,1)."""

    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("need at least one interior point per direction")

    @property
    def dx(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def dy(self) -> float:
        return 1.0 / (self.ny + 1)

    @property
    def size(self) -> int:
        return self.nx * self.ny

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy


@dataclass
class GridFunction:
    """Interior nodal values in the flattened ordering."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise ValueError(
                f"expected {self.grid.size} values, got {self.values.shape}"
            )

    def as_matrix(self) -> np.ndarray:
        """Nodal values as an (nx, ny) matrix."""
        return self.values.reshape((self.grid.nx, self.grid.ny), order="F")


def save_grid_function(path, gf: GridFunction) -> None:
    """Text format: header line `nx ny`, then the flattened values."""
    with open(path, "w") as fh:
        fh.write(f"{gf.grid.nx} {gf.grid.ny}\n")
        for v in gf.values:
            fh.write(f"{v:.17g}\n")


def load_grid_function(path) -> GridFunction:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise ValueError(f"malformed grid-function header in {path}")
        nx, ny = int(header[0]), int(header[1])
        values = np.array([float(line) for line in fh if line.strip()])
    return GridFunction(values, Grid(nx, ny))


def interpolate_to(gf: GridFunction, target: Grid) -> GridFunction:
    """Bilinear transfer onto another grid, zero-padded at the boundary."""
    from scipy.interpolate import RegularGridInterpolator

    grid = gf.grid
    padded = np.zeros((grid.nx + 2, grid.ny + 2))
    padded[1:-1, 1:-1] = gf.as_matrix()
    interp = RegularGridInterpolator(
        (np.linspace(0.0, 1.0, grid.nx + 2),
         np.linspace(0.0, 1.0, grid.ny + 2)),
        padded,
        method="linear",
    )
    xs = np.arange(1, target.nx + 1) * target.dx
    ys = np.arange(1, target.ny + 1) * target.dy
    px, py = np.meshgrid(xs, ys, indexing="ij")
    fine = interp(np.column_stack([px.ravel(order="F"), py.ravel(order="F")]))
    return GridFunction(fine, target)


def build_laplacian(grid: Grid) -> sp.csr_matrix:
    """Five-point Laplacian, written in CSR straight from the grid.

    Row k = j nx + i holds, columns ascending, its neighbours k - nx,
    k - 1, k + 1 and k + nx inside the grid and the diagonal, and no
    other entry: 5 n - 2 nx - 2 ny nonzeros, each stored once.  The
    values are those of the Kronecker sum I (x) D_xx + D_yy (x) I of
    the 1-d second differences: 1/dx^2 and 1/dy^2 off the diagonal,
    -2/dx^2 + -2/dy^2 on it, summed in that order.
    """
    nx, n = grid.nx, grid.size
    k = np.arange(n)
    i = k % nx
    cols = np.column_stack([k - nx, k - 1, k, k + 1, k + nx])
    keep = np.column_stack([k >= nx, i > 0, np.ones(n, dtype=bool),
                            i < nx - 1, k < n - nx])
    values = np.array([1.0 / grid.dy**2, 1.0 / grid.dx**2,
                       -2.0 / grid.dx**2 + -2.0 / grid.dy**2,
                       1.0 / grid.dx**2, 1.0 / grid.dy**2])
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    return sp.csr_matrix(
        (np.broadcast_to(values, cols.shape)[keep], cols[keep], indptr),
        shape=(n, n))


def laplacian_eigenvalue(grid: Grid, p: int = 1, q: int = 1) -> float:
    """Analytic eigenvalue of the discrete Laplacian for mode (p, q).

    Kept beside `laplacian_eigenvector` as its pair: the analytic fold
    lam1 = -eigenvalue that the eigen-fold checks start from.
    """
    if not (1 <= p <= grid.nx and 1 <= q <= grid.ny):
        raise ValueError("mode indices outside the grid")
    sx = math.sin(p * math.pi * grid.dx / 2.0)
    sy = math.sin(q * math.pi * grid.dy / 2.0)
    return -4.0 * sx**2 / grid.dx**2 - 4.0 * sy**2 / grid.dy**2


def laplacian_eigenvector(grid: Grid, p: int = 1, q: int = 1) -> np.ndarray:
    """Flattened product-sine eigenvector for mode (p, q), unnormalized.

    The lowest mode (1, 1) is the kernel vector at which a direct hunt
    starts its fold, and the benchmark's scaling probe builds its states
    from it.
    """
    i = np.arange(1, grid.nx + 1)
    j = np.arange(1, grid.ny + 1)
    wx = np.sin(p * np.pi * i * grid.dx)
    wy = np.sin(q * np.pi * j * grid.dy)
    return np.outer(wx, wy).flatten(order="F")


class Nonlinearity:
    """Scalar nonlinearity f(t, lam) with lam in R^3.

    Both derivative evaluators return the whole jet up to `top`, stacked
    along a new leading axis.  `derivative(top, t, lam)` has shape
    (top + 1,) + t.shape, entry k the k-th t-derivative, for top <= 4;
    `lambda_derivative(top, t, lam)` has shape (top + 1,) + t.shape +
    (3,), entry k the lam-gradient of the k-th t-derivative, for top <=
    3.  Entry k does not depend on top.  `antiderivative` integrates f
    in t from 0 (so it vanishes at t = 0).  All evaluators broadcast
    over array-valued t.
    """

    max_u_order = 4

    def derivative(self, top: int, t, lam) -> np.ndarray:
        raise NotImplementedError

    def lambda_derivative(self, top: int, t, lam) -> np.ndarray:
        raise NotImplementedError

    def antiderivative(self, t, lam) -> np.ndarray:
        raise NotImplementedError


def _sine_cycle(x) -> tuple:
    """sin, cos, -sin, -cos at x: entry k % 4 is the k-th derivative of
    sin, from one sin and one cos."""
    sin, cos = np.sin(x), np.cos(x)
    return sin, cos, -sin, -cos


class ExpSineNonlinearity(Nonlinearity):
    """f(t, lam) = lam1 * exp(t / (lam2 t + 1)) + lam3 * sin(lam1 t).

    t-derivatives of the exponential part follow Faa di Bruno: with
    g = t/(lam2 t + 1), g^(k) = (-1)^(k-1) k! lam2^(k-1) / c^(k+1) and
    c = lam2 t + 1, the k-th derivative e_k of exp(g) is exp(g) times the
    complete Bell polynomial in g', .., g^(k).  As dg/dlam2 = -t^2/c^2 =
    -t^2 g', de_k/dlam2 = -(t^2 e_1)^(k) needs e_(k+1), so k < 4 there.
    The sine part's k-th t-derivative is lam3 lam1^k sin^(k)(lam1 t),
    with sin^(k)(x) = sin(x + k pi/2): each evaluator takes one sin and
    one cos of lam1 t per call and reads the cycle sin, cos, -sin, -cos.
    """

    @staticmethod
    def _pole_checked(t, lam):
        t = np.asarray(t, dtype=float)
        c = lam[1] * t + 1.0
        if np.any(np.abs(c) < POLE_GUARD):
            raise PoleError("lam2 * t + 1 vanished")
        return t, c

    @classmethod
    def _exp_stack(cls, t, lam, top: int):
        """exp(g) and its first `top` t-derivatives."""
        t, c = cls._pole_checked(t, lam)
        e = np.exp(t / c)
        gs = [(-1.0) ** (k - 1) * math.factorial(k) * lam[1] ** (k - 1)
              / c ** (k + 1) for k in range(1, top + 1)]
        return t, [e * bell_value(k, gs[:k]) for k in range(top + 1)]

    def derivative(self, top: int, t, lam):
        if not 0 <= top <= self.max_u_order:
            raise ValueError("t-derivatives available for top = 0..4")
        t, ek = self._exp_stack(t, lam, top)
        lam1, _, lam3 = lam
        sin = _sine_cycle(lam1 * t)
        return np.stack([lam1 * ek[k] + lam3 * lam1**k * sin[k % 4]
                         for k in range(top + 1)])

    def lambda_derivative(self, top: int, t, lam):
        if not 0 <= top < self.max_u_order:
            raise ValueError("lam-derivatives available for top = 0..3")
        t, ek = self._exp_stack(t, lam, top + 1)
        lam1, _, lam3 = lam
        sin = _sine_cycle(lam1 * t)
        jet = []
        for k in range(top + 1):
            sin_k = sin[k % 4]
            # d(lam1^k)/dlam1 is 0 at k = 0; the max keeps lam1 = 0 finite
            d1 = ek[k] + lam3 * (lam1**k * t * sin[(k + 1) % 4]
                                 + k * lam1 ** max(k - 1, 0) * sin_k)
            # k (k - 1) vanishes for k < 2; e_1 stands in for e_-1 at k = 0
            d2 = -lam1 * (t**2 * ek[k + 1] + 2 * k * t * ek[k]
                          + k * (k - 1) * ek[abs(k - 1)])
            jet.append(np.stack(np.broadcast_arrays(d1, d2, lam1**k * sin_k),
                                axis=-1))
        return np.stack(jet)

    def antiderivative(self, t, lam):
        from scipy.integrate import quad

        t_arr = np.asarray(t, dtype=float)
        self._pole_checked(t_arr, lam)
        lam1, lam2, lam3 = lam

        def exp_integral(upper: float) -> float:
            if upper == 0.0:
                return 0.0
            value, _ = quad(lambda s: math.exp(s / (lam2 * s + 1.0)), 0.0,
                            upper, limit=200)
            return value

        exp_part = np.vectorize(exp_integral)(t_arr)
        x = lam1 * t_arr
        # (1 - cos(x))/lam1; series below |x| = 1e-3 avoids cancellation
        sin_part = np.where(
            np.abs(x) < 1e-3,
            lam1 * t_arr**2 / 2.0 - lam1**3 * t_arr**4 / 24.0,
            (1.0 - np.cos(x)) / (lam1 if lam1 != 0.0 else 1.0),
        )
        return lam1 * exp_part + lam3 * sin_part


class PolynomialNonlinearity(Nonlinearity):
    """f(t, lam) = lam1 t + lam2 t^2/2 + lam3 t^3/6 + sum c_l t^l / l!.

    The fixed tail coefficients c_4, c_5, ... are supplied at
    construction; the k-th t-derivative at 0 is lam_k for k <= 3 and c_k
    beyond.  u = 0 solves the discrete problem for every lam.
    """

    def __init__(self, tail=()):
        self.tail = tuple(float(c) for c in tail)

    def _coefficients(self, lam):
        return (0.0, lam[0], lam[1], lam[2]) + self.tail

    def derivative(self, top: int, t, lam):
        if not 0 <= top <= self.max_u_order:
            raise ValueError("t-derivatives available for top = 0..4")
        t = np.asarray(t, dtype=float)
        coeffs = self._coefficients(lam)
        jet = []
        for k in range(top + 1):
            # Horner in t for f^(k) = sum_{l >= k} c_l t^(l-k) / (l-k)!
            total = np.zeros_like(t)
            for l in range(len(coeffs) - 1, k - 1, -1):
                total = coeffs[l] + total * t / (l - k + 1)
            jet.append(total)
        return np.stack(jet)

    def lambda_derivative(self, top: int, t, lam):
        if not 0 <= top < self.max_u_order:
            raise ValueError("lam-derivatives available for top = 0..3")
        t = np.asarray(t, dtype=float)
        jet = []
        for k in range(top + 1):
            # coefficient lam_slot multiplies t^slot/slot!
            rows = [t ** (slot - k) / math.factorial(slot - k) if slot >= k
                    else np.zeros_like(t) for slot in (1, 2, 3)]
            jet.append(np.stack(np.broadcast_arrays(*rows), axis=-1))
        return np.stack(jet)

    def antiderivative(self, t, lam):
        t = np.asarray(t, dtype=float)
        coeffs = self._coefficients(lam)
        total = np.zeros_like(t)
        for l in range(len(coeffs) - 1, 0, -1):
            total = (total + coeffs[l] / math.factorial(l + 1)) * t
        return total * t


def discrete_functional(u: np.ndarray, lam, nl: Nonlinearity, grid: Grid,
                        lap=None) -> float:
    """S(u, lam) = 1/2 u^T L u + sum_k fbar(u_k, lam).

    The paper's functional S itself, kept with the `antiderivative`s it
    sums: G and its Jacobian are checked against its finite differences.
    """
    u = np.asarray(u, dtype=float)
    if lap is None:
        lap = build_laplacian(grid)
    return (0.5 * float(u @ (lap @ u))
            + float(np.sum(nl.antiderivative(u, lam))))
