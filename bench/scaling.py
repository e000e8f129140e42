"""Layer cost against grid size N, with a log-log slope per layer.

Each layer is timed on its own, outside any workload, at N = 15, 30, 45
and 60 (n = N^2 unknowns per grid function).  The slope is d log(cost) /
d log(n), fitted by least squares over the sizes measured.  Before each
size the cost there is predicted from the sizes already measured; when
the prediction exceeds a cap the size is marked `skipped` with the
prediction, and so is every larger size.

The inputs are a smooth synthetic state built from the first Laplacian
eigenvector at the swallowtail's parameter values, so that every
workload's traced run reports the same table.
"""

from __future__ import annotations

import math
import statistics
import time
import types

import numpy as np

from aseries import augmented, continuation
from aseries.poisson import ExpSineNonlinearity, Grid, laplacian_eigenvector

SIZES = (15, 30, 45, 60)
#: One call of a layer may take at most this long (predicted, seconds).
TIME_CAP_S = 4.0
#: The level-3 Jacobian may hold at most this many nonzeros (predicted);
#: its assembly briefly needs several times that in bytes.
NNZ_CAP = 4_000_000
#: Repeat a call that takes less than this, and keep the median.
REPEAT_BELOW_S = 0.5
LAM_SW = (7.93108547, 0.12313157, 0.63524057)


def _states(n_side: int):
    """Level-1, level-2 (three active) and level-3 states on an N x N grid."""
    grid = Grid(n_side, n_side)
    prob = augmented.Problem(grid, ExpSineNonlinearity())
    phi = laplacian_eigenvector(grid)
    alpha = phi / math.sqrt(grid.cell_area * (phi @ phi))
    u = phi / np.max(np.abs(phi))
    lam = np.array(LAM_SW)
    return {
        1: augmented.AugmentedState(prob, 1, u, lam, alpha=alpha, active=(0,)),
        2: augmented.AugmentedState(prob, 2, u, lam, alpha=alpha,
                                    active=(0, 1, 2)),
        3: augmented.AugmentedState(prob, 3, u, lam, alpha=alpha,
                                    vbar=0.01 * alpha, active=(0, 1, 2)),
    }


def _timed(fn):
    """(median seconds, last result) over one call, or three when cheap."""
    times, result = [], None
    while True:
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
        if times[0] >= REPEAT_BELOW_S or len(times) == 3:
            return statistics.median(times), result


def _rank_check(state):
    _, jac = augmented.residual_jacobian(state)
    probe = types.SimpleNamespace(check_rank=True, rank_tol=1e-8)
    return lambda: continuation._check_rank(probe, jac)


def _factor(state):
    res, jac = augmented.residual_jacobian(state)
    return lambda: continuation._linear_solve(jac, res)


def _slope(points) -> float | None:
    if len(points) < 2:
        return None
    xs = [math.log(n * n) for n, _ in points]
    ys = [math.log(v) for _, v in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def _predict(points, n_side: int) -> float | None:
    """Cost at n_side extrapolated along the last two measured sizes."""
    if len(points) < 2:
        return None
    (n0, v0), (n1, v1) = points[-2:]
    slope = math.log(v1 / v0) / math.log((n1 * n1) / (n0 * n0))
    return v1 * ((n_side * n_side) / (n1 * n1)) ** slope


def scaling_table() -> dict:
    """{layer: {"rows": [...], "slope": float | None}} for the five layers.

    A row is {"N", "n", "seconds"} when measured, or {"N", "n",
    "skipped": reason} with the prediction, or {"N", "n", "error"} when
    the layer raised; `jac_nnz_L3` rows carry "nnz" instead of seconds.
    """
    layers = {
        "assemble_L1": lambda states: (
            lambda: augmented.residual_jacobian(states[1])),
        "assemble_L3": lambda states: (
            lambda: augmented.residual_jacobian(states[3])),
        "factor_L3": lambda states: _factor(states[3]),
        "rank_check": lambda states: _rank_check(states[2]),
    }
    table = {name: {"rows": [], "points": []} for name in layers}
    table["jac_nnz_L3"] = {"rows": [], "points": []}
    stopped: dict = {}
    for n_side in SIZES:
        states = None
        for name, make in layers.items():
            entry = table[name]
            row = {"N": n_side, "n": n_side * n_side}
            predicted = _predict(entry["points"], n_side)
            nnz_pred = (_predict(table["jac_nnz_L3"]["points"], n_side)
                        if name in ("assemble_L3", "factor_L3") else None)
            if name in stopped:
                row["skipped"] = stopped[name]
            elif predicted is not None and predicted > TIME_CAP_S:
                stopped[name] = (f"predicted {predicted:.3g} s at N = "
                                 f"{n_side} > cap {TIME_CAP_S} s")
                row["skipped"] = stopped[name]
            elif nnz_pred is not None and nnz_pred > NNZ_CAP:
                stopped[name] = (f"predicted {nnz_pred:.3g} Jacobian nonzeros "
                                 f"at N = {n_side} > cap {NNZ_CAP}")
                row["skipped"] = stopped[name]
            else:
                if states is None:
                    states = _states(n_side)
                try:
                    seconds, result = _timed(make(states))
                except (continuation.ContinuationError, TypeError,
                        AttributeError, RuntimeError) as exc:
                    row["error"] = f"{type(exc).__name__}: {exc}"
                    stopped[name] = f"error at a smaller N: {row['error']}"
                else:
                    row["seconds"] = seconds
                    entry["points"].append((n_side, seconds))
                    if name == "assemble_L3":
                        nnz = int(result[1].nnz)
                        table["jac_nnz_L3"]["rows"].append(
                            {"N": n_side, "n": n_side * n_side, "nnz": nnz})
                        table["jac_nnz_L3"]["points"].append((n_side, nnz))
            if "skipped" in row and predicted is not None:
                row["predicted_s"] = predicted
            entry["rows"].append(row)
            if name == "assemble_L3" and "seconds" not in row:
                skipped = {"N": n_side, "n": n_side * n_side,
                           "skipped": row.get("skipped", row.get("error"))}
                if nnz_pred is not None:
                    skipped["predicted_nnz"] = nnz_pred
                table["jac_nnz_L3"]["rows"].append(skipped)
    return {name: {"rows": entry["rows"], "slope": _slope(entry["points"])}
            for name, entry in table.items()}
