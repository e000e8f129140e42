"""Spans around the module-level names that each aseries layer calls through.

The tracer edits nothing in the package: it swaps module (or class)
attributes for pass-through wrappers while a traced sample runs and puts
the originals back afterwards.  A wrapper forwards ``*args/**kwargs``
unchanged and re-raises whatever the wrapped call raises, so a later
change of signature does not break it.  A target name that no longer
exists is reported as absent rather than dropped.

Spans (name, start, end, parent span, run id) are kept in memory and
written out once, when the benchmark ends.  A layer's self time is its
span time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

_MISSING = object()


def _shape_mb(args, kwargs):
    """Size in MB of the dense matrix handed to the SVD, from its shape."""
    shape = getattr(args[0] if args else kwargs.get("a"), "shape", ())
    return {"dense_mb": shape[0] * shape[1] * 8 / 1e6} if len(shape) == 2 else {}


def _fill(args, kwargs, result):
    return {"fill_nnz": int(result.L.nnz + result.U.nnz)}


def _iters(args, kwargs, result):
    return {"iters": int(result[1])}


def _iters_on_error(exc):
    return {"iters": int(getattr(exc, "iterations", 0) or 0)}


def _jac_nnz(args, kwargs, result):
    return {"jac_nnz": int(result[1].nnz)}


def _approximate(args, kwargs, result):
    return {"approximate": int(bool(result.approximate))}


def _stage_timings(args, kwargs, result):
    return {"timings": {k: float(v) for k, v in result.timings.items()}}


#: (module, attribute path, span name, result hook, error hook).  A span
#: name may appear under several targets when one layer function is
#: imported into several modules; each module's name is wrapped.
SPANS = (
    ("aseries.poisson", "ExpSineNonlinearity.derivative",
     "poisson.derivative", None, None),
    ("aseries.poisson", "ExpSineNonlinearity.lambda_derivative",
     "poisson.lambda_derivative", None, None),
    ("aseries.poisson", "bell_value", "bell.bell_value", None, None),
    ("aseries.augmented", "solution_residual_jacobian",
     "augmented.assemble.L0", None, None),
    ("aseries.augmented", "f1_residual_jacobian",
     "augmented.assemble.L1", None, None),
    ("aseries.augmented", "f2_residual_jacobian",
     "augmented.assemble.L2", None, None),
    ("aseries.augmented", "f3_residual_jacobian",
     "augmented.assemble.L3", _jac_nnz, None),
    ("aseries.augmented", "solve_v", "augmented.solve_v", None, None),
    ("aseries.continuation", "solve_v", "augmented.solve_v", None, None),
    ("aseries.continuation", "solution_signature", "augmented.signature",
     None, None),
    ("aseries.augmented", "splu", "augmented.factor", _fill, None),
    ("aseries.continuation", "newton_solve", "continuation.newton",
     _iters, _iters_on_error),
    ("aseries.harness", "newton_solve", "continuation.newton",
     _iters, _iters_on_error),
    ("aseries.continuation", "splu", "continuation.factor", _fill, None),
    ("aseries.continuation", "_check_rank", "continuation.rank_check",
     None, None),
    ("aseries.continuation", "tangent", "continuation.tangent", None, None),
    ("aseries.continuation", "step", "continuation.step", None, None),
    ("aseries.continuation", "_refine_event", "continuation.refine",
     _approximate, None),
    ("aseries.harness", "locate", "harness.locate", _iters, None),
    ("aseries.harness", "refine_on_grid", "harness.refine_on_grid",
     None, None),
    ("aseries.harness", "hunt_swallowtail", "harness.hunt",
     _stage_timings, None),
    ("aseries.cli", "main", "cli.main", None, None),
)

#: Call counters without a span: their time stays in the caller's self
#: time.  (module, attribute path, counter name, argument hook).
COUNTERS = (
    ("aseries.bell", "bell_monomials", "bell.bell_monomials", None),
    ("aseries.augmented", "ldl", "augmented.signature.dense_fallback", None),
    ("aseries.continuation", "svdvals", "continuation.rank_check.svd",
     _shape_mb),
)

#: Package modules, in pipeline order; `classifier` is on no pipeline path.
LAYERS = ("poisson", "bell", "augmented", "continuation", "harness", "cli")


def _resolve(module_name: str, path: str):
    """(owner, attribute, current value) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, _MISSING)
    if value is _MISSING or not callable(value):
        return None
    return owner, attr, value


class Tracer:
    """In-memory spans and counters for the samples of one benchmark run."""

    def __init__(self):
        self.spans: list = []      # [name, start, end, parent, run, failed, info]
        self.counts: list = []     # (name, run, parent span, info)
        self.absent: dict = {}     # target -> reason
        self.run = 0
        self._stack: list = []
        self._saved: list = []

    # -- wrappers -----------------------------------------------------

    def _span(self, name, fn, on_result, on_error):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, self.run, False, None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[2] = time.perf_counter()
                record[5] = True
                if on_error is not None:
                    record[6] = on_error(exc)
                raise
            finally:
                stack.pop()
            record[2] = time.perf_counter()
            if on_result is not None:
                record[6] = on_result(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn, on_args):
        counts, stack = self.counts, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = on_args(args, kwargs) if on_args is not None else None
            counts.append((name, self.run, stack[-1] if stack else -1, info))
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------

    def install(self) -> None:
        """Swap every target for its wrapper; remember the originals."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        targets = [(m, p, n, self._span, (r, e)) for m, p, n, r, e in SPANS]
        targets += [(m, p, n, self._counter, (a,)) for m, p, n, a in COUNTERS]
        for module_name, path, name, make, hooks in targets:
            found = _resolve(module_name, path)
            if found is None:
                self.absent[f"{module_name}.{path}"] = (
                    f"{module_name}.{path} does not exist (span {name})")
                continue
            owner, attr, value = found
            raw = vars(owner).get(attr, _MISSING)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, make(name, value, *hooks))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)
        self._saved.clear()

    def absent_spans(self) -> set:
        """Span and counter names whose every target is missing."""
        names = defaultdict(list)
        for module_name, path, name, *_ in SPANS + COUNTERS:
            names[name].append(f"{module_name}.{path}" in self.absent)
        return {name for name, gone in names.items() if all(gone)}

    # -- output -------------------------------------------------------

    def write(self, path) -> None:
        """All spans and counter hits as JSON lines."""
        with open(path, "w") as fh:
            for index, (name, start, end, parent, run, failed, info) in \
                    enumerate(self.spans):
                fh.write(json.dumps({"id": index, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "run": run,
                                     "failed": failed, "info": info}) + "\n")
            for name, run, parent, info in self.counts:
                fh.write(json.dumps({"count": name, "parent": parent,
                                     "run": run, "info": info}) + "\n")


def aggregate(tracer: Tracer, run: int) -> dict:
    """Per span name: calls, self_s, failed, infos and parent names of one run.

    Counter names appear with calls and infos only.
    """
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s[4] == run]
    covered = defaultdict(float)
    for _, (_, start, end, parent, _, _, _) in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "failed": 0,
                                     "infos": [], "parents": []})
    for index, (name, start, end, parent, _, failed, info) in spans:
        row = out[name]
        row["calls"] += 1
        row["self_s"] += (end - start) - covered[index]
        row["failed"] += int(failed)
        row["parents"].append(tracer.spans[parent][0] if parent >= 0 else None)
        if info:
            row["infos"].append(info)
    for name, r, _, info in tracer.counts:
        if r != run:
            continue
        row = out[name]
        row["calls"] += 1
        if info:
            row["infos"].append(info)
    return dict(out)


_EMPTY = {"calls": 0, "self_s": 0.0, "failed": 0, "infos": [], "parents": []}


def layer_metrics(agg: dict) -> dict:
    """Named per-layer metrics of one traced run: name -> (value, unit, span).

    A value is None where the metric is undefined (a ratio of no calls).
    """
    def row(name):
        return agg.get(name, _EMPTY)

    def info_max(name, key):
        return max((i.get(key, 0) for i in row(name)["infos"]), default=0)

    def info_sum(name, key):
        return sum(i.get(key, 0) for i in row(name)["infos"])

    out = {}

    def put(metric, value, unit, span):
        out[metric] = (value, unit, span)

    timed = ("poisson.derivative", "poisson.lambda_derivative",
             "bell.bell_value", "augmented.assemble.L0",
             "augmented.assemble.L1", "augmented.assemble.L2",
             "augmented.assemble.L3", "augmented.solve_v",
             "augmented.signature", "augmented.factor",
             "continuation.factor", "continuation.rank_check",
             "continuation.tangent", "continuation.refine",
             "harness.locate", "harness.refine_on_grid", "cli.main")
    for name in timed:
        put(f"{name}.calls", row(name)["calls"], "count", name)
        put(f"{name}.self_s", row(name)["self_s"], "s", name)
    for name in timed + ("continuation.newton", "continuation.step"):
        put(f"{name}.failed", row(name)["failed"], "count", name)

    put("bell.bell_monomials.calls", row("bell.bell_monomials")["calls"],
        "count", "bell.bell_monomials")
    put("augmented.jac_nnz.L3", info_max("augmented.assemble.L3", "jac_nnz"),
        "count", "augmented.assemble.L3")
    put("augmented.signature.dense_fallbacks",
        row("augmented.signature.dense_fallback")["calls"], "count",
        "augmented.signature.dense_fallback")
    put("continuation.newton.calls", row("continuation.newton")["calls"],
        "count", "continuation.newton")
    put("continuation.newton.iters", info_sum("continuation.newton", "iters"),
        "count", "continuation.newton")
    put("continuation.factor.fill_nnz",
        info_max("continuation.factor", "fill_nnz"), "count",
        "continuation.factor")
    put("continuation.rank_check.dense_mb",
        info_max("continuation.rank_check.svd", "dense_mb"), "MB",
        "continuation.rank_check.svd")
    steps = row("continuation.step")
    put("continuation.step.calls", steps["calls"], "count",
        "continuation.step")
    put("continuation.step.accept_ratio",
        (steps["calls"] - steps["failed"]) / steps["calls"]
        if steps["calls"] else None, "ratio", "continuation.step")
    put("continuation.refine.trials",
        sum(p == "continuation.refine" for p in steps["parents"]), "count",
        "continuation.step")
    put("continuation.refine.approximate",
        info_sum("continuation.refine", "approximate"), "count",
        "continuation.refine")
    put("harness.locate.iters", info_sum("harness.locate", "iters"), "count",
        "harness.locate")
    for stage in ("solution", "fold", "cusp", "swallowtail"):
        total = sum(i["timings"].get(stage, 0.0)
                    for i in row("harness.hunt")["infos"])
        put(f"harness.stage.{stage}_s", total, "s", "harness.hunt")
    for layer in LAYERS:
        total = sum(r["self_s"] for name, r in agg.items()
                    if name.startswith(layer + "."))
        put(f"layer.{layer}.self_s", total, "s", None)
    return out
