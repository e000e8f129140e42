"""Command-line front end: branches, hunts, convergence runs, classification.

Configuration is an optional flat key=value text file plus command-line
flags; flags win.  Keys in the file use the flag spellings (with or
without dashes).  All numeric file output uses 17-significant-digit
decimal formatting so runs round-trip bitwise and identical configs
produce identical files.

Exit codes: 0 success, 1 numerical failure, 2 usage or config error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .augmented import (
    AugmentedState,
    Problem,
    SingularAuxiliaryError,
    residual_jacobian,
)
from .classifier import ClassifierError, TensorOracle, detect
from .continuation import (
    MAX_NEWTON,
    NEWTON_TOL,
    ContinuationError,
    augmented_continuation_problem,
    initial_point,
    run_branch,
)
from .harness import (
    STAGES,
    HuntConfig,
    RefinementError,
    convergence_study,
    hunt_swallowtail,
    seed_kernel_vector,
)
from .poisson import (
    ExpSineNonlinearity,
    Grid,
    GridFunction,
    PoleError,
    PolynomialNonlinearity,
    load_grid_function,
    save_grid_function,
)

CSV_COLUMNS = ("step", "s", "lambda1", "lambda2", "lambda3", "norm_u_inf",
               "u_center", "monitor_fold", "monitor_cusp", "monitor_sw",
               "signature", "newton_iters")
LAM_NAMES = {"l1": 0, "l2": 1, "l3": 2}
MONITOR_NAMES = ("cusp", "swallowtail", "butterfly")
NUMERICAL_ERRORS = (ContinuationError, RefinementError,
                    SingularAuxiliaryError, PoleError, ClassifierError,
                    np.linalg.LinAlgError)


class UsageError(Exception):
    """Bad flags, config file, or input file contents (exit code 2)."""


def _g(value) -> str:
    return format(float(value), ".17g")


# ---------------------------------------------------------------- parsing

def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"expected an integer, got {text!r}") from None


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"expected a number, got {text!r}") from None


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"expected true/false, got {text!r}")


def _parse_str(text: str) -> str:
    return text.strip()


def _parse_grid(text: str) -> tuple:
    parts = text.lower().split("x")
    try:
        dims = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"grid must be NxM or N, got {text!r}") from None
    if len(dims) == 1:
        dims = dims * 2
    if len(dims) != 2 or min(dims) < 1:
        raise UsageError(f"grid must be NxM or N with N, M >= 1, got {text!r}")
    return tuple(dims)


def _parse_floats(text: str) -> tuple:
    items = [p for p in text.split(",") if p.strip()]
    return tuple(_parse_float(p) for p in items)


def _parse_triple(text: str) -> tuple:
    values = _parse_floats(text)
    if len(values) != 3:
        raise UsageError(
            f"expected three comma-separated values, got {text!r}")
    return values


def _parse_active(text: str) -> tuple:
    items = [p.strip().lower() for p in text.split(",") if p.strip()]
    if not items:
        raise UsageError("active parameter set must not be empty")
    indices = []
    for item in items:
        if item not in LAM_NAMES:
            raise UsageError(f"unknown parameter {item!r}; use l1, l2, l3")
        idx = LAM_NAMES[item]
        if idx in indices:
            raise UsageError(f"parameter {item} listed twice")
        indices.append(idx)
    return tuple(indices)


def _parse_sizes(text: str) -> tuple:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(
                f"grid range must be start:stop:step, got {text!r}")
        start, stop, stride = (_parse_int(p) for p in parts)
        if stride <= 0 or start < 1 or stop < start:
            raise UsageError(f"bad grid range {text!r}")
        return tuple(range(start, stop + 1, stride))
    sizes = tuple(_parse_int(p) for p in text.split(",") if p.strip())
    if not sizes or min(sizes) < 1:
        raise UsageError(f"need grid sizes >= 1, got {text!r}")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise UsageError(f"grid sizes must increase, got {text!r}")
    return sizes


def _parse_names(text: str) -> tuple:
    low = text.strip().lower()
    if low in ("", "none"):
        return ()
    return tuple(p.strip() for p in text.split(",") if p.strip())


# ---------------------------------------------------- config and options

@dataclass(frozen=True)
class Option:
    name: str
    parse: callable
    default: object = None
    required: bool = False
    help: str = ""

    @property
    def dest(self) -> str:
        return self.name.replace("-", "_")


def read_config(path: str) -> dict:
    """Flat key=value lines; # comments and blank lines are skipped."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from None
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        if not sep or not key:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        values[key.replace("_", "-")] = value.strip()
    return values


def _resolve(args, config: dict, options) -> dict:
    by_name = {opt.name: opt for opt in options}
    for key in config:
        if key not in by_name:
            raise UsageError(f"unknown config key {key!r} (valid: "
                             f"{', '.join(sorted(by_name))})")
    resolved = {}
    for opt in options:
        raw = getattr(args, opt.dest, None)
        if raw is None:
            raw = config.get(opt.name)
        if raw is None:
            if opt.required:
                raise UsageError(f"missing required option --{opt.name}")
            resolved[opt.dest] = opt.default
            continue
        try:
            resolved[opt.dest] = opt.parse(raw)
        except UsageError as err:
            raise UsageError(f"--{opt.name}: {err}") from None
    return resolved


def _check_step_controls(values) -> None:
    """Step-control checks shared by `continue`, `hunt` and `converge`."""
    for key in ("tol", "ds0", "ds_max", "bounds"):
        flag = "--" + key.replace("_", "-")
        if not values[key] > 0:
            raise UsageError(f"{flag} must be positive, got {values[key]}")
        if key != "bounds" and not np.isfinite(values[key]):
            raise UsageError(f"{flag} must be finite, got {values[key]}")
    if values["max_steps"] < 0:
        raise UsageError("--max-steps must be >= 0")
    if values["max_newton"] < 1:
        raise UsageError("--max-newton must be >= 1")


def _make_nonlinearity(problem: str, tail):
    if problem == "bratu":
        if tail:
            raise UsageError("--tail applies to the polynomial problem only")
        return ExpSineNonlinearity()
    if problem == "polynomial":
        return PolynomialNonlinearity(tuple(tail))
    raise UsageError(f"unknown problem {problem!r}; use bratu or polynomial")


def _load_matching(path: str, grid: Grid, label: str) -> np.ndarray:
    try:
        gf = load_grid_function(path)
    except (OSError, ValueError) as err:
        raise UsageError(f"--{label}: {err}") from None
    if (gf.grid.nx, gf.grid.ny) != (grid.nx, grid.ny):
        raise UsageError(f"--{label} lives on {gf.grid.nx}x{gf.grid.ny}, "
                         f"expected {grid.nx}x{grid.ny}")
    return gf.values


PROBLEM_OPTIONS = (
    Option("problem", _parse_str, required=True, help="bratu | polynomial"),
    Option("tail", _parse_floats, default=(),
           help="quartic-and-up Taylor coefficients of the polynomial "
                "problem, comma separated"),
)
SOLVER_OPTIONS = (
    Option("tol", _parse_float, default=NEWTON_TOL,
           help="Newton tolerance (infinity norm)"),
    Option("max-newton", _parse_int, default=MAX_NEWTON,
           help="Newton iteration cap"),
    Option("seed", _parse_int, default=HuntConfig.seed,
           help="seed for the kernel-vector guess"),
)
HUNT_OPTIONS = (
    Option("lam0", _parse_triple, default=HuntConfig.lam0,
           help="starting parameter triple"),
    Option("ds0", _parse_float, default=HuntConfig.ds0,
           help="initial step length"),
    Option("ds-max", _parse_float, default=HuntConfig.ds_max,
           help="step length cap"),
    Option("max-steps", _parse_int, default=HuntConfig.max_steps,
           help="step budget per continuation"),
    Option("bounds", _parse_float, default=HuntConfig.lam_bounds,
           help="abort when an active parameter leaves (-bounds, bounds)"),
    Option("lam2-direction", _parse_int, default=HuntConfig.lam2_direction,
           help="fold-line search direction (+1 or -1)"),
    Option("lam3-direction", _parse_int, default=HuntConfig.lam3_direction,
           help="cusp-line search direction (+1 or -1)"),
    Option("stage3-window", _parse_triple, default=HuntConfig.stage3_window,
           help="cusp-line search window half-widths around the cusp"),
    Option("pivot-offsets", _parse_floats, default=HuntConfig.pivot_offsets,
           help="third-parameter offsets for pivot slices"),
    Option("direct", _parse_bool, default=HuntConfig.direct_start,
           help="direct Newton chain instead of staged continuation"),
)

CONTINUE_OPTIONS = PROBLEM_OPTIONS + (
    Option("grid", _parse_grid, required=True, help="interior grid, NxM or N"),
    Option("level", _parse_int, default=0,
           help="augmentation level: 0 solution, 1 fold, 2 cusp"),
    Option("active", _parse_active, default=(0,),
           help="active parameters, e.g. l1,l2 (level + 1 of them)"),
    Option("lam", _parse_triple, default=(0.0, 0.0, 0.0),
           help="full parameter triple; inactive entries stay fixed"),
    Option("u0", _parse_str, help="grid-function file for the starting u"),
    Option("alpha0", _parse_str,
           help="grid-function file for the starting kernel vector"),
    Option("direction", _parse_float, default=1.0,
           help="initial orientation of the last active parameter"),
    Option("monitors", _parse_names,
           help="monitors to record/detect (default by level)"),
    Option("stop-at", _parse_names, default=(),
           help="event kinds that stop the run"),
    Option("ds0", _parse_float, default=0.1, help="initial step length"),
    Option("ds-max", _parse_float, default=0.5, help="step length cap"),
    Option("max-steps", _parse_int, default=200, help="step budget"),
    Option("bounds", _parse_float, default=50.0,
           help="abort when an active parameter leaves (-bounds, bounds)"),
    Option("out", _parse_str, required=True, help="branch CSV path"),
    Option("events", _parse_str,
           help="events JSON path (default: out with .events.json)"),
) + SOLVER_OPTIONS

HUNT_CMD_OPTIONS = PROBLEM_OPTIONS + (
    Option("grid", _parse_grid, required=True, help="interior grid, NxM or N"),
    Option("target", _parse_str, default="swallowtail",
           help="stage to reach: fold | cusp | swallowtail"),
    Option("out", _parse_str, default="hunt_report.json",
           help="report JSON path"),
    Option("save-states", _parse_str,
           help="directory for the chain's grid functions"),
) + HUNT_OPTIONS + SOLVER_OPTIONS

CONVERGE_OPTIONS = PROBLEM_OPTIONS + (
    Option("grids", _parse_sizes, required=True,
           help="square grid sizes, 10,15,20 or start:stop:step"),
    Option("seed-report", _parse_str,
           help="hunt report JSON (with saved states) seeding the "
                "coarsest grid; default: hunt there first"),
    Option("independent", _parse_bool, default=False,
           help="hunt every grid from scratch instead of chaining"),
    Option("out", _parse_str, default="convergence.json",
           help="table JSON path"),
) + HUNT_OPTIONS + SOLVER_OPTIONS

CLASSIFY_OPTIONS = (
    Option("tensors", _parse_str, required=True,
           help="dense derivative-tensor text file"),
    Option("max-order", _parse_int,
           help="highest derivative order to test (default: up to 6)"),
)

EXPORT_OPTIONS = (
    Option("report", _parse_str, required=True,
           help="hunt or convergence report JSON"),
    Option("out", _parse_str, required=True, help="CSV path"),
)


# ------------------------------------------------------------- continue

def _check_continue(opts: dict, monitors: tuple) -> None:
    """Checks of the `continue` options that their parsers cannot make."""
    _check_step_controls(opts)
    level = opts["level"]
    if level not in (0, 1, 2):
        raise UsageError("continuation levels: 0 (solution), 1 (fold), "
                         "2 (cusp); the next system is square")
    if len(opts["active"]) != level + 1:
        raise UsageError(f"level {level} continuation needs "
                         f"{level + 1} active parameter(s), "
                         f"got {len(opts['active'])}")
    if opts["direction"] == 0.0 or not np.isfinite(opts["direction"]):
        raise UsageError(f"--direction must be a nonzero number, "
                         f"got {opts['direction']}")
    for name in monitors:
        if name not in MONITOR_NAMES:
            raise UsageError(f"unknown monitor {name!r}")
        if level == 0:
            raise UsageError(f"monitor {name!r} needs level >= 1")


def _write_branch_csv(path: str, template: AugmentedState, points) -> None:
    grid = template.problem.grid
    center = (grid.nx // 2) + (grid.ny // 2) * grid.nx
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for i, point in enumerate(points):
            state = template.with_vector(point.z)
            rec = point.monitors
            cells = [str(i), _g(point.s), _g(state.lam[0]), _g(state.lam[1]),
                     _g(state.lam[2]), _g(np.max(np.abs(state.u))),
                     _g(state.u[center]), _g(rec.fold_direction),
                     _g(rec.cusp), _g(rec.swallowtail),
                     str(int(point.signature)), str(int(point.newton_iters))]
            fh.write(",".join(cells) + "\n")


def _event_entries(template: AugmentedState, events) -> list:
    entries = []
    for event in events:
        state = template.with_vector(event.point.z)
        entries.append({
            "kind": event.kind,
            "s": float(event.point.s),
            "lam": [float(v) for v in state.lam],
            "monitor_value": float(event.monitor_value),
            "approximate": bool(event.approximate),
        })
    return entries


def cmd_continue(opts: dict) -> int:
    nl = _make_nonlinearity(opts["problem"], opts["tail"])
    grid = Grid(*opts["grid"])
    level, active = opts["level"], opts["active"]
    lam = np.asarray(opts["lam"], dtype=float)
    monitors = opts["monitors"]
    if monitors is None:
        monitors = {1: ("cusp",), 2: ("swallowtail",)}.get(level, ())
    _check_continue(opts, monitors)
    u = np.zeros(grid.size)
    if opts["u0"] is not None:
        u = _load_matching(opts["u0"], grid, "u0")
    alpha = None
    if opts["alpha0"] is not None:
        alpha = _load_matching(opts["alpha0"], grid, "alpha0")
        norm = np.sqrt(grid.cell_area * (alpha @ alpha))
        if norm == 0.0:
            raise UsageError("--alpha0 is identically zero")
        alpha = alpha / norm
    if level == 0:
        alpha = None
    elif alpha is None:
        alpha = seed_kernel_vector(grid, opts["seed"])
    template = AugmentedState(Problem(grid, nl), level, u, lam, alpha=alpha,
                              active=active)
    wrapper = augmented_continuation_problem(template, monitors, opts["tol"],
                                             opts["max_newton"])
    for kind in opts["stop_at"]:
        if kind not in wrapper.watched:
            have = ", ".join(sorted(wrapper.watched))
            raise UsageError(f"--stop-at {kind!r} is not detected by "
                             f"this run (have: {have})")
    start = initial_point(wrapper, template.pack(), opts["direction"])
    limit = opts["bounds"]

    def in_bounds(z, k=len(active)):
        return bool(np.all(np.abs(z[-k:]) < limit))

    result = run_branch(wrapper, start, ds0=opts["ds0"],
                        ds_max=opts["ds_max"], max_steps=opts["max_steps"],
                        stop_at=opts["stop_at"], bounds=in_bounds)
    _write_branch_csv(opts["out"], template, result.points)
    doc = {"seed": opts["seed"], "stopped_on": result.stopped_on,
           "points": len(result.points),
           "events": _event_entries(template, result.events)}
    events_path = opts["events"]
    if events_path is None:
        events_path = os.path.splitext(opts["out"])[0] + ".events.json"
    with open(events_path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"{len(result.points)} points, stopped on {result.stopped_on}; "
          f"{len(result.events)} event(s)")
    for entry in doc["events"]:
        lam = ", ".join(f"{v:.8g}" for v in entry["lam"])
        print(f"  {entry['kind']} at lam = ({lam}), s = {entry['s']:.6g}")
    return 0


# ----------------------------------------------------------------- hunt

def _hunt_config(opts: dict) -> HuntConfig:
    _check_step_controls(opts)
    if opts["lam2_direction"] not in (1, -1) or \
            opts["lam3_direction"] not in (1, -1):
        raise UsageError("search directions must be +1 or -1")
    if not all(width > 0 for width in opts["stage3_window"]):
        raise UsageError(f"--stage3-window widths must be positive, "
                         f"got {opts['stage3_window']}")
    return HuntConfig(
        seed=opts["seed"], lam0=tuple(opts["lam0"]), ds0=opts["ds0"],
        ds_max=opts["ds_max"], max_steps=opts["max_steps"],
        lam2_direction=opts["lam2_direction"],
        lam3_direction=opts["lam3_direction"], lam_bounds=opts["bounds"],
        stage3_window=tuple(opts["stage3_window"]),
        pivot_offsets=tuple(opts["pivot_offsets"]),
        newton_tol=opts["tol"], max_newton=opts["max_newton"],
        direct_start=opts["direct"])


def _save_chain_states(report, directory: str) -> dict:
    """Write each chain point's grid functions; returns index -> files."""
    os.makedirs(directory, exist_ok=True)
    seen = {}
    files_by_index = {}
    for i, point in enumerate(report.chain):
        count = seen.get(point.kind, 0)
        seen[point.kind] = count + 1
        stem = point.kind if count == 0 else f"{point.kind}{count + 1}"
        state = point.state
        grid = state.problem.grid
        files = {}
        for name, values in (("u", state.u), ("alpha", state.alpha),
                             ("vbar", state.vbar)):
            if values is None:
                continue
            path = os.path.join(directory, f"{stem}_{name}.txt")
            save_grid_function(path, GridFunction(values, grid))
            files[name] = path
        files_by_index[i] = files
    return files_by_index


def _print_chain(report) -> None:
    for point in report.chain:
        lam = ", ".join(f"{v:.8g}" for v in point.lam)
        print(f"  {point.kind:<12} lam = ({lam})  "
              f"|R| = {point.residual_inf:.3e}  iters = {point.newton_iters}")


def cmd_hunt(opts: dict) -> int:
    nl = _make_nonlinearity(opts["problem"], opts["tail"])
    grid = Grid(*opts["grid"])
    target = opts["target"].strip().lower()
    if target not in ("fold", "cusp", "swallowtail"):
        raise UsageError(f"--target must be fold, cusp or swallowtail, "
                         f"got {target!r}")
    config = _hunt_config(opts)
    report = hunt_swallowtail(nl, grid, config)
    doc = report.to_dict()
    if opts["save_states"]:
        files_by_index = _save_chain_states(report, opts["save_states"])
        for i, files in files_by_index.items():
            doc["chain"][i]["files"] = files
    with open(opts["out"], "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(f"stage reached: {report.stage_reached}")
    _print_chain(report)
    # wall-clock seconds vary from run to run: kept out of --out
    print("stage seconds: " + ", ".join(
        f"{stage} {seconds:.3f}" for stage, seconds in report.timings.items()),
        file=sys.stderr)
    if STAGES.index(report.stage_reached) < STAGES.index(target):
        message = report.note or "target stage not reached"
        print(f"numerical failure: {message}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------- converge

def _resolve_report_path(base: str, path: str) -> str:
    if os.path.isabs(path) or os.path.exists(path):
        return path
    return os.path.join(os.path.dirname(base) or ".", path)


def _seed_from_report(path: str, nl, n0: int) -> AugmentedState:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"--seed-report: {err}") from None
    entries = [e for e in doc.get("chain", [])
               if e.get("kind") == "swallowtail"]
    if not entries:
        raise UsageError("--seed-report: no swallowtail in the chain")
    entry = entries[-1]
    files = entry.get("files")
    if not files or not all(k in files for k in ("u", "alpha", "vbar")):
        raise UsageError("--seed-report: chain has no saved grid functions; "
                         "rerun hunt with --save-states")
    loaded = {}
    for name in ("u", "alpha", "vbar"):
        file_path = _resolve_report_path(path, files[name])
        try:
            loaded[name] = load_grid_function(file_path)
        except (OSError, ValueError) as err:
            raise UsageError(f"--seed-report: {err}") from None
    grid = loaded["u"].grid
    if (grid.nx, grid.ny) != (n0, n0):
        raise UsageError(f"--seed-report lives on {grid.nx}x{grid.ny}; the "
                         f"coarsest requested grid is {n0}x{n0}")
    state = AugmentedState(Problem(grid, nl), 3, loaded["u"].values,
                           np.asarray(entry["lam"], dtype=float),
                           alpha=loaded["alpha"].values,
                           vbar=loaded["vbar"].values, active=(0, 1, 2))
    residual = float(np.max(np.abs(residual_jacobian(state)[0])))
    if residual > 1e-6:
        raise RefinementError(f"seed report residual is {residual:.3e}; "
                              f"the report does not match these problem "
                              f"settings", state, residual)
    return state


def cmd_converge(opts: dict) -> int:
    nl = _make_nonlinearity(opts["problem"], opts["tail"])
    sizes = opts["grids"]
    config = _hunt_config(opts)
    independent = opts["independent"]
    if independent and opts["seed_report"]:
        raise UsageError("--independent hunts every grid from scratch and "
                         "ignores --seed-report; drop one of the two")
    seed_state = None
    if not independent:
        if opts["seed_report"]:
            seed_state = _seed_from_report(opts["seed_report"], nl, sizes[0])
        else:
            coarse = Grid(sizes[0], sizes[0])
            report = hunt_swallowtail(nl, coarse, config)
            if report.stage_reached != "swallowtail":
                print(f"numerical failure: seeding hunt on "
                      f"{sizes[0]}x{sizes[0]} reached "
                      f"{report.stage_reached}: {report.note}",
                      file=sys.stderr)
                return 1
            seed_state = report.swallowtail.state
    table = convergence_study(nl, sizes, seed_state,
                              independent=independent, config=config)
    doc = {"problem": opts["problem"], "grids": [int(s) for s in sizes],
           "seed": opts["seed"], **table.to_dict()}
    with open(opts["out"], "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for row in table.rows:
        lam = ", ".join(f"{v:.8g}" for v in row.lam)
        print(f"  N = {row.n:<4d} lam = ({lam})  distance = "
              f"{row.distance:.3e}  iters = {row.newton_iters}")
    if len(table.rows) >= 2:
        last = np.asarray(table.rows[-1].lam)
        prev = np.asarray(table.rows[-2].lam)
        print(f"final successive difference: "
              f"{np.linalg.norm(last - prev):.3e}")
    if table.note:
        print(f"numerical failure: {table.note}", file=sys.stderr)
        return 1
    return 0


# ------------------------------------------------------------- classify

def load_tensor_file(path: str) -> list:
    """Dense tensors as `tensor k` headers followed by m**k numbers."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as err:
        raise UsageError(f"--tensors: {err}") from None
    tokens = []
    for line in lines:
        body = line.split("#", 1)[0]
        tokens.extend(body.split())
    blocks = {}
    order = None
    for token in tokens:
        if token.lower() == "tensor":
            order = None
            continue
        if order is None:
            order = _parse_int(token)
            if order < 1 or order in blocks:
                raise UsageError(f"--tensors: bad tensor order {order}")
            blocks[order] = []
            continue
        blocks[order].append(_parse_float(token))
    if not blocks:
        raise UsageError("--tensors: file holds no tensors")
    top = max(blocks)
    if sorted(blocks) != list(range(1, top + 1)):
        raise UsageError(f"--tensors: need consecutive orders 1..{top}")
    dim = len(blocks[1])
    if dim < 1:
        raise UsageError("--tensors: tensor 1 is empty")
    tensors = []
    for k in range(1, top + 1):
        expected = dim ** k
        if len(blocks[k]) != expected:
            raise UsageError(f"--tensors: tensor {k} needs {expected} "
                             f"values, got {len(blocks[k])}")
        tensors.append(np.asarray(blocks[k]).reshape((dim,) * k))
    return tensors


def cmd_classify(opts: dict) -> int:
    tensors = load_tensor_file(opts["tensors"])
    oracle = TensorOracle(tensors)
    if oracle.max_order < 3:
        raise UsageError("--tensors: classification needs tensors up to "
                         "order 3 at least")
    max_order = opts["max_order"]
    if max_order is None:
        max_order = min(6, oracle.max_order)
    elif max_order < 3 or max_order > oracle.max_order:
        raise UsageError(f"--max-order must lie in 3..{oracle.max_order} "
                         f"for this file")
    report = detect(oracle, max_order=max_order)
    headline = report.kind
    if report.signature is not None:
        headline += ", positive" if report.signature > 0 else ", negative"
    print(headline)
    if report.kernel_dim is not None:
        print(f"kernel dimension: {report.kernel_dim}")
    if report.test_values:
        values = " ".join(_g(v) for v in report.test_values)
        print(f"test values: {values}")
    return 0


# ---------------------------------------------------------- export-plot

def cmd_export_plot(opts: dict) -> int:
    try:
        with open(opts["report"]) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise UsageError(f"--report: {err}") from None
    rows = []
    if "rows" in doc:
        rows.append("dx,distance")
        for row in doc["rows"]:
            rows.append(f"{_g(1.0 / (row['N'] + 1))},{_g(row['distance'])}")
    elif "chain" in doc:
        rows.append("kind,lambda1,lambda2,lambda3,residual_inf,newton_iters")
        for entry in doc["chain"]:
            lam = ",".join(_g(v) for v in entry["lam"])
            rows.append(f"{entry['kind']},{lam},{_g(entry['residual_inf'])},"
                        f"{entry['newton_iters']}")
    else:
        raise UsageError("--report: unrecognized document (expected a hunt "
                         "chain or a convergence table)")
    with open(opts["out"], "w") as fh:
        fh.write("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {opts['out']}")
    return 0


# ----------------------------------------------------------------- main

COMMANDS = {
    "continue": (cmd_continue, CONTINUE_OPTIONS,
                 "continue one branch and record it as CSV"),
    "hunt": (cmd_hunt, HUNT_CMD_OPTIONS,
             "run the staged singularity hunt"),
    "converge": (cmd_converge, CONVERGE_OPTIONS,
                 "track a swallowtail across grid refinements"),
    "classify": (cmd_classify, CLASSIFY_OPTIONS,
                 "classify a critical point from dense tensors"),
    "export-plot": (cmd_export_plot, EXPORT_OPTIONS,
                    "flatten a report JSON into plot-ready CSV"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aseries",
        description="Singularity detection and continuation workflows.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options, blurb) in COMMANDS.items():
        cmd = sub.add_parser(name, help=blurb, description=blurb)
        cmd.add_argument("--config", help="flat key=value config file")
        for opt in options:
            flag = f"--{opt.name}"
            if opt.parse is _parse_bool:
                cmd.add_argument(flag, action="store_const", const="true",
                                 default=None, help=opt.help)
            else:
                cmd.add_argument(flag, default=None, metavar="V",
                                 help=opt.help)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    runner, options, _ = COMMANDS[args.command]
    try:
        config = read_config(args.config) if args.config else {}
        resolved = _resolve(args, config, options)
        return runner(resolved)
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NUMERICAL_ERRORS as err:
        print(f"numerical failure: {type(err).__name__}: {err}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
