"""End-to-end singularity workflows on the discretized problems.

Chains the continuation module over the augmented systems: hunt a
swallowtail through the solution -> fold -> cusp stages, refine located
points across grids, run grid-convergence studies, and verify the
fold-sheet geometry around a located swallowtail by slicing the third
parameter.

The hunt follows the staged protocol: continue the known solution until
a fold event, solve the fold system directly, continue the fold line
until a cusp event, solve the cusp system, then continue the cusp line
watching the swallowtail monitor.  Cusp lines can run into regions
where the monitor grows without bound (a two-dimensional kernel ahead);
the hunt then pivots: it freezes the third parameter at a point already
reached on the cusp line, continues the fold line of that slice to find
a neighbouring cusp line, and resumes the monitor search there.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .augmented import (
    AugmentedState,
    MonitorRecord,
    Problem,
    evaluate_monitors,
    residual_jacobian,
)
from .continuation import (
    MAX_NEWTON,
    NEWTON_TOL,
    ContinuationError,
    ConvergenceError,
    augmented_continuation_problem,
    initial_point,
    newton_solve,
    run_branch,
)
from .poisson import Grid, GridFunction, Nonlinearity, interpolate_to

STAGES = ("solution", "fold", "cusp", "swallowtail")


class HuntError(RuntimeError):
    """A hunt stage failed outright (distinct from a partial report)."""


class RefinementError(RuntimeError):
    """Newton on the finer grid did not reach tolerance."""

    def __init__(self, message: str, state: AugmentedState | None = None,
                 residual_norm: float = np.inf):
        super().__init__(message)
        self.state = state
        self.residual_norm = residual_norm


class GeometryError(RuntimeError):
    """The verification slices could not be assembled."""


@dataclass
class HuntConfig:
    """Step control, budgets and search directions for one hunt.

    All randomness (the kernel-vector guess) flows from `seed`.  The
    direction fields orient the fold-line and cusp-line continuations;
    pivot_offsets are the third-parameter distances at which the hunt
    re-slices when the swallowtail monitor diverges on a cusp line.
    """

    seed: int = 0
    lam0: tuple = (0.0, 0.0, 0.0)
    ds0: float = 0.2
    ds_max: float = 0.5
    max_steps: int = 400
    lam2_direction: int = 1
    lam3_direction: int = 1
    lam_bounds: float = 50.0
    stage3_window: tuple = (3.0, 0.05, 0.12)
    pivot_offsets: tuple = (0.005, 0.01, 0.02, 0.04)
    pivot_window: tuple = (0.05, 0.01)
    slice_directions: tuple = (-1.0, 1.0)
    distinct_tol: float = 1e-6
    newton_tol: float = NEWTON_TOL
    max_newton: int = MAX_NEWTON
    direct_start: bool = False

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class LocatedPoint:
    """One converged root of an augmented system along the chain."""

    kind: str
    state: AugmentedState
    residual_inf: float
    newton_iters: int
    monitors: MonitorRecord | None = None
    note: str = ""

    @property
    def lam(self) -> np.ndarray:
        return self.state.lam

    def to_dict(self, files: dict | None = None) -> dict:
        doc = {
            "kind": self.kind,
            "lam": [float(v) for v in self.state.lam],
            "grid": [self.state.problem.grid.nx, self.state.problem.grid.ny],
            "level": self.state.level,
            "residual_inf": float(self.residual_inf),
            "newton_iters": int(self.newton_iters),
        }
        if self.monitors is not None:
            doc["monitors"] = {
                "cusp": float(self.monitors.cusp),
                "swallowtail": float(self.monitors.swallowtail),
            }
            if self.monitors.butterfly is not None:
                doc["monitors"]["butterfly"] = float(self.monitors.butterfly)
        if self.note:
            doc["note"] = self.note
        if files:
            doc["files"] = dict(files)
        return doc


@dataclass
class HuntReport:
    """Chain of located singularities with the events that led to them."""

    nonlinearity: str
    grid: tuple
    config: HuntConfig
    stage_reached: str = "solution"
    chain: list = field(default_factory=list)
    events: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    note: str = ""

    def located(self, kind: str) -> LocatedPoint | None:
        for point in self.chain:
            if point.kind == kind:
                return point
        return None

    @property
    def swallowtail(self) -> LocatedPoint | None:
        return self.located("swallowtail")

    def to_dict(self, files: dict | None = None) -> dict:
        files = files or {}
        return {
            "nonlinearity": self.nonlinearity,
            "grid": list(self.grid),
            "seed": self.config.seed,
            "config": self.config.to_dict(),
            "stage_reached": self.stage_reached,
            "chain": [p.to_dict(files.get(p.kind)) for p in self.chain],
            "events": list(self.events),
            "timings": {k: float(v) for k, v in self.timings.items()},
            "note": self.note,
        }

    def to_json(self, files: dict | None = None) -> str:
        return json.dumps(self.to_dict(files), indent=2)


def _recheck(state: AugmentedState) -> float:
    """Residual infinity norm, recomputed from the state alone."""
    return float(np.max(np.abs(residual_jacobian(state)[0])))


def locate(template: AugmentedState, tol: float = NEWTON_TOL,
           max_newton: int = MAX_NEWTON) -> tuple[AugmentedState, int]:
    """Direct Newton solve of a square augmented system.

    The template must pin as many parameters as its system has surplus
    equations, making the packed system square.  Returns the converged
    state and the iteration count; the residual is re-checked on the
    returned state rather than trusted from the solver.
    """
    if template.dimension != template.residual_size:
        raise ValueError("direct location needs a square system; "
                         f"got {template.dimension} unknowns for "
                         f"{template.residual_size} equations")

    def system(z):
        return residual_jacobian(template.with_vector(z))

    z, iters = newton_solve(system, template.pack(), tol, max_newton)
    state = template.with_vector(z)
    check = _recheck(state)
    if not check < tol:
        raise ConvergenceError(f"re-check failed: |R| = {check:.3e}", z,
                               iters, check)
    return state, iters


def _cause(err: ContinuationError) -> str:
    return f"{type(err).__name__}: {err}"


def _located(kind: str, state: AugmentedState, iters: int,
             with_butterfly: bool = False, note: str = "") -> LocatedPoint:
    monitors = None
    if state.level >= 1:
        monitors = evaluate_monitors(state, with_butterfly=with_butterfly)
    return LocatedPoint(kind, state, _recheck(state), iters, monitors, note)


def _event_doc(stage: str, event, active: tuple) -> dict:
    lam_tail = event.point.z[-len(active):]
    return {
        "stage": stage,
        "kind": event.kind,
        "lam_active": [float(v) for v in lam_tail],
        "s": float(event.point.s),
        "monitor_value": float(event.monitor_value),
        "approximate": bool(event.approximate),
    }


def _orient(dimension: int, direction: float) -> np.ndarray:
    vec = np.zeros(dimension)
    vec[-1] = direction
    return vec


def _window_bounds(center: np.ndarray, widths) -> callable:
    widths = np.asarray(widths, dtype=float)

    def bounds(z):
        return bool(np.all(np.abs(z[-len(widths):] - center) < widths))

    return bounds


def seed_kernel_vector(grid: Grid, seed: int) -> np.ndarray:
    """Random kernel-vector guess, normalized to the discrete L2 norm."""
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(grid.size)
    return alpha / np.sqrt(grid.cell_area * (alpha @ alpha))


_seed_alpha = seed_kernel_vector


def _clean(events, kind: str):
    return [e for e in events if e.kind == kind and not e.approximate]


def _nudged(lam: np.ndarray) -> np.ndarray:
    """Copy of lam with the first component moved off an exact root.

    Families with a trivial branch (u = 0 solving for every lam) make
    each augmented Jacobian rank deficient exactly on the previous
    level's root, where both the diagonal block and the parameter
    column of the solution equation vanish together.
    """
    lam = lam.copy()
    lam[0] += 1e-6 * max(1.0, abs(lam[0]))
    return lam


def _direct_chain(problem: Problem, config: HuntConfig,
                  report: HuntReport) -> HuntReport:
    """Chain of direct solves at increasing level, no continuation."""
    grid = problem.grid
    lam0 = np.asarray(config.lam0, dtype=float)
    alpha = _seed_alpha(grid, config.seed)
    u = np.zeros(grid.size)
    t0 = time.perf_counter()
    fold, iters = locate(
        AugmentedState(problem, 1, u, lam0.copy(), alpha=alpha, active=(0,)),
        config.newton_tol, config.max_newton)
    report.chain.append(_located("fold", fold, iters))
    report.stage_reached = "fold"
    report.timings["fold"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cusp, iters = locate(
        AugmentedState(problem, 2, fold.u, _nudged(fold.lam),
                       alpha=fold.alpha, active=(0, 1)),
        config.newton_tol, config.max_newton)
    report.chain.append(_located("cusp", cusp, iters))
    report.stage_reached = "cusp"
    report.timings["cusp"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sw, iters = locate(
        AugmentedState(problem, 3, cusp.u, _nudged(cusp.lam),
                       alpha=cusp.alpha, vbar=np.zeros(grid.size),
                       active=(0, 1, 2)),
        config.newton_tol, config.max_newton)
    report.chain.append(_located("swallowtail", sw, iters, with_butterfly=True))
    report.stage_reached = "swallowtail"
    report.timings["swallowtail"] = time.perf_counter() - t0
    return report


def _cusp_line_run(problem_wrapper, template, direction: float,
                   config: HuntConfig):
    start = initial_point(problem_wrapper, template.pack(),
                          orient_vector=_orient(template.dimension, direction),
                          newton_tol=config.newton_tol,
                          max_newton=config.max_newton)
    window = _window_bounds(template.lam.copy(), config.stage3_window)
    return run_branch(problem_wrapper, start, ds0=0.05, ds_max=0.1,
                      max_steps=config.max_steps,
                      monitor_names=("swallowtail",),
                      stop_at=("swallowtail",), bounds=window,
                      newton_tol=config.newton_tol,
                      max_newton=config.max_newton)


def _slice_for_cusp(problem: Problem, pivot: AugmentedState,
                    config: HuntConfig):
    """Fold-line slice at the pivot's frozen third parameter.

    The pivot is an exact cusp-line point, hence an exact fold-system
    root; the slice continues that fold line in both directions and
    returns the first cusp event distinct from the pivot itself.
    """
    template = AugmentedState(problem, 1, pivot.u, pivot.lam.copy(),
                              alpha=pivot.alpha, active=(0, 1))
    wrapper = augmented_continuation_problem(template, monitors=("cusp",))
    center = pivot.lam[:2].copy()
    for direction in config.slice_directions:
        try:
            start = initial_point(wrapper, template.pack(),
                                  orient_vector=_orient(template.dimension,
                                                        direction),
                                  newton_tol=config.newton_tol,
                                  max_newton=config.max_newton)
            result = run_branch(wrapper, start, ds0=0.02, ds_max=0.1,
                                max_steps=config.max_steps,
                                monitor_names=("cusp",), stop_at=("cusp",),
                                bounds=_window_bounds(center,
                                                      config.pivot_window),
                                newton_tol=config.newton_tol,
                                max_newton=config.max_newton)
        except ContinuationError:
            continue
        for event in _clean(result.events, "cusp"):
            candidate = template.with_vector(event.point.z)
            lam_c = candidate.lam.copy()
            try:
                refined, iters = locate(
                    AugmentedState(problem, 2, candidate.u, lam_c,
                                   alpha=candidate.alpha, active=(0, 1)),
                    config.newton_tol, config.max_newton)
            except ContinuationError:
                continue
            if np.linalg.norm(refined.lam - pivot.lam) > config.distinct_tol:
                return refined, iters, event
    return None


def hunt_swallowtail(nl: Nonlinearity, grid: Grid,
                     config: HuntConfig | None = None) -> HuntReport:
    """Stage the solution -> fold -> cusp -> swallowtail chain.

    Returns a partial report (stage_reached before "swallowtail") when
    an event is not found within the budget, rather than raising.
    """
    config = config or HuntConfig()
    problem = Problem(grid, nl)
    report = HuntReport(type(nl).__name__, (grid.nx, grid.ny), config)

    if config.direct_start:
        return _direct_chain(problem, config, report)

    lam0 = np.asarray(config.lam0, dtype=float)
    n = grid.size

    # stage 1: solution branch along lam1 until a fold event
    t0 = time.perf_counter()
    tmpl0 = AugmentedState(problem, 0, np.zeros(n), lam0.copy(), active=(0,))
    wrap0 = augmented_continuation_problem(tmpl0, fold_parameter=0)
    start0 = initial_point(wrap0, tmpl0.pack(), orient_index=n,
                           newton_tol=config.newton_tol,
                           max_newton=config.max_newton)
    sol0 = tmpl0.with_vector(start0.z)
    report.chain.append(LocatedPoint("solution", sol0, _recheck(sol0),
                                     start0.newton_iters))
    run0 = run_branch(wrap0, start0, ds0=config.ds0, ds_max=config.ds_max,
                      max_steps=config.max_steps, monitor_names=("fold",),
                      stop_at=("fold",),
                      bounds=lambda z: abs(z[-1]) < config.lam_bounds,
                      newton_tol=config.newton_tol,
                      max_newton=config.max_newton)
    report.timings["solution"] = time.perf_counter() - t0
    fold_events = [e for e in run0.events if e.kind == "fold"]
    if not fold_events:
        report.note = f"no fold event (solution branch: {run0.stopped_on})"
        return report
    report.events.append(_event_doc("solution", fold_events[0], tmpl0.active))

    # stage 2: fold system, then the fold line until a cusp event
    t0 = time.perf_counter()
    at_fold = tmpl0.with_vector(fold_events[0].point.z)
    try:
        fold, iters = locate(
            AugmentedState(problem, 1, at_fold.u, at_fold.lam.copy(),
                           alpha=_seed_alpha(grid, config.seed), active=(0,)),
            config.newton_tol, config.max_newton)
    except ContinuationError as err:
        report.note = f"fold system did not converge: {_cause(err)}"
        return report
    report.chain.append(_located("fold", fold, iters))
    report.stage_reached = "fold"

    tmpl1 = AugmentedState(problem, 1, fold.u, fold.lam.copy(),
                           alpha=fold.alpha, active=(0, 1))
    wrap1 = augmented_continuation_problem(tmpl1, monitors=("cusp",))
    start1 = initial_point(
        wrap1, tmpl1.pack(),
        orient_vector=_orient(tmpl1.dimension, float(config.lam2_direction)),
        newton_tol=config.newton_tol, max_newton=config.max_newton)
    run1 = run_branch(wrap1, start1, ds0=config.ds0, ds_max=config.ds_max,
                      max_steps=config.max_steps, monitor_names=("cusp",),
                      stop_at=("cusp",),
                      bounds=lambda z: bool(
                          np.all(np.abs(z[-2:]) < config.lam_bounds)),
                      newton_tol=config.newton_tol,
                      max_newton=config.max_newton)
    report.timings["fold"] = time.perf_counter() - t0
    cusp_events = _clean(run1.events, "cusp")
    if not cusp_events:
        report.note = f"no cusp event (fold line: {run1.stopped_on})"
        return report
    report.events.append(_event_doc("fold", cusp_events[0], tmpl1.active))

    t0 = time.perf_counter()
    at_cusp = tmpl1.with_vector(cusp_events[0].point.z)
    try:
        cusp, iters = locate(
            AugmentedState(problem, 2, at_cusp.u, at_cusp.lam.copy(),
                           alpha=at_cusp.alpha, active=(0, 1)),
            config.newton_tol, config.max_newton)
    except ContinuationError as err:
        report.note = f"cusp system did not converge: {_cause(err)}"
        report.timings["cusp"] = time.perf_counter() - t0
        return report
    report.chain.append(_located("cusp", cusp, iters))
    report.stage_reached = "cusp"
    report.timings["cusp"] = time.perf_counter() - t0

    # stage 3: cusp line, watching the swallowtail monitor; pivot to a
    # neighbouring cusp line when the monitor diverges without a root
    t0 = time.perf_counter()
    found = None
    notes = []
    for direction in (float(config.lam3_direction),
                      -float(config.lam3_direction)):
        tmpl2 = AugmentedState(problem, 2, cusp.u, cusp.lam.copy(),
                               alpha=cusp.alpha, active=(0, 1, 2))
        wrap2 = augmented_continuation_problem(tmpl2,
                                               monitors=("swallowtail",))
        try:
            run2 = _cusp_line_run(wrap2, tmpl2, direction, config)
        except ContinuationError as err:
            notes.append(f"cusp line dir {direction:+.0f}: {err}")
            continue
        clean_sw = _clean(run2.events, "swallowtail")
        if clean_sw:
            report.events.append(_event_doc("cusp", clean_sw[0], tmpl2.active))
            found = tmpl2.with_vector(clean_sw[0].point.z)
            break
        notes.append(f"cusp line dir {direction:+.0f}: monitor kept sign "
                     f"({run2.stopped_on})")
        # pivot ladder along this cusp line
        for offset in config.pivot_offsets:
            pivot_point = next(
                (p for p in run2.points
                 if abs(p.z[-1] - cusp.lam[2]) >= offset), None)
            if pivot_point is None:
                break
            pivot = tmpl2.with_vector(pivot_point.z)
            hit = _slice_for_cusp(problem, pivot, config)
            if hit is None:
                continue
            cusp_b, iters_b, slice_event = hit
            notes.append(f"pivot slice at lam3 = {pivot.lam[2]:+.6f} "
                         f"found a second cusp line")
            report.events.append(_event_doc("pivot", slice_event, (0, 1)))
            report.chain.append(_located("cusp", cusp_b, iters_b,
                                         note="pivot slice"))
            tmpl2b = AugmentedState(problem, 2, cusp_b.u, cusp_b.lam.copy(),
                                    alpha=cusp_b.alpha, active=(0, 1, 2))
            wrap2b = augmented_continuation_problem(
                tmpl2b, monitors=("swallowtail",))
            for retry_dir in (-float(config.lam3_direction),
                              float(config.lam3_direction)):
                try:
                    run2b = _cusp_line_run(wrap2b, tmpl2b, retry_dir, config)
                except ContinuationError as err:
                    notes.append(f"second cusp line dir {retry_dir:+.0f}: "
                                 f"{err}")
                    continue
                clean_sw = _clean(run2b.events, "swallowtail")
                if clean_sw:
                    report.events.append(
                        _event_doc("cusp", clean_sw[0], tmpl2b.active))
                    found = tmpl2b.with_vector(clean_sw[0].point.z)
                    break
            if found is not None:
                break
        if found is not None:
            break
    if found is None:
        report.note = "; ".join(notes) or "swallowtail monitor never crossed"
        report.timings["swallowtail"] = time.perf_counter() - t0
        return report

    try:
        sw, iters = locate(
            AugmentedState(problem, 3, found.u, found.lam.copy(),
                           alpha=found.alpha, vbar=np.zeros(n),
                           active=(0, 1, 2)),
            config.newton_tol, config.max_newton)
    except ContinuationError as err:
        report.note = f"swallowtail system did not converge: {_cause(err)}"
        report.timings["swallowtail"] = time.perf_counter() - t0
        return report
    report.chain.append(_located("swallowtail", sw, iters,
                                 with_butterfly=True))
    report.stage_reached = "swallowtail"
    report.timings["swallowtail"] = time.perf_counter() - t0
    report.note = "; ".join(notes)
    return report


def refine_on_grid(state: AugmentedState, grid: Grid,
                   tol: float = NEWTON_TOL,
                   max_newton: int = MAX_NEWTON) -> tuple[AugmentedState, int]:
    """Transfer a converged augmented root to another grid and re-solve.

    Grid functions move by bilinear interpolation with the zero boundary
    kept; parameters are carried over; the kernel vector is renormalized
    on the new grid before the Newton iteration.
    """
    coarse = state.problem.grid
    target = Problem(grid, state.problem.nl)

    def move(values):
        return interpolate_to(GridFunction(values, coarse), grid).values

    u = move(state.u)
    alpha = vbar = None
    if state.level >= 1:
        alpha = move(state.alpha)
        norm = np.sqrt(grid.cell_area * (alpha @ alpha))
        if norm == 0.0:
            raise RefinementError("kernel vector vanished under refinement")
        alpha = alpha / norm
    if state.level == 3:
        vbar = move(state.vbar)
    template = AugmentedState(target, state.level, u, state.lam.copy(),
                              alpha=alpha, vbar=vbar, active=state.active)
    try:
        return locate(template, tol, max_newton)
    except ConvergenceError as err:
        best = template.with_vector(err.z) if err.z is not None else template
        raise RefinementError(
            f"no convergence on {grid.nx}x{grid.ny}: |R| = "
            f"{err.residual_norm:.3e}", best, err.residual_norm) from err
    except ContinuationError as err:
        raise RefinementError(
            f"Newton failed on {grid.nx}x{grid.ny}: {_cause(err)}",
            template) from err


@dataclass
class ConvergenceRow:
    n: int
    lam: tuple
    newton_iters: int
    distance: float = np.nan

    def to_dict(self) -> dict:
        return {"N": self.n, "lam": [float(v) for v in self.lam],
                "newton_iters": self.newton_iters,
                "distance": float(self.distance)}


@dataclass
class ConvergenceTable:
    """Swallowtail positions across grids, with distances to the finest."""

    rows: list = field(default_factory=list)
    states: list = field(default_factory=list)
    note: str = ""

    @property
    def deltas(self) -> list:
        """(grid spacing, distance) pairs for the convergence plot."""
        return [(1.0 / (row.n + 1), row.distance) for row in self.rows]

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows],
                "note": self.note}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def convergence_study(nl: Nonlinearity, sizes,
                      seed_state: AugmentedState | None = None,
                      tol: float = NEWTON_TOL,
                      max_newton: int = MAX_NEWTON,
                      independent: bool = False,
                      config: HuntConfig | None = None) -> ConvergenceTable:
    """Track a swallowtail across square grids N in `sizes`.

    Default mode chains: the seed (which must live on the first grid)
    is refined onto each next grid, each result seeding the following
    one.  With `independent` set, every grid instead runs its own hunt
    from scratch under `config`, for robustness comparison against the
    chained protocol.  A failure truncates the table and records the
    reason.  Distances are to the finest completed grid.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("need at least one grid size")
    table = ConvergenceTable()
    if independent:
        if config is None:
            raise ValueError("independent hunts need a hunt config")
        for n in sizes:
            report = hunt_swallowtail(nl, Grid(n, n), config)
            if report.stage_reached != "swallowtail":
                table.note = (f"stopped at N = {n}: hunt reached "
                              f"{report.stage_reached} ({report.note})")
                break
            point = report.swallowtail
            table.rows.append(ConvergenceRow(n, tuple(point.lam),
                                             point.newton_iters))
            table.states.append(point.state)
    else:
        if seed_state is None:
            raise ValueError("chained refinement needs a seed state")
        if seed_state.problem.grid.nx != sizes[0] or \
                seed_state.problem.grid.ny != sizes[0]:
            raise ValueError("seed state lives on the wrong grid")
        table.rows.append(ConvergenceRow(sizes[0], tuple(seed_state.lam), 0))
        table.states.append(seed_state)
        current = seed_state
        for n in sizes[1:]:
            try:
                current, iters = refine_on_grid(current, Grid(n, n), tol,
                                                max_newton)
            except RefinementError as err:
                table.note = f"stopped at N = {n}: {err}"
                break
            table.rows.append(ConvergenceRow(n, tuple(current.lam), iters))
            table.states.append(current)
    if not table.rows:
        return table
    lam_fine = np.asarray(table.rows[-1].lam)
    for row in table.rows:
        row.distance = float(np.linalg.norm(np.asarray(row.lam) - lam_fine))
    return table


@dataclass
class SliceReport:
    """One fold-line slice at frozen third parameter."""

    side: str
    lam3: float
    start: str
    count: int
    zeros: list = field(default_factory=list)
    polyline: list = field(default_factory=list)
    stopped: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"side": self.side, "lam3": float(self.lam3),
                "start": self.start, "count": self.count,
                "zeros": [[float(v) for v in z] for z in self.zeros],
                "stopped": list(self.stopped),
                "polyline_points": len(self.polyline),
                "polyline": [[float(a), float(b)]
                             for a, b in self.polyline]}


@dataclass
class GeometryReport:
    """Cusp counts on fold-line slices on both sides of a swallowtail."""

    lam_sw: tuple
    dlam3: float
    at_singularity: bool = False
    cusp_side: int = 0
    counts: tuple | None = None
    slices: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"lam_sw": [float(v) for v in self.lam_sw],
                "dlam3": float(self.dlam3),
                "at_singularity": self.at_singularity,
                "cusp_side": self.cusp_side,
                "counts": list(self.counts) if self.counts else None,
                "slices": [s.to_dict() for s in self.slices]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)


def _dedup_zeros(zeros, tol: float) -> list:
    kept = []
    for z in zeros:
        if all(np.linalg.norm(np.asarray(z) - np.asarray(k)) > tol
               for k in kept):
            kept.append(z)
    return kept


def verify_swallowtail_geometry(state: AugmentedState,
                                dlam3: float | None = None,
                                ds_max: float = 0.05,
                                max_steps: int = 200,
                                trace_steps: int = 60,
                                dedup_tol: float = 1e-6,
                                tol: float = NEWTON_TOL,
                                max_newton: int = MAX_NEWTON) -> GeometryReport:
    """Count cusps on fold-line slices just off a swallowtail.

    Traces the cusp line through the given swallowtail until the third
    parameter moves by dlam3 (default a tenth of its magnitude); the
    side the line lives on is the cusp side.  That side's slice starts
    at a traced cusp; the other side's slice starts from a fold solve
    seeded by the swallowtail data.  Each slice runs the fold line both
    ways inside a parameter ball of radius 2 dlam3 and counts distinct
    cusp-monitor zeros.  A swallowtail shows the pair (2, 0).
    """
    if state.level < 2:
        raise ValueError("need a swallowtail state with a kernel vector")
    problem = state.problem
    lam_sw = state.lam.copy()
    if dlam3 is None:
        dlam3 = 0.1 * abs(lam_sw[2])
    if dlam3 == 0.0:
        return GeometryReport(tuple(lam_sw), 0.0, at_singularity=True)

    # trace the cusp line away from the swallowtail on both sides
    tmpl = AugmentedState(problem, 2, state.u, lam_sw.copy(),
                          alpha=state.alpha, active=(0, 1, 2))
    wrap = augmented_continuation_problem(tmpl, monitors=("swallowtail",))
    anchors = {1: [], -1: []}
    for direction in (1.0, -1.0):
        try:
            start = initial_point(wrap, tmpl.pack(),
                                  orient_vector=_orient(tmpl.dimension,
                                                        direction),
                                  newton_tol=tol, max_newton=max_newton)
            run = run_branch(wrap, start, ds0=0.02, ds_max=0.1,
                             max_steps=trace_steps,
                             monitor_names=("swallowtail",),
                             bounds=lambda z: abs(z[-1] - lam_sw[2]) < dlam3,
                             newton_tol=tol, max_newton=max_newton)
        except ContinuationError as err:
            raise GeometryError(f"cusp line trace failed: {err}") from err
        end = tmpl.with_vector(run.points[-1].z)
        offset = end.lam[2] - lam_sw[2]
        if abs(offset) < dlam3:
            continue
        side = 1 if offset > 0 else -1
        lam_t = end.lam.copy()
        lam_t[2] = lam_sw[2] + side * dlam3
        try:
            anchor, _ = locate(
                AugmentedState(problem, 2, end.u, lam_t, alpha=end.alpha,
                               active=(0, 1)), tol, max_newton)
        except ContinuationError:
            continue
        anchors[side].append(anchor)
    if not anchors[1] and not anchors[-1]:
        raise GeometryError("cusp line never left the slice window")
    cusp_side = 1 if len(anchors[1]) >= len(anchors[-1]) else -1

    report = GeometryReport(tuple(lam_sw), dlam3, cusp_side=cusp_side)
    radius = 2.0 * dlam3
    for side_name, sign in (("cusp", cusp_side), ("smooth", -cusp_side)):
        lam3_here = lam_sw[2] + sign * dlam3
        zeros = []
        if side_name == "cusp":
            anchor = anchors[cusp_side][0]
            template = AugmentedState(problem, 1, anchor.u,
                                      anchor.lam.copy(), alpha=anchor.alpha,
                                      active=(0, 1))
            zeros.append(tuple(anchor.lam[:2]))
            start_kind = "anchored-cusp"
        else:
            lam_t = lam_sw.copy()
            lam_t[2] = lam3_here
            try:
                base, _ = locate(
                    AugmentedState(problem, 1, state.u, lam_t,
                                   alpha=state.alpha, active=(0,)),
                    tol, max(max_newton, 40))
            except ContinuationError as err:
                raise GeometryError(
                    f"smooth-side fold solve failed: {_cause(err)}") from err
            template = AugmentedState(problem, 1, base.u, base.lam.copy(),
                                      alpha=base.alpha, active=(0, 1))
            start_kind = "fold-solve"
        wrapper = augmented_continuation_problem(template,
                                                 monitors=("cusp",))

        def in_ball(z, lam3_fixed=lam3_here):
            lam = np.array([z[-2], z[-1], lam3_fixed])
            return bool(np.linalg.norm(lam - lam_sw) < radius)

        polyline = []
        stopped = []
        for direction in (1.0, -1.0):
            try:
                start = initial_point(
                    wrapper, template.pack(),
                    orient_vector=_orient(template.dimension, direction),
                    newton_tol=tol, max_newton=max_newton)
                run = run_branch(wrapper, start, ds0=0.01, ds_max=ds_max,
                                 max_steps=max_steps,
                                 monitor_names=("cusp",), bounds=in_ball,
                                 newton_tol=tol, max_newton=max_newton)
            except ContinuationError as err:
                raise GeometryError(
                    f"{side_name}-side fold line lost: {err}") from err
            stopped.append(run.stopped_on)
            polyline.extend((float(p.z[-2]), float(p.z[-1]))
                            for p in run.points)
            zeros.extend(tuple(e.point.z[-2:])
                         for e in _clean(run.events, "cusp"))
        distinct = _dedup_zeros(zeros, dedup_tol)
        report.slices.append(SliceReport(side_name, lam3_here, start_kind,
                                         len(distinct), distinct, polyline,
                                         stopped))
    report.counts = tuple(s.count for s in report.slices)
    return report
