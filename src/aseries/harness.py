"""End-to-end singularity workflows on the discretized problems.

Hunts a swallowtail through the solution -> fold -> cusp stages, refines
located points across grids, runs grid-convergence studies, and verifies
the fold-sheet geometry around a located swallowtail by slicing the
third parameter.

Each hunt stage handles its level k the same way: `climb` solves the
square level-k system and `trace_line` continues the level-k line,
watching the level-(k+1) test function.  `trace_line` is the one place
that runs a line in several directions: it yields one run per
direction, lazily, and every direction after the first that starts
begins from that first start reversed.  Cusp lines can run into
regions where the monitor grows without bound (a two-dimensional kernel
ahead); the hunt then pivots: it freezes the third parameter at a point
already reached on the cusp line, continues the fold line of that slice
to find a neighbouring cusp line, and resumes the monitor search there.
A direct chain locates its stages without lines, its fold from the
lowest Laplacian mode.  Every located point records its monitors by
name from `continuation.monitor_values`, the evaluator of a line's
monitors too.

`report.timings[stage]` is the time to locate that stage's point plus
trace its line; it stays out of `HuntReport.to_dict`, so that one
configuration always gives the same document.  No `ContinuationError`
and no failed monitor solve escapes a hunt: a failed solve, a located
point whose monitors cannot be evaluated (`SingularAuxiliaryError`) or
a line that cannot start gives a partial report whose note names the
error.  The pivot slice's window and directions are module constants.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .augmented import (
    MONITOR_ORDERS,
    AugmentedState,
    Linearization,
    Problem,
    SingularAuxiliaryError,
    residual_jacobian,
)
from .continuation import (
    MAX_NEWTON,
    NEWTON_TOL,
    ContinuationError,
    ConvergenceError,
    augmented_continuation_problem,
    initial_point,
    monitor_values,
    newton_solve,
    reversed_point,
    run_branch,
)
from .poisson import (
    Grid,
    GridFunction,
    Nonlinearity,
    interpolate_to,
    laplacian_eigenvector,
)

STAGES = ("solution", "fold", "cusp", "swallowtail")
LINES = ("solution branch", "fold line", "cusp line")
#: Pivot slices: (lam1, lam2) half-widths and continuation directions.
PIVOT_WINDOW = (0.05, 0.01)
SLICE_DIRECTIONS = (-1.0, 1.0)
#: Parameter distance below which two cusp points count as one.
DISTINCT_TOL = 1e-6
#: Geometry check: trace and slice step budgets, largest slice step.
TRACE_STEPS = 60
SLICE_STEPS = 200
SLICE_DS_MAX = 0.05


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
    newton_tol: float = NEWTON_TOL
    max_newton: int = MAX_NEWTON
    direct_start: bool = False


@dataclass
class LocatedPoint:
    """One converged root of an augmented system along the chain."""

    kind: str
    state: AugmentedState
    residual_inf: float
    newton_iters: int
    monitors: dict | None = None
    note: str = ""

    @property
    def lam(self) -> np.ndarray:
        return self.state.lam

    def to_dict(self) -> dict:
        doc = {
            "kind": self.kind,
            "lam": [float(v) for v in self.state.lam],
            "grid": [self.state.problem.grid.nx, self.state.problem.grid.ny],
            "level": self.state.level,
            "residual_inf": float(self.residual_inf),
            "newton_iters": int(self.newton_iters),
        }
        if self.monitors is not None:
            doc["monitors"] = dict(self.monitors)
        if self.note:
            doc["note"] = self.note
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

    def to_dict(self) -> dict:
        return {
            "nonlinearity": self.nonlinearity,
            "grid": list(self.grid),
            "seed": self.config.seed,
            "config": asdict(self.config),
            "stage_reached": self.stage_reached,
            "chain": [p.to_dict() for p in self.chain],
            "events": list(self.events),
            "note": self.note,
        }


def _recheck(state: AugmentedState) -> float:
    """Residual infinity norm, recomputed from the state alone."""
    return float(np.max(np.abs(residual_jacobian(state)[0])))


def locate(template: AugmentedState, tol: float = NEWTON_TOL,
           max_newton: int = MAX_NEWTON
           ) -> tuple[AugmentedState, int, float]:
    """Direct Newton solve of a square augmented system.

    The template must pin as many parameters as its system has surplus
    equations, making the packed system square.  Returns the converged
    state, the iteration count and the residual infinity norm of the
    Newton evaluation that accepted the state.  That evaluation
    assembled the system at the returned state itself, so the state is
    not assembled a second time to re-check it.
    """
    if template.dimension != template.residual_size:
        raise ValueError("direct location needs a square system; "
                         f"got {template.dimension} unknowns for "
                         f"{template.residual_size} equations")
    res = None

    def system(z):
        nonlocal res
        res, jac = residual_jacobian(template.with_vector(z))
        return res, jac

    z, iters = newton_solve(system, template.pack(), tol, max_newton)
    return template.with_vector(z), iters, float(np.max(np.abs(res)))


def _cause(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _located(state: AugmentedState, iters: int, residual: float,
             note: str = "") -> LocatedPoint:
    """LocatedPoint of a `locate` result; residual is its accepted norm.
    Its monitors are those that the jet of its Linearization reaches:
    cusp and swallowtail, and butterfly at level 3."""
    lin = Linearization(state, 4 if state.level == 3 else 3)
    names = [k for k, n in MONITOR_ORDERS.items() if n <= lin.max_order]
    return LocatedPoint(STAGES[state.level], state, residual, iters,
                        monitor_values(lin, names), note)


def _event_doc(stage: str, event, active: tuple) -> dict:
    return {
        "stage": stage,
        "kind": event.kind,
        "lam_active": [float(v) for v in event.point.z[-len(active):]],
        "s": float(event.point.s),
        "monitor_value": float(event.monitor_value),
        "approximate": bool(event.approximate),
    }


def window_bounds(center: np.ndarray, widths) -> callable:
    """Bounds predicate of z: are its last len(widths) entries strictly
    within widths of center?"""
    widths = np.asarray(widths, dtype=float)

    def bounds(z):
        return bool(np.all(np.abs(z[-len(widths):] - center) < widths))

    return bounds


def seed_kernel_vector(problem: Problem, seed: int) -> np.ndarray:
    """Random kernel-vector guess, normalized to the discrete L2 norm."""
    rng = np.random.default_rng(seed)
    return problem.normalize(rng.standard_normal(problem.grid.size))


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


def climb(state: AugmentedState, level: int, tol: float, max_newton: int,
          **overrides) -> tuple[AugmentedState, int, float]:
    """`locate` the square level-`level` system seeded by `state`.

    Frees lam[:level], starts a level-3 vbar at zero and takes every
    other field from `overrides`, else from `state`.
    """
    vbar = np.zeros(state.problem.grid.size) if level == 3 else None
    fields = dict(level=level, lam=state.lam.copy(), vbar=vbar,
                  active=tuple(range(level)))
    fields.update(overrides)
    return locate(replace(state, **fields), tol, max_newton)


def trace_line(state: AugmentedState, level: int, directions,
               bounds, ds0: float, ds_max: float, max_steps: int,
               tol: float, max_newton: int, stop: bool = True):
    """Continue the level-`level` line through `state`, lam[:level + 1]
    free, each way in `directions`: yields (direction, template, run)
    per direction, lazily.

    Each run watches the next stage (lam1 turning on the solution
    branch, else its monitor) and with `stop` ends at its first event;
    its first point is the oriented start.  The first run that starts
    converges the line's start; each later run starts from it reversed
    (`reversed_point`), so directions after the first are the other way
    and a line traced both ways converges one start.  run is the
    ContinuationError of a direction that cannot start.
    """
    template = replace(state, level=level, lam=state.lam.copy(), vbar=None,
                       active=tuple(range(level + 1)))
    watch = STAGES[level + 1]
    wrapper = augmented_continuation_problem(
        template, (watch,) if level > 0 else (), tol, max_newton)
    first = None
    for direction in directions:
        try:
            start = (initial_point(wrapper, template.pack(), direction)
                     if first is None else reversed_point(first))
            run = run_branch(wrapper, start, ds0=ds0, ds_max=ds_max,
                             max_steps=max_steps,
                             stop_at=(watch,) if stop else (), bounds=bounds)
        except ContinuationError as err:
            yield direction, template, err
            continue
        first = run.points[0]
        yield direction, template, run


def _line_events(state: AugmentedState, level: int, directions,
                 config: HuntConfig, report: HuntReport, notes: list):
    """The hunt's level-`level` line each way in `directions`, lazily:
    yields (direction, event state or None, template, run).

    A cusp line keeps to stage3_window, the others to the lam_bounds
    box.  A direction that cannot start (run its ContinuationError), or
    a solution or fold line without event, leaves a note.
    """
    if level < 2:
        width = (config.lam_bounds,) * (level + 1)
        bounds = window_bounds(np.zeros(level + 1), width)
        ds0, ds_max = config.ds0, config.ds_max
    else:
        bounds = window_bounds(state.lam.copy(), config.stage3_window)
        ds0, ds_max = 0.05, 0.1
    watch = STAGES[level + 1]
    for direction, template, run in trace_line(
            state, level, directions, bounds, ds0, ds_max, config.max_steps,
            config.newton_tol, config.max_newton):
        if isinstance(run, ContinuationError):
            notes.append(f"{LINES[level]} dir {direction:+.0f}: {_cause(run)}")
            yield direction, None, template, run
            continue
        if level == 0:  # its start is the hunt's first chain point
            start = template.with_vector(run.points[0].z)
            report.chain.append(LocatedPoint("solution", start,
                                             _recheck(start),
                                             run.points[0].newton_iters))
        # the solution branch's first fold event counts even when bracketed
        events = [e for e in run.events
                  if e.kind == watch and (level == 0 or not e.approximate)]
        found = None
        if events:
            report.events.append(_event_doc(STAGES[level], events[0],
                                            template.active))
            found = template.with_vector(events[0].point.z)
        elif level < 2:
            notes.append(f"no {watch} event ({LINES[level]}: "
                         f"{run.stopped_on})")
        yield direction, found, template, run


def _slice_for_cusp(pivot: AugmentedState, config: HuntConfig):
    """(LocatedPoint, event) of a new cusp on the pivot's lam3 slice.

    (None, None) when the slice finds no cusp distinct from the pivot
    whose monitors can be evaluated.
    """
    window = window_bounds(pivot.lam[:2].copy(), PIVOT_WINDOW)
    for _, template, run in trace_line(
            pivot, 1, SLICE_DIRECTIONS, window, 0.02, 0.1, config.max_steps,
            config.newton_tol, config.max_newton):
        if isinstance(run, ContinuationError):
            continue
        for event in _clean(run.events, "cusp"):
            try:
                located = climb(template.with_vector(event.point.z), 2,
                                config.newton_tol, config.max_newton)
                if np.linalg.norm(located[0].lam - pivot.lam) > DISTINCT_TOL:
                    return _located(*located, note="pivot slice"), event
            except (ContinuationError, SingularAuxiliaryError):
                continue
    return None, None


def _swallowtail_event(cusp: AugmentedState, config: HuntConfig,
                       report: HuntReport, notes: list):
    """State at the first refined swallowtail event (or None); pivots.

    The cusp line runs lam3_direction's way first.  When a run's
    monitor keeps sign, pivot slices off that run look for a second
    cusp, whose line is searched both ways, the other way first, before
    the first cusp line runs its other way.
    """
    sign = float(config.lam3_direction)
    for direction, found, template, run in _line_events(
            cusp, 2, (sign, -sign), config, report, notes):
        if found is not None:
            return found
        if isinstance(run, ContinuationError):
            continue
        notes.append(f"cusp line dir {direction:+.0f}: monitor kept sign "
                     f"({run.stopped_on})")
        for offset in config.pivot_offsets:
            point = next((p for p in run.points
                          if abs(p.z[-1] - cusp.lam[2]) >= offset), None)
            if point is None:
                break
            pivot = template.with_vector(point.z)
            located, slice_event = _slice_for_cusp(pivot, config)
            if located is None:
                continue
            notes.append(f"pivot slice at lam3 = {pivot.lam[2]:+.6f} "
                         f"found a second cusp line")
            report.events.append(_event_doc("pivot", slice_event, (0, 1)))
            report.chain.append(located)
            found = next((state for _, state, _, _ in _line_events(
                located.state, 2, (-sign, sign), config, report, notes)
                if state is not None), None)
            if found is not None:
                return found
    return None


def _stage(state: AugmentedState, level: int, config: HuntConfig,
           report: HuntReport, notes: list) -> AugmentedState | None:
    """Locate the level's point from `state`, then trace its line.

    A direct chain starts its fold's kernel vector at the lowest
    Laplacian mode, so its fold is the first eigenvalue's, traces no
    line and nudges lam off the previous root.  Returns the next
    stage's start, or None with a note.
    """
    stage = STAGES[level]
    if level > 0:
        overrides = {}
        if level == 1 and config.direct_start:
            overrides["alpha"] = state.problem.normalize(
                laplacian_eigenvector(state.problem.grid))
        elif level == 1:
            overrides["alpha"] = seed_kernel_vector(state.problem,
                                                    config.seed)
        elif config.direct_start:
            overrides["lam"] = _nudged(state.lam)
        try:
            located = climb(state, level, config.newton_tol,
                            config.max_newton, **overrides)
        except ContinuationError as err:
            notes.append(f"{stage} system did not converge: {_cause(err)}")
            return None
        try:
            report.chain.append(_located(*located))
        except SingularAuxiliaryError as err:
            notes.append(f"{stage} monitors failed: {_cause(err)}")
            return None
        report.stage_reached = stage
        state = located[0]
    if level == 3 or config.direct_start:
        return state
    if level == 2:
        return _swallowtail_event(state, config, report, notes)
    direction = 1.0 if level == 0 else float(config.lam2_direction)
    return next(_line_events(state, level, (direction,), config, report,
                             notes))[1]


def hunt_swallowtail(nl: Nonlinearity, grid: Grid,
                     config: HuntConfig | None = None) -> HuntReport:
    """Stage the solution -> fold -> cusp -> swallowtail chain.

    A stage that fails or finds no event within the budget ends the hunt
    with a partial report whose note says why.
    """
    config = config or HuntConfig()
    report = HuntReport(type(nl).__name__, (grid.nx, grid.ny), config)
    state = AugmentedState(Problem(grid, nl), 0, np.zeros(grid.size),
                           config.lam0, active=(0,))
    notes = []
    for level, stage in enumerate(STAGES):
        if level == 0 and config.direct_start:
            continue
        t0 = time.perf_counter()
        state = _stage(state, level, config, report, notes)
        report.timings[stage] = time.perf_counter() - t0
        if state is None:
            break
    report.note = "; ".join(notes)
    return report


def refine_on_grid(state: AugmentedState, grid: Grid,
                   tol: float = NEWTON_TOL,
                   max_newton: int = MAX_NEWTON) -> tuple[AugmentedState, int]:
    """Transfer a converged augmented root to another grid and re-solve.

    Grid functions move by bilinear interpolation with the zero boundary
    kept; parameters are carried over; the kernel vector is renormalized
    on the new grid before the Newton iteration, unless its normalization
    residual is already below tol.
    """
    coarse = state.problem.grid
    target = Problem(grid, state.problem.nl)

    def move(values):
        return interpolate_to(GridFunction(values, coarse), grid).values

    u = move(state.u)
    alpha = vbar = None
    if state.level >= 1:
        alpha = move(state.alpha)
        square = target.inner(alpha, alpha)
        if square == 0.0:
            raise RefinementError("kernel vector vanished under refinement")
        # a root on its own grid keeps its kernel vector bit for bit
        if abs(square - 1.0) >= tol:
            alpha = alpha / np.sqrt(square)
    if state.level == 3:
        vbar = move(state.vbar)
    template = AugmentedState(target, state.level, u, state.lam.copy(),
                              alpha=alpha, vbar=vbar, active=state.active)
    try:
        return locate(template, tol, max_newton)[:2]
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

    def to_dict(self) -> dict:
        return {"rows": [row.to_dict() for row in self.rows],
                "note": self.note}


def convergence_study(nl: Nonlinearity, sizes,
                      seed_state: AugmentedState | None = None,
                      independent: bool = False,
                      config: HuntConfig | None = None) -> ConvergenceTable:
    """Track a swallowtail across square grids N in `sizes`.

    Default mode chains: the seed (which must live on the first grid)
    is refined onto each next grid, each result seeding the following
    one.  With `independent` set, every grid instead runs its own hunt
    from scratch, for robustness comparison against the chained
    protocol.  Both modes take their Newton tolerance and iteration cap
    from `config` (default `HuntConfig()`); the hunts use all of it.
    `sizes` must increase.  A failure truncates the table and records
    the reason.  Distances are to the finest completed grid.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("need at least one grid size")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"grid sizes must increase, got {sizes}")
    config = config or HuntConfig()
    table = ConvergenceTable()

    def append(n, state, iters):
        table.rows.append(ConvergenceRow(n, tuple(state.lam), iters))
        table.states.append(state)

    if independent:
        for n in sizes:
            report = hunt_swallowtail(nl, Grid(n, n), config)
            if report.stage_reached != "swallowtail":
                table.note = (f"stopped at N = {n}: hunt reached "
                              f"{report.stage_reached} ({report.note})")
                break
            append(n, report.swallowtail.state,
                   report.swallowtail.newton_iters)
    else:
        if seed_state is None:
            raise ValueError("chained refinement needs a seed state")
        if seed_state.problem.grid.nx != sizes[0] or \
                seed_state.problem.grid.ny != sizes[0]:
            raise ValueError("seed state lives on the wrong grid")
        append(sizes[0], seed_state, 0)  # a chain's first row is its seed
        for n in sizes[1:]:
            try:
                state, iters = refine_on_grid(table.states[-1], Grid(n, n),
                                              config.newton_tol,
                                              config.max_newton)
            except RefinementError as err:
                table.note = f"stopped at N = {n}: {err}"
                break
            append(n, state, iters)
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
    stopped: list = field(default_factory=list)


@dataclass
class GeometryReport:
    """Cusp counts on fold-line slices on both sides of a swallowtail."""

    lam_sw: tuple
    dlam3: float
    at_singularity: bool = False
    cusp_side: int = 0
    counts: tuple | None = None
    slices: list = field(default_factory=list)


def _dedup_zeros(zeros) -> list:
    kept = []
    for z in zeros:
        if all(np.linalg.norm(np.asarray(z) - np.asarray(k)) > DISTINCT_TOL
               for k in kept):
            kept.append(z)
    return kept


def verify_swallowtail_geometry(state: AugmentedState) -> GeometryReport:
    """Count cusps on fold-line slices just off a swallowtail.

    Traces the cusp line through the given swallowtail until the third
    parameter moves by dlam3, a tenth of its magnitude; the
    side the line lives on is the cusp side.  That side's slice starts
    at a traced cusp; the other side's slice starts from a fold solve
    seeded by the swallowtail data.  Each slice runs the fold line both
    ways inside a parameter ball of radius 2 dlam3 and counts distinct
    cusp-monitor zeros.  A swallowtail shows the pair (2, 0).  No
    command runs it: it is the geometry check of the acceptance tests,
    kept as the package's workflow for it.
    """
    if state.level < 2:
        raise ValueError("need a swallowtail state with a kernel vector")
    lam_sw = state.lam.copy()
    dlam3 = 0.1 * abs(lam_sw[2])
    if dlam3 == 0.0:
        return GeometryReport(tuple(lam_sw), 0.0, at_singularity=True)

    # trace the cusp line away from the swallowtail on both sides
    anchors = {}
    for _, template, run in trace_line(
            state, 2, (1.0, -1.0), lambda z: abs(z[-1] - lam_sw[2]) < dlam3,
            0.02, 0.1, TRACE_STEPS, NEWTON_TOL, MAX_NEWTON, stop=False):
        if isinstance(run, ContinuationError):
            raise GeometryError(f"cusp line trace failed: {run}") from run
        end = template.with_vector(run.points[-1].z)
        offset = end.lam[2] - lam_sw[2]
        if abs(offset) < dlam3:
            continue
        side = 1 if offset > 0 else -1
        lam_t = end.lam.copy()
        lam_t[2] = lam_sw[2] + side * dlam3
        try:
            anchor = climb(end, 2, NEWTON_TOL, MAX_NEWTON, lam=lam_t)[0]
        except ContinuationError:
            continue
        anchors.setdefault(side, anchor)
    if not anchors:
        raise GeometryError("cusp line never left the slice window")
    cusp_side = 1 if 1 in anchors else -1

    lam_t = lam_sw.copy()
    lam_t[2] = lam_sw[2] - cusp_side * dlam3
    try:
        smooth = climb(state, 1, NEWTON_TOL, max(MAX_NEWTON, 40),
                       lam=lam_t)[0]
    except ContinuationError as err:
        raise GeometryError(
            f"smooth-side fold solve failed: {_cause(err)}") from err

    report = GeometryReport(tuple(lam_sw), dlam3, cusp_side=cusp_side)
    radius = 2.0 * dlam3
    for side_name, sign, base, start_kind in (
            ("cusp", cusp_side, anchors[cusp_side], "anchored-cusp"),
            ("smooth", -cusp_side, smooth, "fold-solve")):
        lam3_here = lam_sw[2] + sign * dlam3
        zeros = [tuple(base.lam[:2])] if side_name == "cusp" else []

        def in_ball(z, lam3_fixed=lam3_here):
            lam = np.array([z[-2], z[-1], lam3_fixed])
            return bool(np.linalg.norm(lam - lam_sw) < radius)

        stopped = []
        for _, _, run in trace_line(base, 1, (1.0, -1.0), in_ball, 0.01,
                                    SLICE_DS_MAX, SLICE_STEPS, NEWTON_TOL,
                                    MAX_NEWTON, stop=False):
            if isinstance(run, ContinuationError):
                raise GeometryError(
                    f"{side_name}-side fold line lost: {run}") from run
            stopped.append(run.stopped_on)
            zeros.extend(tuple(e.point.z[-2:])
                         for e in _clean(run.events, "cusp"))
        distinct = _dedup_zeros(zeros)
        report.slices.append(SliceReport(side_name, lam3_here, start_kind,
                                         len(distinct), distinct, stopped))
    report.counts = tuple(s.count for s in report.slices)
    return report
