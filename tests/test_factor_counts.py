"""Which factorizations the robust 10x10 hunt runs, counted.

Every grid factor's input is gathered from G_u and its border in the
grid's order: each Jacobian that the hunt factors carries its grid, the
Problem of a level-0 SolutionJacobian or the Linearization of a
BlockJacobian, so none falls back to the identity order that a plain
matrix is gathered in.  An accepted point on a cusp line factors G_u
bordered by its kernel vector once per Newton iterate and once for its
tangent: the monitors solve with the tangent's BorderedGu.  Each
recorded monitor value is checked bit for bit against a fresh
Linearization and `solve_v` at its state.  A Jacobian keeps the
BorderedGu its factors share, so Newton lets one iterate's Jacobian go
before it assembles the next: no factor is alive at any assembly.
"""

import weakref

import pytest

from aseries import augmented, continuation
from aseries.augmented import (
    MONITOR_ORDERS,
    BlockJacobian,
    Linearization,
    SolutionJacobian,
    monitor_value,
    solve_v,
)
from aseries.harness import HuntConfig, hunt_swallowtail
from aseries.poisson import ExpSineNonlinearity, Grid

ROBUST_CONFIG = HuntConfig(lam0=(0.0, 0.15, 2.0), lam2_direction=1,
                           lam3_direction=-1, stage3_window=(3.0, 0.25, 2.5))
GRID = Grid(10, 10)


@pytest.fixture(scope="module")
def counted():
    """The hunt's report and, recorded by wrappers: the calls of each
    counted name, the type and grid of every Jacobian factored in
    continuation, (dimension, Newton iterations, splu calls by module)
    of each accepted point, (state, name, value) of each monitor
    evaluation, state the one its factor's Linearization was made at,
    and the number of BorderedGu factors alive at each assembly."""
    calls = {"augmented.splu": 0, "continuation.splu": 0}
    factored, points, monitored, alive = [], [], [], []
    factors = weakref.WeakSet()

    class TrackedBorderedGu(augmented.BorderedGu):
        def __init__(self, *args):
            super().__init__(*args)
            factors.add(self)

    assemble = augmented._assemble

    def tracked_assemble(state, level):
        alive.append(len(factors))
        return assemble(state, level)

    def counter(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    factor, pinned = continuation._factor, continuation._pinned_point
    pde_monitor = continuation._pde_monitor

    def recording_factor(jac, strict):
        # the type and grid only: holding jac would keep its factor alive
        owner = jac if isinstance(jac, SolutionJacobian) else jac.lin
        problem = None if owner is None else owner.problem
        factored.append((type(jac), None if problem is None else problem.grid))
        return factor(jac, strict)

    def recording_pinned(problem, anchor, *args):
        before = dict(calls)
        point = pinned(problem, anchor, *args)
        points.append((anchor.size, point.newton_iters,
                       {k: calls[k] - before[k] for k in calls}))
        return point

    def recording_monitor(name):
        monitor = pde_monitor(name)

        def recorded(z, factor):
            value = monitor(z, factor)
            monitored.append((factor.lu.jac.lin.state, name, value))
            return value
        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(augmented, "splu", counter("augmented.splu",
                                              augmented.splu))
        mp.setattr(continuation, "splu", counter("continuation.splu",
                                                 continuation.splu))
        mp.setattr(continuation, "_factor", recording_factor)
        mp.setattr(continuation, "_pinned_point", recording_pinned)
        mp.setattr(continuation, "_pde_monitor", recording_monitor)
        mp.setattr(augmented, "BorderedGu", TrackedBorderedGu)
        mp.setattr(augmented, "_assemble", tracked_assemble)
        report = hunt_swallowtail(ExpSineNonlinearity(), GRID,
                                  ROBUST_CONFIG)
    assert report.stage_reached == "swallowtail"
    return report, calls, factored, points, monitored, alive


def test_every_factored_jacobian_carries_its_grid(counted):
    _, calls, factored, _, _, _ = counted
    # every Newton iterate and tangent factored G_u and its border, in
    # the order of the hunt's grid
    assert set(factored) == {(BlockJacobian, GRID), (SolutionJacobian, GRID)}
    assert calls["augmented.splu"] > 0 and calls["continuation.splu"] > 0


def test_cusp_line_point_factors_only_newton_and_tangent(counted):
    _, _, _, points, _, _ = counted
    n = GRID.size
    cusp_line = [p for p in points if p[0] == 2 * n + 3]
    assert len(cusp_line) > 10
    for _, iters, splus in cusp_line:
        assert splus == {"augmented.splu": iters + 1,
                         "continuation.splu": 0}


def test_monitor_values_match_a_fresh_evaluation(counted):
    _, _, _, _, monitored, _ = counted
    names = {name for _, name, _ in monitored}
    assert names == {"cusp", "swallowtail"}
    for state, name, value in monitored:
        order = MONITOR_ORDERS[name]
        lin = Linearization(state, order - 1)
        jet = [solve_v(state, lin)] if order > 3 else []
        assert value == monitor_value(lin, order, jet)


def test_no_factor_alive_at_an_assembly(counted):
    # hundreds of assemblies, each after the last factor was let go
    alive = counted[5]
    assert len(alive) > 200
    assert max(alive) == 0
