"""The names and call forms that the benchmark under bench/ relies on.

The tracer wraps module-level names of the package and reports a name
that no longer exists as absent instead of failing; the scaling probe
calls private helpers directly.  These tests fail first when a refactor
would silently blind the benchmark.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aseries import augmented, continuation, harness
from aseries.poisson import Grid, PolynomialNonlinearity

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tracing():
    return _load("tracing")


@pytest.fixture(scope="module")
def scaling():
    return _load("scaling")


def test_every_span_target_resolves(tracing):
    missing = [f"{module}.{path}" for module, path, *_ in tracing.SPANS
               if tracing._resolve(module, path) is None]
    assert missing == []


def test_rank_check_two_argument_call(scaling):
    state = scaling._states(15)[2]
    _, jac = augmented.residual_jacobian(state)
    probe = SimpleNamespace(check_rank=True, rank_tol=1e-8)
    assert continuation._check_rank(probe, jac) is None
    # the scaling probe builds the same call itself
    assert scaling._rank_check(state)() is None


def test_locate_is_looked_up_at_call_time(monkeypatch):
    # the tracer's harness.locate span wraps the module attribute; a
    # stage that bound `locate` at definition time would bypass it
    nl, grid = PolynomialNonlinearity((1.0,)), Grid(1, 1)
    config = harness.HuntConfig(direct_start=True)
    plain = harness.hunt_swallowtail(nl, grid, config)
    locate = harness.locate
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return locate(*args, **kwargs)

    monkeypatch.setattr(harness, "locate", counted)
    wrapped = harness.hunt_swallowtail(nl, grid, config)
    assert len(calls) == 3
    assert [p.kind for p in wrapped.chain] == [p.kind for p in plain.chain]
    for ours, theirs in zip(wrapped.chain, plain.chain):
        assert np.array_equal(ours.state.pack(), theirs.state.pack())
        assert np.array_equal(ours.lam, theirs.lam)
