"""The names and call forms that the benchmark under bench/ relies on.

The tracer wraps module-level names of the package and reports a name
that no longer exists as absent instead of failing; the scaling probe
calls private helpers directly.  These tests fail first when a refactor
would silently blind the benchmark.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from aseries import augmented, continuation

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
