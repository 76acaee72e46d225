"""Regression tests: solve() validates its parameters up front.

Previously a non-positive time limit flowed straight into the
backends, where scipy silently treats ``time_limit <= 0`` as *no
limit* — an unbounded solve where the caller asked for an instant
one.  :class:`SolverError` now fires before any backend is touched.
"""

import pytest

from repro.ilp import Model
from repro.ilp.errors import SolverError
from repro.ilp.solve import solve


@pytest.fixture
def model():
    m = Model("tiny")
    x = m.add_var("x", lb=0, ub=5, integer=True)
    m.add(x >= 2)
    m.minimize(x)
    return m


@pytest.mark.parametrize("bad", [0, -1, -0.5, float("nan")])
def test_nonpositive_time_limit_rejected(model, bad):
    with pytest.raises(SolverError, match="time_limit must be > 0"):
        solve(model, time_limit=bad)


@pytest.mark.parametrize("bad", ["10", True, None])
def test_non_numeric_time_limit_rejected(model, bad):
    if bad is None:
        solve(model)  # None means "no limit" and stays legal
        return
    with pytest.raises(SolverError, match="time_limit must be"):
        solve(model, time_limit=bad)


def test_unknown_backend_rejected(model):
    with pytest.raises(SolverError, match="unknown backend"):
        solve(model, backend="cplex")
    # The deleted branch & bound backend is unknown too.
    with pytest.raises(SolverError, match="unknown backend 'bnb'"):
        solve(model, backend="bnb")


def test_auto_is_highs(model):
    assert solve(model, backend="auto").backend == "highs"
