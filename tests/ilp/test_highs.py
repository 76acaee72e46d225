"""Tests for the HiGHS backend adapter and the dispatcher."""

import pytest

from repro.ilp import Model, SolverError, SolveStatus


class TestHighsBackend:
    def test_optimal(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=10, integer=True)
        m.add(3 * x >= 7)
        m.minimize(x)
        sol = m.solve(backend="highs")
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.backend == "highs"
        assert sol.int_value(x) == 3

    def test_maximize_objective_mapped_back(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=7, integer=True)
        m.add(x <= 5)
        m.maximize(2 * x)
        sol = m.solve(backend="highs")
        assert sol.objective == pytest.approx(10.0)

    def test_infeasible(self):
        m = Model()
        x = m.add_binary("x")
        m.add(x >= 2)
        assert m.solve(backend="highs").status == SolveStatus.INFEASIBLE

    def test_no_constraints(self):
        m = Model()
        x = m.add_var("x", lb=1, ub=4, integer=True)
        m.minimize(x)
        sol = m.solve(backend="highs")
        assert sol.objective == pytest.approx(1.0)

    def test_objective_constant_preserved(self):
        m = Model()
        x = m.add_var("x", lb=2, ub=8)
        m.minimize(x + 100)
        sol = m.solve(backend="highs")
        assert sol.objective == pytest.approx(102.0)

    def test_solve_seconds_recorded(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x)
        sol = m.solve(backend="highs")
        assert sol.solve_seconds >= 0.0

    def test_int_value_rejects_fractional(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=5)  # continuous
        m.add(2 * x >= 5)
        m.minimize(x)
        sol = m.solve(backend="highs")
        with pytest.raises(ValueError, match="non-integral"):
            sol.int_value(x)


class TestHighsMipStart:
    """scipy's milp has no native start; the adapter adds a cutoff row."""

    def test_feasibility_start_is_honoured(self):
        # Constant objective + feasible start: the vacuous cutoff row
        # keeps every point, and HiGHS proves one optimal.
        m = Model()
        x = m.add_binary("x")
        y = m.add_binary("y")
        m.add(x + y == 1)
        sol = m.solve(backend="highs", mip_start={x: 1.0, y: 0.0})
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.int_value(x) + sol.int_value(y) == 1
        assert sol.objective == pytest.approx(0.0)

    def test_optimal_start_keeps_optimum(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=10, integer=True)
        y = m.add_var("y", lb=0, ub=10, integer=True)
        m.add(2 * x + 3 * y >= 12)
        m.minimize(x + y)
        cold = m.solve(backend="highs")
        warm = m.solve(backend="highs", mip_start={x: 0.0, y: 4.0})
        assert warm.status.has_solution
        assert warm.objective == pytest.approx(cold.objective)

    def test_invalid_start_ignored(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=10, integer=True)
        m.add(3 * x >= 7)
        m.minimize(x)
        sol = m.solve(backend="highs", mip_start={x: 0.5})
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.int_value(x) == 3

    def test_gap_zero_when_proven(self):
        m = Model()
        x = m.add_var("x", lb=0, ub=10, integer=True)
        m.add(3 * x >= 7)
        m.minimize(x)
        sol = m.solve(backend="highs", mip_start={x: 3.0})
        assert sol.status == SolveStatus.OPTIMAL
        assert sol.gap is not None and sol.gap == pytest.approx(
            0.0, abs=1e-6
        )


class TestDispatch:
    def test_unknown_backend_rejected(self):
        m = Model()
        m.add_var("x")
        with pytest.raises(SolverError, match="unknown backend"):
            m.solve(backend="cplex")

    def test_auto_prefers_highs(self):
        m = Model()
        x = m.add_binary("x")
        m.minimize(x)
        assert m.solve(backend="auto").backend == "highs"

    def test_bool_of_solution(self):
        m = Model()
        x = m.add_binary("x")
        m.add(x >= 2)
        assert not m.solve()
        m2 = Model()
        y = m2.add_binary("y")
        m2.minimize(y)
        assert m2.solve()
