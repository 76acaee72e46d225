"""Tests for dependence analysis (T_dep, critical cycles)."""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ddg import Ddg, DdgError
from repro.ddg import analysis
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import clean_machine, motivating_machine, powerpc604
from tests.ddg.nxgraph import to_networkx


@pytest.fixture
def machine():
    return motivating_machine()


class TestTDep:
    def test_acyclic_is_one(self, machine):
        g = Ddg()
        g.add_op("a", "load")
        g.add_op("b", "fadd")
        g.add_dep("a", "b")
        assert analysis.t_dep(g, machine) == 1

    def test_self_loop(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")  # latency 2
        g.add_dep("a", "a", distance=1)
        assert analysis.t_dep(g, machine) == 2

    def test_self_loop_with_distance_two(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")
        g.add_dep("a", "a", distance=2)
        assert analysis.t_dep(g, machine) == 1  # ceil(2/2)

    def test_two_node_cycle(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")
        g.add_op("b", "fadd")
        g.add_dep("a", "b")
        g.add_dep("b", "a", distance=1)
        # cycle latency 4, distance 1 -> T_dep 4
        assert analysis.t_dep(g, machine) == 4

    def test_ceiling_rounding(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")
        g.add_op("b", "fadd")
        g.add_op("c", "fadd")
        g.add_dep("a", "b")
        g.add_dep("b", "c")
        g.add_dep("c", "a", distance=2)
        # latency 6 over distance 2 -> exactly 3
        assert analysis.t_dep(g, machine) == 3

    def test_max_over_cycles(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")
        g.add_op("b", "load")  # latency 3
        g.add_dep("a", "a", distance=1)       # ratio 2
        g.add_dep("b", "b", distance=1)       # ratio 3
        assert analysis.t_dep(g, machine) == 3

    def test_motivating_example_is_two(self, machine):
        assert analysis.t_dep(motivating_example(), machine) == 2

    def test_zero_distance_cycle_rejected(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")
        g.add_op("b", "fadd")
        g.add_dep("a", "b")
        g.add_dep("b", "a", distance=0)
        with pytest.raises(DdgError, match="distance 0"):
            analysis.t_dep(g, machine)

    def test_empty_ddg_rejected(self, machine):
        with pytest.raises(DdgError, match="empty"):
            analysis.t_dep(Ddg(), machine)


class TestFeasibility:
    def test_feasible_at_t_dep_infeasible_below(self, machine):
        g = motivating_example()
        bound = analysis.t_dep(g, machine)
        assert analysis.dependence_feasible(g, machine, bound)
        assert not analysis.dependence_feasible(g, machine, bound - 1)

    def test_nonpositive_period_infeasible(self, machine):
        assert not analysis.dependence_feasible(
            motivating_example(), machine, 0
        )


class TestCriticalCycle:
    def test_acyclic_returns_none(self, machine):
        g = Ddg()
        g.add_op("a", "load")
        assert analysis.critical_cycle(g, machine) is None

    def test_motivating_self_loop(self, machine):
        cycle = analysis.critical_cycle(motivating_example(), machine)
        assert cycle == [2]  # the self-loop on i2

    def test_cycle_achieves_bound(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")
        g.add_op("b", "fadd")
        g.add_dep("a", "b")
        g.add_dep("b", "a", distance=1)
        cycle = analysis.critical_cycle(g, machine)
        latency, distance = analysis.cycle_ratio(g, machine, cycle)
        bound = analysis.t_dep(g, machine)
        assert -(-latency // distance) == bound

    @pytest.mark.parametrize("deps", [
        [("b", "b")],                 # a self-loop
        [("a", "b"), ("b", "a")],     # a 2-cycle
    ])
    def test_t_dep_one_reports_the_cycle_networkx_finds(self, machine, deps):
        # One cycle of latency 1 per iteration carried keeps T_dep at 1.
        g = Ddg()
        g.add_op("a", "load")
        g.add_op("b", "fadd")
        g.add_op("c", "store")
        g.add_dep("a", "c")
        for src, dst in deps:
            g.add_dep(src, dst, distance=1, latency=1)
        assert analysis.t_dep(g, machine) == 1
        cycle = analysis.critical_cycle(g, machine)
        expected = [edge[0] for edge in nx.find_cycle(to_networkx(g))]
        assert sorted(cycle) == sorted(expected)
        for pos, src in enumerate(cycle):
            dst = cycle[(pos + 1) % len(cycle)]
            assert any(d.src == src and d.dst == dst for d in g.deps)

    def test_cycle_ratio_rejects_non_cycle(self, machine):
        g = Ddg()
        g.add_op("a", "fadd")
        g.add_op("b", "fadd")
        g.add_dep("a", "b")
        with pytest.raises(DdgError, match="no dependence"):
            analysis.cycle_ratio(g, machine, [0, 1])


class TestStructure:
    def test_has_recurrence(self, machine):
        assert analysis.has_recurrence(motivating_example())
        g = Ddg()
        g.add_op("a", "load")
        g.add_op("b", "fadd")
        g.add_dep("a", "b")
        assert not analysis.has_recurrence(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_property_t_dep_is_threshold(seed):
    """Property: T_dep is the exact feasibility threshold on random DDGs."""
    rng = random.Random(seed)
    machine = powerpc604()
    ddg = random_ddg(rng, machine, GeneratorConfig(min_ops=2, max_ops=8))
    bound = analysis.t_dep(ddg, machine)
    assert analysis.dependence_feasible(ddg, machine, bound)
    if bound > 1:
        assert not analysis.dependence_feasible(ddg, machine, bound - 1)
    assert analysis.dependence_feasible(ddg, machine, bound + 5)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_property_critical_cycle_certifies_bound(seed):
    """Property: the returned critical cycle's ratio rounds up to T_dep."""
    rng = random.Random(seed)
    machine = clean_machine()
    ddg = random_ddg(rng, machine, GeneratorConfig(min_ops=3, max_ops=8))
    bound = analysis.t_dep(ddg, machine)
    cycle = analysis.critical_cycle(ddg, machine)
    if bound > 1:
        assert cycle is not None
        latency, distance = analysis.cycle_ratio(ddg, machine, cycle)
        assert distance >= 1
        assert -(-latency // distance) == bound
