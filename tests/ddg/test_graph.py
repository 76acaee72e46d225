"""Tests for the DDG data structure."""

import pytest

from repro.ddg import Ddg, DdgError
from tests.ddg.nxgraph import to_networkx


@pytest.fixture
def graph():
    g = Ddg("g")
    g.add_op("a", "load")
    g.add_op("b", "fadd")
    g.add_op("c", "store")
    g.add_dep("a", "b")
    g.add_dep("b", "c", distance=0)
    g.add_dep("b", "b", distance=1)
    return g


class TestOps:
    def test_indices_sequential(self, graph):
        assert [op.index for op in graph.ops] == [0, 1, 2]

    def test_duplicate_name_rejected(self, graph):
        with pytest.raises(DdgError, match="duplicate"):
            graph.add_op("a", "load")

    def test_contains(self, graph):
        assert "a" in graph
        assert "z" not in graph

    def test_op_lookup_by_name_index_and_op(self, graph):
        by_name = graph.op("b")
        assert graph.op(1) is by_name
        assert graph.op(by_name) is by_name

    def test_unknown_name(self, graph):
        with pytest.raises(DdgError, match="unknown op name"):
            graph.op("zz")

    def test_index_out_of_range(self, graph):
        with pytest.raises(DdgError, match="out of range"):
            graph.op(99)

    def test_foreign_op_rejected(self, graph):
        other = Ddg("other")
        foreign = other.add_op("x", "load")
        with pytest.raises(DdgError, match="different DDG"):
            graph.add_dep(foreign, "a")

    def test_bad_reference_type(self, graph):
        with pytest.raises(DdgError, match="cannot resolve"):
            graph.op(3.14)  # type: ignore[arg-type]

    def test_iteration(self, graph):
        assert [op.name for op in graph] == ["a", "b", "c"]


class TestDeps:
    def test_counts(self, graph):
        assert graph.num_deps == 3

    def test_negative_distance_rejected(self, graph):
        with pytest.raises(DdgError, match=">= 0"):
            graph.add_dep("a", "c", distance=-1)

    def test_zero_distance_self_loop_rejected(self, graph):
        with pytest.raises(DdgError, match="same iteration"):
            graph.add_dep("a", "a", distance=0)

    def test_positive_distance_self_loop_ok(self, graph):
        dep = graph.add_dep("c", "c", distance=2)
        assert dep.distance == 2

    def test_successors(self, graph):
        succ = graph.successors("b")
        names = sorted(op.name for op, _ in succ)
        assert names == ["b", "c"]

    def test_predecessors(self, graph):
        pred = graph.predecessors("b")
        names = sorted(op.name for op, _ in pred)
        assert names == ["a", "b"]

    def test_kind_label(self, graph):
        dep = graph.add_dep("a", "c", kind="anti")
        assert dep.kind == "anti"


class TestQueries:
    def test_classes_used_in_order(self, graph):
        assert graph.classes_used() == ["load", "fadd", "store"]

    def test_latencies(self, graph):
        from repro.machine.presets import motivating_machine

        machine = motivating_machine()
        assert graph.latencies(machine) == [3, 2, 1]

    def test_validate_against_unknown_class(self, graph):
        from repro.machine import MachineError
        from repro.machine.presets import nonpipelined_machine

        with pytest.raises(MachineError):
            graph.validate_against(nonpipelined_machine())

    def test_to_networkx(self, graph):
        nxg = to_networkx(graph)
        assert nxg.number_of_nodes() == 3
        assert nxg.number_of_edges() == 3

    def test_to_networkx_with_latencies(self, graph):
        from repro.machine.presets import motivating_machine

        nxg = to_networkx(graph, motivating_machine())
        assert nxg.nodes[0]["latency"] == 3

    def test_copy_is_deep_enough(self, graph):
        clone = graph.copy("clone")
        clone.add_op("d", "load")
        assert graph.num_ops == 3
        assert clone.num_ops == 4
        assert clone.name == "clone"

    def test_parallel_edges_preserved(self, graph):
        graph.add_dep("a", "b", distance=1)
        assert graph.num_deps == 4
        assert to_networkx(graph).number_of_edges() == 4
