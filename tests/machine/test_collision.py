"""Tests for collision vectors, state diagrams and MAL."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import ReservationTable
from repro.machine.collision import (
    analyze,
    build_state_diagram,
    greedy_cycle,
    initial_collision_vector,
    minimum_average_latency,
)


class TestCollisionVector:
    def test_clean_pipe_empty_vector(self):
        assert initial_collision_vector(ReservationTable.clean(1)) == ()
        assert initial_collision_vector(ReservationTable.clean(4)) == (
            0, 0, 0,
        )

    def test_non_pipelined_all_ones(self):
        table = ReservationTable.non_pipelined(4)
        assert initial_collision_vector(table) == (1, 1, 1)

    def test_motivating_fp(self):
        table = ReservationTable.from_rows([1, 0, 0], [0, 1, 0], [0, 1, 1])
        assert initial_collision_vector(table) == (1, 0)

    def test_sparse_table(self):
        table = ReservationTable([[1, 0, 0, 1]])
        assert initial_collision_vector(table) == (0, 0, 1)


class TestStateDiagram:
    def test_clean_single_state(self):
        diagram = build_state_diagram(ReservationTable.clean(3))
        assert diagram.num_states >= 1
        # Latency 1 always permissible and self-looping for clean pipes.
        assert diagram.transitions[diagram.initial][1] == diagram.initial

    def test_non_pipelined_only_drain(self):
        diagram = build_state_diagram(ReservationTable.non_pipelined(3))
        moves = diagram.transitions[diagram.initial]
        assert list(moves) == [3]  # only the drain transition

    def test_permissible_latencies_sorted(self):
        table = ReservationTable([[1, 0, 0, 1]])
        diagram = build_state_diagram(table)
        perms = diagram.permissible_latencies(diagram.initial)
        assert perms == sorted(perms)
        assert 3 not in perms  # forbidden latency


class TestGreedyCycleAndMal:
    def test_clean(self):
        assert greedy_cycle(ReservationTable.clean(5)) == [1]
        assert minimum_average_latency(ReservationTable.clean(5)) == 1

    def test_non_pipelined(self):
        table = ReservationTable.non_pipelined(4)
        assert greedy_cycle(table) == [4]
        assert minimum_average_latency(table) == 4

    def test_motivating_fp_mal_two(self):
        table = ReservationTable.from_rows([1, 0, 0], [0, 1, 0], [0, 1, 1])
        assert greedy_cycle(table) == [2]
        assert minimum_average_latency(table) == 2

    def test_kogge_classic_example(self):
        """Table with forbidden latencies {2} allows the 1,3 cycle? No:
        usage [[1,0,1]] forbids 2, greedy issues at 1 then adapts."""
        table = ReservationTable([[1, 0, 1]])
        mal = minimum_average_latency(table)
        # Busiest stage used twice -> MAL >= 2; latency pattern (1,3)
        # averages 2 and is collision-free, so MAL == 2.
        assert mal == 2

    def test_mal_can_beat_greedy(self):
        """Classic: greedy is not always optimal.  Forbidden {1, 5}:
        greedy takes 2,2,... hitting 4? construct and compare bounds."""
        table = ReservationTable([[1, 1, 0, 0, 0, 1]])
        mal = minimum_average_latency(table)
        greedy = greedy_cycle(table)
        greedy_avg = Fraction(sum(greedy), len(greedy))
        assert mal <= greedy_avg
        assert mal >= table.max_stage_usage


class TestAnalyze:
    def test_report_keys(self):
        report = analyze(ReservationTable.non_pipelined(3))
        assert report["forbidden_latencies"] == [1, 2]
        assert report["mal"] == 3
        assert report["greedy_cycle"] == [3]
        assert not report["is_clean"]

    def test_clean_report(self):
        report = analyze(ReservationTable.clean(2))
        assert report["is_clean"]
        assert report["mal"] == 1


@st.composite
def tables(draw):
    stages = draw(st.integers(1, 3))
    length = draw(st.integers(1, 5))
    rows = [
        [draw(st.integers(0, 1)) for _ in range(length)]
        for _ in range(stages)
    ]
    if not any(any(row) for row in rows):
        rows[0][0] = 1
    return ReservationTable(rows)


@settings(max_examples=50, deadline=None)
@given(tables())
def test_property_mal_sandwich(table):
    """Classical bounds: max stage usage <= MAL <= greedy average."""
    mal = minimum_average_latency(table)
    greedy = greedy_cycle(table)
    greedy_avg = Fraction(sum(greedy), len(greedy))
    assert Fraction(table.max_stage_usage) <= mal <= greedy_avg


@settings(max_examples=50, deadline=None)
@given(tables())
def test_property_greedy_cycle_is_collision_free(table):
    """Replaying the greedy cycle never collides on any stage."""
    cycle = greedy_cycle(table)
    issue_times = [0]
    for _ in range(3):  # a few rounds of the cycle
        for latency in cycle:
            issue_times.append(issue_times[-1] + latency)
    cells = set()
    for start in issue_times:
        for stage, offset in table.usage_offsets():
            cell = (stage, start + offset)
            assert cell not in cells
            cells.add(cell)
