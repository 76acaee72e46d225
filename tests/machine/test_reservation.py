"""Tests for reservation tables and their modulo arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import MachineError, ReservationTable


class TestConstruction:
    def test_basic(self):
        table = ReservationTable([[1, 0], [0, 1]])
        assert table.num_stages == 2
        assert table.length == 2

    def test_rejects_empty(self):
        with pytest.raises(MachineError):
            ReservationTable([])

    def test_rejects_non_binary(self):
        with pytest.raises(MachineError, match="0 or 1"):
            ReservationTable([[2, 0]])

    def test_rejects_all_zero(self):
        with pytest.raises(MachineError, match="at least one"):
            ReservationTable([[0, 0], [0, 0]])

    def test_rejects_1d(self):
        with pytest.raises(MachineError):
            ReservationTable([1, 0])  # type: ignore[list-item]

    def test_matrix_is_readonly(self):
        table = ReservationTable([[1, 0]])
        with pytest.raises(ValueError):
            table.matrix[0, 0] = 0

    def test_clean_constructor(self):
        table = ReservationTable.clean(3)
        assert (table.matrix == np.eye(3, dtype=int)).all()
        assert table.is_clean

    def test_clean_rejects_zero_depth(self):
        with pytest.raises(MachineError):
            ReservationTable.clean(0)

    def test_non_pipelined_constructor(self):
        table = ReservationTable.non_pipelined(4)
        assert table.num_stages == 1
        assert table.length == 4
        assert table.stage_usage_counts() == [4]

    def test_from_rows(self):
        table = ReservationTable.from_rows([1, 0, 0], [0, 1, 0], [0, 1, 1])
        assert table.stage_cycles(2) == [1, 2]

    def test_equality_and_hash(self):
        a = ReservationTable([[1, 0], [0, 1]])
        b = ReservationTable([[1, 0], [0, 1]])
        c = ReservationTable([[1, 1]])
        assert a == b and hash(a) == hash(b)
        assert a != c


class TestQueries:
    def test_uses(self):
        table = ReservationTable([[1, 0, 1]])
        assert table.uses(0, 0)
        assert not table.uses(0, 1)
        assert table.uses(0, 2)
        assert not table.uses(0, 99)  # out of range is simply unused

    def test_stage_usage_counts(self):
        table = ReservationTable.from_rows([1, 0, 0], [0, 1, 0], [0, 1, 1])
        assert table.stage_usage_counts() == [1, 1, 2]
        assert table.max_stage_usage == 2

    def test_usage_offsets(self):
        table = ReservationTable.from_rows([1, 0], [0, 1])
        assert table.usage_offsets() == [(0, 0), (1, 1)]


class TestHazards:
    def test_clean_pipeline_no_forbidden(self):
        assert ReservationTable.clean(5).forbidden_latencies() == set()

    def test_non_pipelined_forbids_all_shorter(self):
        table = ReservationTable.non_pipelined(4)
        assert table.forbidden_latencies() == {1, 2, 3}

    def test_motivating_fp_table(self):
        # Figure 2's FP pipeline: stage 3 busy at cycles 1 and 2.
        table = ReservationTable.from_rows([1, 0, 0], [0, 1, 0], [0, 1, 1])
        assert table.forbidden_latencies() == {1}
        assert not table.is_clean

    def test_sparse_hazard(self):
        table = ReservationTable([[1, 0, 0, 1]])
        assert table.forbidden_latencies() == {3}

    def test_modulo_feasible(self):
        table = ReservationTable([[1, 0, 0, 1]])  # forbidden latency 3
        assert not table.modulo_feasible(1)
        assert not table.modulo_feasible(3)
        assert table.modulo_feasible(2)
        assert table.modulo_feasible(4)

    def test_modulo_feasible_rejects_bad_period(self):
        with pytest.raises(MachineError):
            ReservationTable.clean(1).modulo_feasible(0)

    def test_clean_always_modulo_feasible(self):
        table = ReservationTable.clean(4)
        assert all(table.modulo_feasible(t) for t in range(1, 10))

    def test_non_pipelined_feasible_only_at_busy_or_more(self):
        table = ReservationTable.non_pipelined(4)
        assert [t for t in range(1, 9) if table.modulo_feasible(t)] == [
            4, 5, 6, 7, 8,
        ]


class TestModuloWrap:
    def test_paper_figure2b(self):
        """The paper's Figure 2(b): the FP table wrapped to T=2."""
        table = ReservationTable.from_rows([1, 0, 0], [0, 1, 0], [0, 1, 1])
        wrapped = table.modulo_table(2)
        assert wrapped.tolist() == [[1, 0], [0, 1], [1, 1]]

    def test_identity_when_t_ge_length(self):
        table = ReservationTable.from_rows([1, 0], [0, 1])
        assert (table.modulo_table(4)[:, :2] == table.matrix).all()
        assert (table.modulo_table(4)[:, 2:] == 0).all()

    def test_counts_exceed_one_when_infeasible(self):
        table = ReservationTable([[1, 0, 1]])
        wrapped = table.modulo_table(2)
        assert wrapped[0, 0] == 2  # cycles 0 and 2 both land on slot 0

    def test_modulo_table_rejects_bad_period(self):
        with pytest.raises(MachineError):
            ReservationTable.clean(1).modulo_table(0)


class TestRender:
    def test_render_has_stage_rows(self):
        text = ReservationTable.clean(2).render("title")
        assert "title" in text
        assert "Stage  1" in text and "Stage  2" in text

    def test_repr_roundtrippable_shape(self):
        assert repr(ReservationTable([[1, 0]])) == "ReservationTable(10)"


@st.composite
def tables(draw):
    stages = draw(st.integers(1, 4))
    length = draw(st.integers(1, 6))
    rows = [
        [draw(st.integers(0, 1)) for _ in range(length)]
        for _ in range(stages)
    ]
    if not any(any(row) for row in rows):
        rows[0][0] = 1
    return ReservationTable(rows)


@settings(max_examples=60, deadline=None)
@given(tables(), st.integers(1, 8))
def test_modulo_feasibility_iff_wrap_is_binary(table, t_period):
    """Property: modulo_feasible(T) <=> the wrapped table is 0/1."""
    wrapped = table.modulo_table(t_period)
    assert table.modulo_feasible(t_period) == bool((wrapped <= 1).all())


@settings(max_examples=60, deadline=None)
@given(tables())
def test_total_usage_preserved_by_wrap(table):
    """Property: wrapping never loses or creates stage-usage cells."""
    wrapped = table.modulo_table(3)
    assert wrapped.sum() == table.matrix.sum()


@settings(max_examples=60, deadline=None)
@given(tables())
def test_forbidden_latencies_rule_out_their_divisors(table):
    """Property: a period equal to (or dividing) a forbidden latency is
    modulo-infeasible."""
    for latency in table.forbidden_latencies():
        assert not table.modulo_feasible(latency)
        for divisor in range(1, latency + 1):
            if latency % divisor == 0:
                assert not table.modulo_feasible(divisor)


def _preset_tables():
    from repro.machine.presets import PRESETS

    tables = {}
    for name, factory in PRESETS.items():
        machine = factory()
        for fu in machine.fu_types.values():
            tables[f"{name}/{fu.name}"] = fu.table
        for cls in machine.op_classes.values():
            tables[f"{name}/{cls.name}"] = machine.reservation_for(cls.name)
    return sorted(tables.items())


class TestCachedAnswers:
    """What the table caches on construction agrees with its matrix."""

    @pytest.mark.parametrize("name,table", _preset_tables())
    def test_preset_table_matches_matrix(self, name, table):
        matrix = table.matrix
        cycles_of = [
            [c for c in range(matrix.shape[1]) if matrix[s, c]]
            for s in range(matrix.shape[0])
        ]
        forbidden = {
            b - a for cycles in cycles_of for a in cycles for b in cycles
            if b > a
        }
        assert table.num_stages == len(cycles_of)
        for stage, cycles in enumerate(cycles_of):
            assert table.stage_cycles(stage) == cycles
        assert table.forbidden_latencies() == forbidden
        assert table.is_clean == (not forbidden)
        for t_period in range(1, 41):
            # No stage holds one op at two cycles congruent mod T.
            expected = all(
                len({c % t_period for c in cycles}) == len(cycles)
                for cycles in cycles_of
            )
            assert table.modulo_feasible(t_period) == expected

    def test_returned_collections_are_copies(self):
        table = ReservationTable([[1, 0, 1], [0, 1, 0]])
        table.stage_cycles(0).append(7)
        table.stage_cycles(1).clear()
        table.forbidden_latencies().add(1)
        table.forbidden_latencies().clear()
        assert table.stage_cycles(0) == [0, 2]
        assert table.stage_cycles(1) == [1]
        assert table.forbidden_latencies() == {2}
        assert not table.is_clean
        assert table.modulo_feasible(3) and not table.modulo_feasible(2)
