"""Tests for Schedule objects and the greedy mapper."""

import pytest

from repro.core.errors import MappingError, VerificationError
from repro.core.schedule import Schedule, greedy_mapping
from repro.ddg import Ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import clean_machine, motivating_machine


@pytest.fixture
def schedule_b():
    """The paper's Schedule B (reconstructed starts)."""
    ddg = motivating_example()
    machine = motivating_machine()
    starts = [0, 1, 3, 5, 7, 11]
    colors = greedy_mapping(ddg, machine, starts, 4)
    return Schedule(ddg=ddg, machine=machine, t_period=4,
                    starts=starts, colors=colors)


class TestGreedyMapping:
    def test_schedule_b_is_mappable(self, schedule_b):
        assert schedule_b.has_complete_mapping
        # i2 and i4 collide on every FP stage: different units.
        assert schedule_b.colors[2] != schedule_b.colors[4]

    def test_schedule_a_is_not_mappable(self):
        """The §2 phenomenon: T=3 starts admit no fixed assignment."""
        ddg = motivating_example()
        machine = motivating_machine()
        with pytest.raises(MappingError, match="no fixed FU assignment"):
            greedy_mapping(ddg, machine, [0, 1, 3, 5, 7, 11], 3)

    def test_clean_machine_always_mappable(self):
        machine = clean_machine(int_units=2)
        g = Ddg()
        for i in range(4):
            g.add_op(f"a{i}", "add")
        # Two ops per slot <= 2 units.
        colors = greedy_mapping(g, machine, [0, 0, 1, 1], 2)
        assert colors[0] != colors[1]
        assert colors[2] != colors[3]

    def test_partial_pins_respected(self):
        ddg = motivating_example()
        machine = motivating_machine()
        colors = greedy_mapping(
            ddg, machine, [0, 1, 3, 5, 7, 11], 4, partial={2: 1}
        )
        assert colors[2] == 1
        assert colors[4] == 0

    def test_conflicting_pins_raise_verification_error(self):
        ddg = motivating_example()
        machine = motivating_machine()
        with pytest.raises(VerificationError, match="collides"):
            greedy_mapping(
                ddg, machine, [0, 1, 3, 5, 7, 11], 4,
                partial={2: 0, 4: 0},
            )


class TestPeriodicViews:
    def test_offsets_and_k(self, schedule_b):
        assert schedule_b.offsets == [0, 1, 3, 1, 3, 3]
        assert schedule_b.k_vector == [0, 0, 0, 1, 1, 2]

    def test_a_matrix_matches_paper(self, schedule_b):
        a = schedule_b.a_matrix
        assert a[1].tolist() == [0, 1, 0, 1, 0, 0]
        assert a[3].tolist() == [0, 0, 1, 0, 1, 1]

    def test_software_stages(self, schedule_b):
        assert schedule_b.num_software_stages == 3

    def test_span(self, schedule_b):
        # i5 (store, latency 1) starts at 11 -> completes at 12.
        assert schedule_b.span == 12


class TestUsageTables:
    def test_aggregate_within_capacity(self, schedule_b):
        assert schedule_b.stage_usage_table("FP").max() <= 2
        assert schedule_b.stage_usage_table("MEM").max() <= 1

    def test_per_copy_binary(self, schedule_b):
        for copy in range(2):
            assert schedule_b.stage_usage_table("FP", copy).max() <= 1

    def test_aggregate_is_sum_of_copies(self, schedule_b):
        total = schedule_b.stage_usage_table("FP")
        parts = sum(
            schedule_b.stage_usage_table("FP", c) for c in range(2)
        )
        assert (total == parts).all()

    def test_usage_counts_cells(self, schedule_b):
        # 3 fadds x 4 cells each = 12 cells total on FP.
        assert schedule_b.stage_usage_table("FP").sum() == 12


class TestRendering:
    def test_kernel_rows_cover_all_ops(self, schedule_b):
        rows = schedule_b.kernel_rows()
        entries = [e for row in rows for e in row]
        assert len(entries) == 6
        assert any(e.startswith("i2/FP") for e in entries)

    def test_render_kernel_header(self, schedule_b):
        text = schedule_b.render_kernel()
        assert "T=4" in text and "stages=3" in text

    def test_render_tka(self, schedule_b):
        text = schedule_b.render_tka()
        assert "K = [0, 0, 0, 1, 1, 2]'" in text

    def test_render_usage_per_unit(self, schedule_b):
        text = schedule_b.render_usage("FP")
        assert "FP#0" in text and "FP#1" in text

    def test_fu_label_unmapped(self):
        ddg = motivating_example()
        machine = motivating_machine()
        schedule = Schedule(ddg=ddg, machine=machine, t_period=4,
                            starts=[0, 1, 3, 5, 7, 11], colors={})
        assert schedule.fu_label(2) == "FP?"
        assert not schedule.has_complete_mapping

    def test_to_dict_round(self, schedule_b):
        data = schedule_b.to_dict()
        assert data["t_period"] == 4
        assert data["starts"] == [0, 1, 3, 5, 7, 11]
        assert set(data["colors"]) == {str(i) for i in range(6)}


class TestSerialization:
    def test_dict_round_trip(self, schedule_b):
        rebuilt = Schedule.from_dict(
            schedule_b.to_dict(), schedule_b.ddg, schedule_b.machine
        )
        assert rebuilt.starts == schedule_b.starts
        assert rebuilt.colors == schedule_b.colors
        assert rebuilt.t_period == schedule_b.t_period

    def test_json_file_round_trip(self, schedule_b, tmp_path):
        import json

        from repro.core import verify_schedule

        path = tmp_path / "schedule.json"
        schedule_b.save_json(path)
        rebuilt = Schedule.from_dict(
            json.loads(path.read_text(encoding="utf-8")),
            schedule_b.ddg, schedule_b.machine,
        )
        verify_schedule(rebuilt)
        assert rebuilt.k_vector == schedule_b.k_vector

    def test_wrong_loop_rejected(self, schedule_b):
        from repro.core.errors import VerificationError
        from repro.ddg.kernels import dot_product

        data = schedule_b.to_dict()
        with pytest.raises(VerificationError, match="saved for loop"):
            Schedule.from_dict(data, dot_product(), schedule_b.machine)

    def test_truncated_starts_rejected(self, schedule_b):
        from repro.core.errors import VerificationError

        data = schedule_b.to_dict()
        data["starts"] = data["starts"][:-1]
        with pytest.raises(VerificationError, match="starts"):
            Schedule.from_dict(data, schedule_b.ddg, schedule_b.machine)
