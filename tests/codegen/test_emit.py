"""Tests for prolog/kernel/epilog emission."""

import pytest

from repro.codegen import emit_assembly, flat_listing, pipeline_sections
from repro.core import schedule_loop
from repro.core.schedule import Schedule, greedy_mapping
from repro.ddg.kernels import daxpy, motivating_example
from repro.machine.presets import motivating_machine, powerpc604


@pytest.fixture
def schedule_b():
    ddg = motivating_example()
    machine = motivating_machine()
    starts = [0, 1, 3, 5, 7, 11]
    colors = greedy_mapping(ddg, machine, starts, 4)
    return Schedule(ddg=ddg, machine=machine, t_period=4,
                    starts=starts, colors=colors)


class TestFlatListing:
    def test_all_instances_present(self, schedule_b):
        text = flat_listing(schedule_b, iterations=3)
        # Each op appears once per iteration column.
        assert text.count("i0") == 3
        assert text.count("i5") == 3

    def test_iteration_columns(self, schedule_b):
        text = flat_listing(schedule_b, iterations=2)
        assert "Iter 0" in text and "Iter 1" in text

    def test_rows_are_cycles(self, schedule_b):
        lines = flat_listing(schedule_b, iterations=2).splitlines()
        body = [line for line in lines[2:] if line.strip()]
        # First issuing cycle is 0 (i0 of iteration 0).
        assert body[0].startswith("   0 |")

    def test_overlap_visible(self, schedule_b):
        """Software pipelining overlaps iterations: some cycle issues
        ops from two different iterations."""
        text = flat_listing(schedule_b, iterations=3)
        overlapped = False
        for line in text.splitlines()[2:]:
            cells = line.split("|")[-1]
            if sum(1 for op in ("i0", "i1", "i2", "i3", "i4", "i5")
                   if op in cells) >= 2:
                overlapped = True
        assert overlapped


class TestSections:
    def test_motivating_sections(self, schedule_b):
        sections = pipeline_sections(schedule_b)
        # 3 software stages, T=4: kernel reached at cycle 8.
        assert sections.prolog_cycles == (0, 8)
        assert sections.kernel_cycles == (8, 12)
        assert sections.prolog_length == 8
        assert sections.epilog_span == schedule_b.span - 4

    def test_single_stage_loop_has_empty_prolog(self):
        machine = powerpc604()
        result = schedule_loop(daxpy(), machine, objective="min_sum_t")
        schedule = result.schedule
        sections = pipeline_sections(schedule)
        assert sections.prolog_length == (
            (schedule.num_software_stages - 1) * schedule.t_period
        )


class TestAssembly:
    def test_has_three_sections(self, schedule_b):
        text = emit_assembly(schedule_b)
        assert "PROLOG:" in text
        assert "KERNEL:" in text
        assert "EPILOG:" in text

    def test_kernel_has_t_rows(self, schedule_b):
        text = emit_assembly(schedule_b)
        for t in range(4):
            assert f"t={t}:" in text

    def test_ops_carry_fu_labels(self, schedule_b):
        text = emit_assembly(schedule_b)
        assert "@MEM0" in text
        assert "@FP" in text

    def test_trip_count_symbol(self, schedule_b):
        text = emit_assembly(schedule_b, trip_count_symbol="COUNT")
        assert "COUNT" in text


class TestAllocatedAssembly:
    def test_registers_annotated(self, schedule_b):
        from repro.registers import allocate_registers

        allocation = allocate_registers(schedule_b)
        text = emit_assembly(schedule_b, allocation=allocation)
        assert "register(s)" in text
        assert "->r" in text

    def test_stores_have_no_destination(self, schedule_b):
        from repro.registers import allocate_registers

        allocation = allocate_registers(schedule_b)
        text = emit_assembly(schedule_b, allocation=allocation)
        for line in text.splitlines():
            if "i5" in line and "t=" in line:
                assert "->r" not in line.split("i5", 1)[1].split(";")[0]

    def test_mve_unrolls_kernel(self):
        """A long lifetime forces unroll > 1: the kernel is emitted in
        copies with rotated register names."""
        from repro.core.schedule import Schedule
        from repro.ddg import Ddg
        from repro.machine.presets import powerpc604
        from repro.registers import allocate_registers

        machine = powerpc604()
        g = Ddg("slack")
        g.add_op("a", "add")
        g.add_op("b", "add")
        g.add_dep(a_op := 0, 1)
        schedule = Schedule(ddg=g, machine=machine, t_period=2,
                            starts=[0, 9], colors={0: 0, 1: 0})
        allocation = allocate_registers(schedule)
        assert allocation.unroll == 4
        text = emit_assembly(schedule, allocation=allocation)
        for copy in range(4):
            assert f".copy {copy}:" in text
        # The value's register rotates across copies.
        regs = {
            allocation.register_name(0, copy) for copy in range(4)
        }
        assert len(regs) == 4
        for reg in regs:
            assert f"->{reg}" in text
