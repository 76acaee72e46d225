"""Tests for initiation-interval lower bounds and period filtering."""

from repro.core import bounds
from repro.ddg import Ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import (
    clean_machine,
    motivating_machine,
    nonpipelined_machine,
)


def _loop_of(op_class: str, count: int) -> Ddg:
    g = Ddg(f"{count}x{op_class}")
    previous = None
    for i in range(count):
        op = g.add_op(f"n{i}", op_class)
        if previous is not None:
            g.add_dep(previous, op)
        previous = op
    return g


class TestTRes:
    def test_clean_pipeline_is_ops_over_units(self):
        machine = clean_machine(fp_units=1)
        assert bounds.t_res(_loop_of("fadd", 5), machine) == 5
        machine2 = clean_machine(fp_units=2)
        assert bounds.t_res(_loop_of("fadd", 5), machine2) == 3  # ceil(5/2)

    def test_non_pipelined_scales_with_busy_time(self):
        machine = nonpipelined_machine(div_units=1, div_time=4)
        assert bounds.t_res(_loop_of("div", 3), machine) == 12
        machine2 = nonpipelined_machine(div_units=2, div_time=4)
        assert bounds.t_res(_loop_of("div", 3), machine2) == 6

    def test_unclean_uses_busiest_stage(self):
        machine = motivating_machine(fp_units=2)
        # fadd uses stage 3 twice: 3 ops * 2 uses / 2 units = 3.
        assert bounds.t_res(_loop_of("fadd", 3), machine) == 3

    def test_minimum_is_one(self):
        machine = clean_machine(int_units=2)
        assert bounds.t_res(_loop_of("add", 1), machine) == 1

    def test_per_type_breakdown(self):
        machine = motivating_machine()
        per_type = bounds.per_type_t_res(motivating_example(), machine)
        assert per_type == {"FP": 3, "MEM": 3}

    def test_only_used_types_counted(self):
        machine = motivating_machine()
        per_type = bounds.per_type_t_res(_loop_of("load", 2), machine)
        assert set(per_type) == {"MEM"}


class TestLowerBounds:
    def test_motivating(self):
        lbs = bounds.lower_bounds(motivating_example(), motivating_machine())
        assert lbs.t_dep == 2
        assert lbs.t_res == 3
        assert lbs.t_lb == 3

    def test_t_lb_is_max(self):
        lbs = bounds.LowerBounds(t_dep=7, t_res=3)
        assert lbs.t_lb == 7


class TestModuloFilter:
    def test_clean_machine_all_feasible(self):
        machine = clean_machine()
        g = _loop_of("fadd", 2)
        assert all(
            bounds.modulo_feasible_t(g, machine, t) for t in range(1, 10)
        )

    def test_non_pipelined_small_periods_infeasible(self):
        machine = nonpipelined_machine(div_time=4)
        g = _loop_of("div", 1)
        assert not bounds.modulo_feasible_t(g, machine, 2)
        assert bounds.modulo_feasible_t(g, machine, 5)

    def test_only_used_classes_matter(self):
        machine = nonpipelined_machine(div_time=4)
        adds = _loop_of("add", 2)  # never touches the DIV unit
        assert bounds.modulo_feasible_t(adds, machine, 1)

    def test_infeasible_periods_listing(self):
        machine = nonpipelined_machine(div_time=4)
        g = _loop_of("div", 1)
        ruled_out = [
            t for t in range(1, 9)
            if not bounds.modulo_feasible_t(g, machine, t)
        ]
        assert ruled_out == [1, 2, 3]
