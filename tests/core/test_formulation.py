"""Tests for the unified ILP formulation."""

import pytest

from repro.core import (
    Formulation,
    FormulationOptions,
    ModuloInfeasibleError,
    verify_schedule,
)
from repro.core.errors import CoreError, MappingError
from repro.core.formulation import OBJECTIVES, resolve_backend
from repro.ddg import Ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import (
    clean_machine,
    motivating_machine,
    nonpipelined_machine,
)


def _fp_triangle() -> Ddg:
    """Three independent FP ops — the §2 mapping stress case."""
    g = Ddg("fp3")
    for i in range(3):
        g.add_op(f"f{i}", "fadd")
    return g


class TestConstruction:
    def test_rejects_bad_period(self):
        with pytest.raises(CoreError):
            Formulation(_fp_triangle(), motivating_machine(), 0)

    def test_rejects_modulo_infeasible_period(self):
        machine = nonpipelined_machine(div_time=4)
        g = Ddg()
        g.add_op("d", "div")
        with pytest.raises(ModuloInfeasibleError):
            Formulation(g, machine, 2)

    def test_unknown_objective_rejected(self):
        with pytest.raises(CoreError, match="unknown objective"):
            FormulationOptions(objective="min_latency")

    def test_build_idempotent(self):
        f = Formulation(_fp_triangle(), motivating_machine(), 4)
        model1 = f.build()
        size = model1.num_constraints
        model2 = f.build()
        assert model2 is model1
        assert model2.num_constraints == size


class TestModelShape:
    def test_a_matrix_variables(self):
        f = Formulation(
            _fp_triangle(), motivating_machine(), 4,
            FormulationOptions(presolve=False),
        )
        f.build()
        assert len(f.a) == 4
        assert len(f.a[0]) == 3
        assert all(v.integer for row in f.a for v in row)

    def test_presolve_prunes_a_variables(self):
        """With presolve on, slots outside an op's window hold ``None``
        but every op keeps at least one live slot variable."""
        f = Formulation(_fp_triangle(), motivating_machine(), 4)
        f.build()
        assert len(f.a) == 4 and len(f.a[0]) == 3
        live = [
            sum(1 for t in range(4) if f.a[t][i] is not None)
            for i in range(3)
        ]
        assert all(count >= 1 for count in live)
        assert all(
            v.integer for row in f.a for v in row if v is not None
        )
        assert f.model_stats.eliminated_variables >= 0

    def test_assignment_rows_present(self):
        f = Formulation(_fp_triangle(), motivating_machine(), 4)
        model = f.build()
        names = [c.name for c in model.constraints]
        assert "assign[0]" in names and "assign[2]" in names

    def test_dependence_rows_present(self):
        f = Formulation(motivating_example(), motivating_machine(), 4)
        model = f.build()
        dep_rows = [c for c in model.constraints if c.name.startswith("dep[")]
        assert len(dep_rows) == motivating_example().num_deps

    def test_coloring_only_for_unclean_multicopy_types(self):
        f = Formulation(motivating_example(), motivating_machine(), 4)
        f.build()
        assert f.colored_types == ["FP"]
        fp_ops = {2, 3, 4}
        assert set(f.color) == fp_ops

    def test_clean_machine_has_no_colors(self):
        g = Ddg()
        for i in range(4):
            g.add_op(f"a{i}", "add")
        f = Formulation(g, clean_machine(int_units=2), 2)
        f.build()
        assert not f.color
        assert not f.colored_types

    def test_mapping_false_strips_coloring(self):
        options = FormulationOptions(mapping=False)
        f = Formulation(
            motivating_example(), motivating_machine(), 4, options
        )
        f.build()
        assert not f.color

    def test_mapping_true_forces_coloring_on_clean_types(self):
        g = Ddg()
        for i in range(4):
            g.add_op(f"a{i}", "add")
        options = FormulationOptions(mapping=True)
        f = Formulation(g, clean_machine(int_units=2), 2, options)
        f.build()
        assert f.color

    def test_single_copy_type_needs_no_colors(self):
        machine = motivating_machine(fp_units=1)
        g = Ddg()
        g.add_op("f0", "fadd")
        g.add_op("f1", "fadd")
        f = Formulation(g, machine, 4)
        f.build()
        assert not f.color  # capacity 1 rows already forbid overlap


class TestSolveAndExtract:
    def test_motivating_t3_infeasible_with_mapping(self):
        f = Formulation(motivating_example(), motivating_machine(), 3)
        assert not f.solve().status.has_solution

    def test_motivating_t3_feasible_counting_only(self):
        options = FormulationOptions(mapping=False)
        f = Formulation(
            motivating_example(), motivating_machine(), 3, options
        )
        solution = f.solve()
        assert solution.status.has_solution
        with pytest.raises(MappingError):
            f.extract(solution, require_mapping=True)
        partial = f.extract(solution, require_mapping=False)
        assert not partial.has_complete_mapping

    def test_motivating_t4_feasible_and_verifies(self):
        f = Formulation(motivating_example(), motivating_machine(), 4)
        solution = f.solve()
        assert solution.status.has_solution
        schedule = f.extract(solution)
        verify_schedule(schedule)
        assert schedule.t_period == 4

    def test_extract_requires_solution(self):
        f = Formulation(motivating_example(), motivating_machine(), 3)
        solution = f.solve()
        with pytest.raises(CoreError, match="cannot extract"):
            f.extract(solution)

    def test_both_backends_agree_on_feasibility(self):
        for t_period, feasible in ((3, False), (4, True)):
            for backend in ("highs", "sat"):
                f = Formulation(
                    motivating_example(), motivating_machine(), t_period
                )
                status = f.solve(backend=backend).status
                assert status.has_solution == feasible, (t_period, backend)

    def test_auto_runs_sat_for_feasibility_and_highs_otherwise(self):
        f = Formulation(motivating_example(), motivating_machine(), 4)
        assert f.solve().backend == "sat"
        options = FormulationOptions(objective="min_sum_t")
        f = Formulation(
            motivating_example(), motivating_machine(), 4, options
        )
        assert f.solve().backend == "highs"


class TestResolveBackend:
    def test_auto_is_sat_for_feasibility(self):
        assert resolve_backend("auto", "feasibility") == "sat"

    @pytest.mark.parametrize("objective", OBJECTIVES[1:])
    def test_auto_is_highs_beyond_feasibility(self, objective):
        assert resolve_backend("auto", objective) == "highs"

    @pytest.mark.parametrize("backend", ("highs", "sat"))
    def test_named_backends_resolve_to_themselves(self, backend):
        assert resolve_backend(backend, "feasibility") == backend


class TestObjectives:
    def test_min_sum_t_compacts(self):
        base = Formulation(
            motivating_example(), motivating_machine(), 4,
            FormulationOptions(objective="min_sum_t"),
        )
        solution = base.solve()
        schedule = base.extract(solution)
        verify_schedule(schedule)
        # min sum t at T=4 is known: 0+1+3+5+7+10 = 26.
        assert sum(schedule.starts) == 26

    def test_min_fu_uses_one_fp_when_t_allows(self):
        """At a large T the three FP ops fit on one unit."""
        options = FormulationOptions(objective="min_fu")
        f = Formulation(_fp_triangle(), motivating_machine(), 6, options)
        solution = f.solve()
        assert solution.status.has_solution
        schedule = f.extract(solution)
        assert schedule.fu_counts_used is not None
        assert schedule.fu_counts_used["FP"] == 1
        verify_schedule(schedule)

    def test_min_fu_infeasible_at_t3_even_with_both_units(self):
        """Three stage-3 arcs of length 2 pairwise overlap in Z_3, so
        even min_fu's full budget of 2 FP units cannot realize T=3."""
        options = FormulationOptions(objective="min_fu")
        f = Formulation(_fp_triangle(), motivating_machine(), 3, options)
        assert not f.solve().status.has_solution

    def test_min_fu_needs_two_fp_at_t4(self):
        options = FormulationOptions(objective="min_fu")
        f = Formulation(_fp_triangle(), motivating_machine(), 4, options)
        solution = f.solve()
        assert solution.status.has_solution
        schedule = f.extract(solution)
        assert schedule.fu_counts_used["FP"] == 2
        verify_schedule(schedule)

    def test_min_buffers_reduces_lifetimes(self):
        options = FormulationOptions(objective="min_buffers")
        f = Formulation(
            motivating_example(), motivating_machine(), 4, options
        )
        solution = f.solve()
        schedule = f.extract(solution)
        verify_schedule(schedule)

    def test_min_lifetimes_objective(self):
        """Sum of issue-to-use spans is minimized and never exceeds the
        feasibility solution's."""
        ddg = motivating_example()
        machine = motivating_machine()

        def spans(schedule):
            return sum(
                schedule.starts[d.dst] - schedule.starts[d.src]
                + 4 * d.distance
                for d in ddg.deps
            )

        plain = Formulation(ddg, machine, 4)
        plain_schedule = plain.extract(plain.solve())
        tuned = Formulation(
            ddg, machine, 4,
            FormulationOptions(objective="min_lifetimes"),
        )
        tuned_solution = tuned.solve()
        tuned_schedule = tuned.extract(tuned_solution)
        verify_schedule(tuned_schedule)
        assert spans(tuned_schedule) <= spans(plain_schedule)
        assert tuned_solution.objective == pytest.approx(
            spans(tuned_schedule)
        )

    def test_feasibility_objective_is_zero(self):
        f = Formulation(motivating_example(), motivating_machine(), 4)
        solution = f.solve()
        assert solution.objective == pytest.approx(0.0)


class TestSymmetryBreaking:
    def test_first_colored_op_gets_color_one(self):
        f = Formulation(motivating_example(), motivating_machine(), 4)
        solution = f.solve()
        first_fp = min(f.color)
        assert solution.int_value(f.color[first_fp]) == 1
