"""Tests for the CPLEX LP format writer."""

from repro.core import Formulation
from repro.ddg.kernels import motivating_example
from repro.ilp import Model
from repro.ilp.lp_format import write_lp
from repro.machine.presets import motivating_machine


class TestBasicOutput:
    def test_sections_present(self):
        m = Model("demo")
        x = m.add_var("x", lb=0, ub=3, integer=True)
        y = m.add_var("y", lb=1)
        m.add(x + 2 * y <= 7, name="cap")
        m.minimize(x + y)
        text = write_lp(m)
        for section in ("Minimize", "Subject To", "Bounds", "General", "End"):
            assert section in text

    def test_constraint_line(self):
        m = Model()
        x = m.add_var("x")
        m.add(2 * x >= 4, name="low")
        text = write_lp(m)
        assert "low: 2 x >= 4" in text

    def test_maximize(self):
        m = Model()
        x = m.add_var("x", ub=1)
        m.maximize(x)
        assert "Maximize" in write_lp(m)

    def test_unit_coefficients_have_no_number(self):
        m = Model()
        x = m.add_var("x")
        y = m.add_var("y")
        m.add(x - y <= 0, name="c")
        text = write_lp(m)
        assert "c: x - y <= 0" in text

    def test_infinite_upper_bound(self):
        m = Model()
        m.add_var("x", lb=2)
        assert "2 <= x <= +inf" in write_lp(m)

    def test_no_general_section_for_pure_lp(self):
        m = Model()
        x = m.add_var("x")
        m.minimize(x)
        assert "General" not in write_lp(m)

    def test_feasibility_objective_parseable(self):
        m = Model()
        x = m.add_binary("x")
        m.add(x >= 0)
        text = write_lp(m)
        assert "obj: 0 x" in text


class TestNameHandling:
    def test_brackets_sanitized(self):
        m = Model()
        m.add_var("a[0,3]")
        text = write_lp(m)
        assert "a[0,3]" not in text
        assert "a_0_3_" in text

    def test_duplicate_names_uniquified(self):
        m = Model()
        m.add_var("x")
        m.add_var("x")
        text = write_lp(m)
        assert "x_1" in text

    def test_leading_digit_prefixed(self):
        m = Model()
        m.add_var("0bad")
        assert "v_0bad" in write_lp(m)


class TestSchedulingModelExport:
    def test_motivating_formulation_exports(self, tmp_path):
        f = Formulation(motivating_example(), motivating_machine(), 4)
        f.build()
        text = write_lp(f.model)
        path = tmp_path / "model.lp"
        path.write_text(text, encoding="utf-8")
        assert "assign_0_" in text
        assert "dep_0_" in text
        assert text.count("\n") > f.model.num_constraints
