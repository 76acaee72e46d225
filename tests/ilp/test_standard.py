"""Tests for the model-to-arrays lowering."""

import math

from repro.ilp import Model
from repro.ilp.standard import to_arrays


class TestToArrays:
    def test_objective_vector(self):
        m = Model()
        x, y = m.add_var("x"), m.add_var("y")
        m.minimize(2 * x - y + 7)
        form = to_arrays(m)
        assert list(form.c) == [2.0, -1.0]
        assert form.c0 == 7.0
        assert not form.flipped

    def test_maximize_negates(self):
        m = Model()
        x = m.add_var("x")
        m.maximize(3 * x + 1)
        form = to_arrays(m)
        assert list(form.c) == [-3.0]
        assert form.c0 == -1.0
        assert form.flipped
        assert form.user_objective(-5.0) == 5.0

    def test_row_bounds_by_sense(self):
        m = Model()
        x = m.add_var("x")
        m.add(x <= 4)
        m.add(x >= 1)
        m.add(x == 2)
        form = to_arrays(m)
        assert form.row_upper[0] == 4.0 and form.row_lower[0] == -math.inf
        assert form.row_lower[1] == 1.0 and form.row_upper[1] == math.inf
        assert form.row_lower[2] == form.row_upper[2] == 2.0

    def test_duplicate_terms_accumulate(self):
        m = Model()
        x = m.add_var("x")
        m.add(x + x + 2 * x <= 8)
        form = to_arrays(m)
        assert form.a_csr[0, 0] == 4.0

    def test_integrality_mask(self):
        m = Model()
        m.add_var("x", integer=True)
        m.add_var("y")
        form = to_arrays(m)
        assert list(form.integrality) == [True, False]

    def test_variable_bounds(self):
        m = Model()
        m.add_var("x", lb=1, ub=3)
        m.add_var("y", lb=0)
        form = to_arrays(m)
        assert list(form.lb) == [1.0, 0.0]
        assert form.ub[0] == 3.0
        assert form.ub[1] == math.inf

    def test_row_names_preserved(self):
        m = Model()
        x = m.add_var("x")
        m.add(x <= 1, name="cap")
        assert to_arrays(m).row_names == ["cap"]

    def test_shapes(self):
        m = Model()
        xs = [m.add_var(f"x{i}") for i in range(4)]
        m.add(xs[0] + xs[3] <= 1)
        form = to_arrays(m)
        assert form.a_csr.shape == (1, 4)
        assert form.num_vars == 4
        assert form.num_rows == 1
        assert form.nnz == 2
