"""Tests for load CSE and store-to-load forwarding."""

from repro.core import schedule_loop, verify_schedule
from repro.ddg.analysis import t_dep
from repro.frontend import compile_loop
from repro.frontend.optimize import forward_stores, optimize
from repro.machine.presets import powerpc604


class TestLoadCse:
    def test_duplicate_loads_collapse(self):
        g = compile_loop("for i:\n    c[i] = a[i] * a[i]\n")
        loads = [op for op in g.ops if op.op_class == "load"]
        assert len(loads) == 1

    def test_different_offsets_stay(self):
        g = compile_loop("for i:\n    c[i] = a[i] * a[i-1]\n")
        loads = [op for op in g.ops if op.op_class == "load"]
        assert len(loads) == 2

    def test_store_invalidates_cache(self):
        g = compile_loop(
            "for i:\n    x = a[i]\n    a[i] = x + 1\n    c[i] = a[i]\n"
        )
        loads = [op for op in g.ops if op.op_class == "load"]
        assert len(loads) == 2  # reload after the store

    def test_cse_can_be_disabled(self):
        g = compile_loop("for i:\n    c[i] = a[i] * a[i]\n", cse=False)
        loads = [op for op in g.ops if op.op_class == "load"]
        assert len(loads) == 2

    def test_cross_statement_reuse(self):
        g = compile_loop(
            "for i:\n    x = a[i] + 1\n    y = a[i] + 2\n    c[i] = x * y\n"
        )
        loads = [op for op in g.ops if op.op_class == "load"]
        assert len(loads) == 1


class TestForwarding:
    def test_memory_recurrence_becomes_register_recurrence(self):
        machine = powerpc604()
        g = compile_loop("for i:\n    x[i] = x[i-1] + y[i]\n")
        assert t_dep(g, machine) == 6  # store + reload + add
        forwarded = optimize(g)
        assert t_dep(forwarded, machine) == 3  # just the add

    def test_forward_flag_on_compile(self):
        machine = powerpc604()
        g = compile_loop("for i:\n    x[i] = x[i-1] + y[i]\n",
                         forward=True)
        assert t_dep(g, machine) == 3

    def test_dead_load_removed(self):
        g = compile_loop("for i:\n    x[i] = x[i-1] + y[i]\n")
        forwarded = optimize(g)
        load_names = [op.name for op in forwarded.ops
                      if op.op_class == "load"]
        assert all(not name.startswith("ld_x") for name in load_names)

    def test_store_kept_for_memory_state(self):
        forwarded = optimize(
            compile_loop("for i:\n    x[i] = x[i-1] + y[i]\n")
        )
        assert any(op.op_class == "store" for op in forwarded.ops)

    def test_same_iteration_forwarding(self):
        """a[i] written then read in one iteration forwards at m=0."""
        g = compile_loop(
            "for i:\n    a[i] = b[i] + 1\n    c[i] = a[i] * 2\n"
        )
        forwarded = optimize(g)
        # The reload of a[i] disappears; the add feeds the mul directly.
        loads = [op.name for op in forwarded.ops if op.op_class == "load"]
        assert loads == ["ld_b_0"]
        edges = {
            (forwarded.ops[d.src].name, forwarded.ops[d.dst].name,
             d.distance)
            for d in forwarded.deps if d.kind == "flow"
        }
        assert ("t0", "t1", 0) in edges

    def test_multiple_writers_not_forwarded(self):
        """Two stores reaching one load leave it alone (safety)."""
        g = compile_loop(
            "for i:\n    d[i+1] = a[i]\n    d[i+2] = b[i]\n"
            "    c[i] = d[i]\n"
        )
        forwarded = optimize(g)
        loads = [op.name for op in forwarded.ops if op.op_class == "load"]
        assert any(name.startswith("ld_d") for name in loads)

    def test_forwarded_loops_schedule_and_verify(self):
        machine = powerpc604()
        sources = [
            "for i:\n    x[i] = x[i-1] + y[i]\n",
            "for i:\n    a[i] = b[i] + 1\n    c[i] = a[i] * 2\n",
            "for i:\n    d[i+1] = (d[i] + e[i]) * 0.5\n",
        ]
        for source in sources:
            plain = compile_loop(source)
            forwarded = compile_loop(source, forward=True)
            result_plain = schedule_loop(plain, machine)
            result_fwd = schedule_loop(forwarded, machine)
            verify_schedule(result_fwd.schedule)
            # Forwarding never slows the loop down.
            assert result_fwd.achieved_t <= result_plain.achieved_t

    def test_no_op_when_nothing_to_forward(self):
        g = compile_loop("for i:\n    c[i] = a[i] + b[i]\n")
        assert forward_stores(g).num_ops == g.num_ops
