"""Tests for DDG transformations (unrolling, composition)."""

import pytest

from repro.core import schedule_loop, verify_schedule
from repro.ddg import DdgError
from repro.ddg.analysis import t_dep
from repro.ddg.kernels import dot_product, livermore_kernel11, motivating_example
from repro.ddg.transforms import unroll
from repro.machine.presets import powerpc604


class TestUnrollStructure:
    def test_factor_one_is_copy(self):
        g = motivating_example()
        u = unroll(g, 1)
        assert u.num_ops == g.num_ops
        assert u is not g

    def test_op_count_scales(self):
        g = motivating_example()
        u = unroll(g, 3)
        assert u.num_ops == 18
        assert u.num_deps == 18

    def test_rejects_bad_factor(self):
        with pytest.raises(DdgError):
            unroll(motivating_example(), 0)

    def test_names_are_suffixed(self):
        u = unroll(dot_product(), 2)
        assert "acc__u0" in u
        assert "acc__u1" in u

    def test_intra_deps_stay_within_copy(self):
        """Original m=0 edges never cross unroll copies."""
        g = dot_product()
        original_intra = {
            (g.ops[d.src].name, g.ops[d.dst].name)
            for d in g.deps if d.distance == 0
        }
        u = unroll(g, 2)
        for dep in u.deps:
            src_base, _, src_copy = u.ops[dep.src].name.partition("__u")
            dst_base, _, dst_copy = u.ops[dep.dst].name.partition("__u")
            if (src_base, dst_base) in original_intra:
                assert src_copy == dst_copy
                assert dep.distance == 0

    def test_carried_dep_rewiring(self):
        """A self-loop (m=1) unrolled by 2 becomes a cross-copy chain:
        copy0 -> copy1 at distance 0, copy1 -> copy0 at distance 1."""
        g = livermore_kernel11()  # add has a self-loop m=1
        u = unroll(g, 2)
        cross = [
            (u.ops[d.src].name, u.ops[d.dst].name, d.distance)
            for d in u.deps
            if u.ops[d.src].name.startswith("add")
            and u.ops[d.dst].name.startswith("add")
        ]
        assert ("add__u0", "add__u1", 0) in cross
        assert ("add__u1", "add__u0", 1) in cross


class TestUnrollSemantics:
    def test_t_dep_scales_linearly(self):
        """Unrolling k times multiplies the recurrence bound by k (the
        critical cycle's latency grows k-fold, distance unchanged)."""
        machine = powerpc604()
        g = livermore_kernel11()
        base = t_dep(g, machine)
        for factor in (2, 3):
            assert t_dep(unroll(g, factor), machine) == base * factor

    def test_unrolled_schedules_and_verifies(self):
        machine = powerpc604()
        u = unroll(dot_product(), 2)
        result = schedule_loop(u, machine)
        assert result.schedule is not None
        verify_schedule(result.schedule)

    def test_per_original_iteration_rate_not_worse(self):
        """T(unrolled)/k <= T(base): unrolling never hurts the rate."""
        machine = powerpc604()
        g = dot_product()
        base = schedule_loop(g, machine).achieved_t
        unrolled = schedule_loop(unroll(g, 2), machine, max_extra=20)
        assert unrolled.achieved_t is not None
        assert unrolled.achieved_t / 2 <= base
