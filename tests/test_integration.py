"""Cross-module integration and end-to-end property tests.

These tie the whole stack together: generator -> bounds -> ILP ->
extraction -> independent verifier -> cycle-accurate simulator, plus
cross-backend agreement and heuristic dominance, on randomized loops.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    MappingError,
    lower_bounds,
    schedule_loop,
    verify_schedule,
)
from repro.baselines import iterative_modulo_schedule, list_schedule
from repro.core.schedule import greedy_mapping
from repro.ddg.generators import GeneratorConfig, random_ddg, suite
from repro.machine.presets import (
    clean_machine,
    motivating_machine,
    powerpc604,
    unclean_demo_machine,
)
from repro.sim import simulate


class TestPublicApi:
    def test_quickstart_flow(self):
        """The README quickstart, as a test."""
        from repro import kernels, presets

        machine = presets.motivating_machine()
        loop = kernels.motivating_example()
        result = schedule_loop(loop, machine)
        assert result.schedule is not None
        assert "motivating" in result.summary()

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestFullStackOnCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return suite(20, powerpc604(), seed=20)

    def test_schedule_verify_simulate(self, corpus):
        machine = powerpc604()
        scheduled = 0
        for ddg in corpus:
            result = schedule_loop(ddg, machine, time_limit_per_t=5.0)
            if result.schedule is None:
                continue
            scheduled += 1
            verify_schedule(result.schedule)
            report = simulate(result.schedule, iterations=8)
            assert report.ok, (ddg.name, report.first_violation())
        assert scheduled >= len(corpus) * 3 // 4

    def test_t_never_below_bounds(self, corpus):
        machine = powerpc604()
        for ddg in corpus[:10]:
            result = schedule_loop(ddg, machine, time_limit_per_t=5.0)
            if result.achieved_t is not None:
                assert result.achieved_t >= result.bounds.t_lb


class TestBackendAgreement:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_backends_agree_on_achieved_t(self, seed):
        machine = unclean_demo_machine()
        ddg = random_ddg(
            random.Random(seed), machine,
            GeneratorConfig(min_ops=2, max_ops=5,
                            class_weights={"op": 1.0}),
        )
        highs = schedule_loop(ddg, machine, backend="highs", max_extra=12)
        sat = schedule_loop(ddg, machine, backend="sat", max_extra=12)
        assert highs.achieved_t == sat.achieved_t


class TestUncleanDemoMachine:
    def test_single_unclean_unit_serializes(self):
        """On one FU with table [[1,0,1],[0,1,0]], two independent ops
        can still dovetail: the ILP should find the interleaving."""
        machine = unclean_demo_machine()
        from repro.ddg import Ddg

        g = Ddg("two")
        g.add_op("a", "op")
        g.add_op("b", "op")
        result = schedule_loop(g, machine)
        assert result.schedule is not None
        verify_schedule(result.schedule)
        # stage-0 usage: 2 cells per op -> T_res = 4.
        assert result.bounds.t_res == 4

    def test_greedy_vs_ilp_gap_exists_somewhere(self):
        """The coloring ILP must beat greedy mapping on the §2 instance —
        regression test that the phenomenon stays reproducible."""
        machine = motivating_machine()
        from repro.ddg.kernels import motivating_example

        ddg = motivating_example()
        counting = schedule_loop(ddg, machine, mapping=False)
        assert counting.achieved_t == 3
        with pytest.raises(MappingError):
            greedy_mapping(
                ddg, machine, counting.schedule.starts, 3
            )


class TestHeuristicsIntegration:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_property_ordering_ilp_heuristic_sequential(self, seed):
        """T_lb <= T_ilp <= II_heuristic and T_ilp <= II_sequential."""
        machine = clean_machine()
        ddg = random_ddg(
            random.Random(seed), machine,
            GeneratorConfig(min_ops=2, max_ops=8),
        )
        bounds = lower_bounds(ddg, machine)
        ilp = schedule_loop(ddg, machine, max_extra=30)
        heuristic = iterative_modulo_schedule(ddg, machine)
        sequential = list_schedule(ddg, machine)
        if ilp.achieved_t is None:
            return
        assert bounds.t_lb <= ilp.achieved_t
        assert ilp.achieved_t <= sequential.effective_ii
        if heuristic.achieved_ii is not None:
            assert ilp.achieved_t <= heuristic.achieved_ii
