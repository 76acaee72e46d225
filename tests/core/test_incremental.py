"""Incremental sweep core: byte parity, cut soundness, registry behavior.

The contract under test is strict: everything the
:class:`repro.core.incremental.SweepContext` feeds back into a build must
reproduce the cold path's output *exactly* (``render()``-identical
models, field-identical presolve info), and every recycled cut may fire
only where the cold path deterministically returns INFEASIBLE.
"""

import pathlib

import pytest

from repro.core import incremental
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.incremental import (
    CAPACITY_FLOOR,
    CYCLE_FLOOR,
    WINDOW_MEMO,
    CutPool,
    LoopAnalysis,
    SweepContext,
    clear_contexts,
    context_for,
    ddg_digest,
    incremental_stats,
    machine_digest,
)
from repro.core.presolve import _collapsed_edges, presolve
from repro.core.scheduler import AttemptConfig, attempt_period, schedule_loop
from repro.ddg.builders import parse_ddg, serialize_ddg
from repro.ddg.generators import suite
from repro.ddg.graph import Ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import motivating_machine, powerpc604

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[2] / "corpus"


@pytest.fixture(autouse=True)
def _fresh_registry():
    clear_contexts()
    yield
    clear_contexts()


def _no_context(ddg, machine):
    """``context_for`` with the registry switched off: every attempt
    then builds cold."""
    return None


def _loops(machine, count=6, seed=1207, max_ops=9):
    loops = [motivating_example()] + suite(count, machine, seed=seed)
    return [d for d in loops if d.num_ops <= max_ops]


class TestLoopAnalysis:
    def test_collapsed_edges_match_cold_exactly(self):
        machine = motivating_machine()
        for ddg in _loops(machine):
            analysis = LoopAnalysis(ddg, machine)
            for t_period in range(1, 9):
                assert analysis.collapsed_edges(t_period) == _collapsed_edges(
                    ddg, machine, t_period
                ), (ddg.name, t_period)

    def test_t_independent_products_match_cold(self):
        machine = motivating_machine()
        ddg = motivating_example()
        analysis = LoopAnalysis(ddg, machine)
        assert analysis.dep_latencies == list(ddg.dep_latencies(machine))
        assert analysis.total_latency == sum(ddg.latencies(machine))
        groups = {}
        for op in ddg.ops:
            fu = machine.op_class(op.op_class).fu_type
            groups.setdefault(fu, []).append(op.index)
        assert analysis.ops_by_type == groups

    def test_pair_diff_residues_are_per_t_offsets(self):
        # The per-T offset set must equal {d % T} over the raw diffs —
        # checked indirectly by presolve parity below, directly here.
        machine = motivating_machine()
        ddg = motivating_example()
        analysis = LoopAnalysis(ddg, machine)
        for (i, j, s), diffs in list(analysis._pair_diffs.items()):
            ci = analysis.stage_cycles.get((i, s), ())
            cj = analysis.stage_cycles.get((j, s), ())
            assert diffs == tuple(a - b for a in ci for b in cj)


class TestBuildParity:
    @pytest.mark.parametrize("objective", [
        "feasibility", "min_sum_t", "min_buffers", "min_fu",
    ])
    def test_model_byte_identical_with_context(self, objective):
        machine = motivating_machine()
        for ddg in _loops(machine, count=4):
            context = context_for(ddg, machine)
            for t_period in range(2, 8):
                for mapping in (None, True, False):
                    options = FormulationOptions(
                        objective=objective, mapping=mapping,
                        enforce_modulo_constraint=False,
                    )
                    cold = Formulation(ddg, machine, t_period, options)
                    cold.build()
                    fed = Formulation(
                        ddg, machine, t_period, options, context=context
                    )
                    fed.build()
                    assert fed.model.render() == cold.model.render(), (
                        ddg.name, t_period, objective, mapping
                    )

    def test_presolve_info_identical_with_analysis(self):
        machine = motivating_machine()
        for ddg in _loops(machine, count=4):
            analysis = LoopAnalysis(ddg, machine)
            for t_period in range(2, 8):
                cold = presolve(ddg, machine, t_period)
                fed = presolve(ddg, machine, t_period, analysis=analysis)
                assert fed.infeasible == cold.infeasible
                assert fed.k_max == cold.k_max
                assert fed.asap == cold.asap
                assert fed.latest == cold.latest
                assert fed.slot_windows == cold.slot_windows
                assert fed.k_bounds == cold.k_bounds
                assert fed.pairs == cold.pairs

    def test_reused_rows_accounted(self):
        machine = motivating_machine()
        ddg = motivating_example()
        context = context_for(ddg, machine)
        fed = Formulation(ddg, machine, 4, context=context)
        fed.build()
        stats = fed.model_stats
        assert stats.reused_rows > 0
        assert stats.reused_rows + stats.rebuilt_rows == stats.constraints
        cold = Formulation(ddg, machine, 4)
        cold.build()
        assert cold.model_stats.reused_rows == 0
        assert cold.model_stats.rebuilt_rows == cold.model_stats.constraints


class TestCutPool:
    def test_floor_validity_is_strict(self):
        pool = CutPool()
        pool.assert_floor(CYCLE_FLOOR, "m", 4)
        assert pool.consult("m", 3, "feasibility", None, None) == CYCLE_FLOOR
        assert pool.consult("m", 4, "feasibility", None, None) is None
        assert pool.consult("other", 3, "feasibility", None, None) is None
        pool.assert_floor(CAPACITY_FLOOR, "m", 6)
        assert (
            pool.consult("m", 5, "feasibility", None, None) == CAPACITY_FLOOR
        )
        # A floor never regresses to a weaker one.
        pool.assert_floor(CAPACITY_FLOOR, "m", 2)
        assert (
            pool.consult("m", 5, "feasibility", None, None) == CAPACITY_FLOOR
        )

    def test_window_memo_is_exact_tuple(self):
        pool = CutPool()
        pool.memoize_infeasible("m", 5, "feasibility", None, None, "solver")
        assert pool.consult("m", 5, "feasibility", None, None) == WINDOW_MEMO
        # Any differing coordinate misses.
        assert pool.consult("m", 6, "feasibility", None, None) is None
        assert pool.consult("m", 5, "min_sum_t", None, None) is None
        assert pool.consult("m", 5, "feasibility", 7, None) is None
        assert pool.consult("m", 5, "feasibility", None, True) is None
        assert pool.consult("x", 5, "feasibility", None, None) is None

    def test_harvest_through_attempt_period(self):
        machine = motivating_machine()
        ddg = motivating_example()
        config = AttemptConfig(backend="bnb", warmstart=False)
        context = context_for(ddg, machine)
        key = context.base_machine_key
        # T=3 needs the solver to prove infeasibility: memo only.
        first = attempt_period(ddg, machine, 3, config, context=context)
        assert first.attempt.status == "infeasible"
        assert "cut_skip" not in first.attempt.model_stats
        memo_key = (key, 3, "feasibility", None, None)
        assert context.cuts.window_memo[memo_key] == "solver"
        # The replay settles the retry without building anything.
        again = attempt_period(ddg, machine, 3, config, context=context)
        assert again.attempt.status == "infeasible"
        assert again.attempt.model_stats == {"cut_skip": WINDOW_MEMO}
        # T=2 is presolve-proven infeasible, which also certifies the
        # machine's dependence and capacity floors.
        below = attempt_period(ddg, machine, 2, config, context=context)
        assert below.attempt.status == "infeasible"
        assert "cut_skip" not in below.attempt.model_stats
        assert context.cuts.window_memo[
            (key, 2, "feasibility", None, None)
        ] == "presolve"
        assert context.cuts.cycle_floors[key] == 2
        assert context.cuts.capacity_floors[key] == 3
        # A retry of T=2 now sits below the capacity floor: floor-skip,
        # no memo lookup needed.
        retry = attempt_period(ddg, machine, 2, config, context=context)
        assert retry.attempt.status == "infeasible"
        assert retry.attempt.model_stats["cut_skip"] in (
            CYCLE_FLOOR, CAPACITY_FLOOR,
        )

    def test_cuts_never_fire_without_incremental(self, monkeypatch):
        machine = motivating_machine()
        ddg = motivating_example()
        context = context_for(ddg, machine)
        context.cuts.memoize_infeasible(
            context.base_machine_key, 3, "feasibility", None, None, "solver"
        )
        monkeypatch.setattr(incremental, "context_for", _no_context)
        config = AttemptConfig(backend="bnb", warmstart=False)
        outcome = attempt_period(ddg, machine, 3, config)
        assert outcome.attempt.status == "infeasible"
        assert "cut_skip" not in outcome.attempt.model_stats


class TestRegistry:
    def test_structurally_identical_loops_share_a_context(self):
        machine = motivating_machine()
        first = motivating_example()
        second = motivating_example()
        assert first is not second
        assert context_for(first, machine) is context_for(second, machine)
        stats = incremental_stats()
        assert stats["contexts"] == 1
        assert stats["registry_hits"] == 1
        assert stats["registry_misses"] == 1

    def test_distinct_machines_get_distinct_contexts(self):
        ddg = motivating_example()
        a = context_for(ddg, motivating_machine())
        b = context_for(ddg, powerpc604())
        assert a is not b

    def test_analysis_lru_per_attempt_machine(self):
        machine = motivating_machine()
        ddg = motivating_example()
        context = context_for(ddg, machine)
        one = context.analysis_for(machine)
        two = context.analysis_for(machine)
        assert one is two
        assert context.stats.analyses_built == 1
        assert context.stats.analysis_hits == 1

    def test_clear_contexts_resets(self):
        context_for(motivating_example(), motivating_machine())
        clear_contexts()
        stats = incremental_stats()
        assert stats["contexts"] == 0
        assert stats["registry_misses"] == 0

    def test_machine_key_matches_context_base(self):
        machine = motivating_machine()
        context = context_for(motivating_example(), machine)
        assert context.base_machine_key == machine_digest(machine)

    def test_context_survives_sweep_and_banks_cuts(self):
        machine = motivating_machine()
        ddg = motivating_example()
        result = schedule_loop(ddg, machine, backend="bnb", warmstart=False)
        assert result.achieved_t == 4
        stats = incremental_stats()
        assert stats["contexts"] == 1
        assert stats["cuts_harvested"] > 0
        # Sweeping the identical loop again replays the banked verdict.
        rerun = schedule_loop(
            motivating_example(), machine, backend="bnb", warmstart=False
        )
        assert rerun.achieved_t == 4
        assert rerun.is_rate_optimal_proven
        skipped = [
            a for a in rerun.attempts
            if "cut_skip" in a.model_stats
        ]
        assert skipped and all(a.status == "infeasible" for a in skipped)


class TestSweepDifferential:
    """Incremental on/off must be invisible in every result field."""

    @staticmethod
    def _key(result):
        return (
            result.achieved_t,
            result.is_rate_optimal_proven,
            result.bounds.t_lb,
            [a.status for a in result.attempts],
            result.schedule.starts if result.schedule else None,
            (sorted(result.schedule.colors.items())
             if result.schedule else None),
        )

    @pytest.mark.parametrize("backend", ["bnb", "highs"])
    def test_smoke_differential(self, backend, monkeypatch):
        machine = motivating_machine()
        for ddg in _loops(machine, count=3, max_ops=8):
            clear_contexts()
            on = schedule_loop(
                ddg, machine, backend=backend, warmstart=False,
            )
            with monkeypatch.context() as patch:
                patch.setattr(incremental, "context_for", _no_context)
                off = schedule_loop(
                    ddg, machine, backend=backend, warmstart=False,
                )
            assert self._key(on) == self._key(off), (backend, ddg.name)


class TestDigests:
    def test_ddg_digest_is_content_based(self):
        ddg = motivating_example()
        clone = parse_ddg(serialize_ddg(ddg))
        assert ddg_digest(ddg) == ddg_digest(clone)

    def test_ddg_digest_distinguishes(self):
        ddg = motivating_example()
        other = ddg.copy()
        other.add_dep(0, 5)
        assert ddg_digest(ddg) != ddg_digest(other)

    def test_machine_digest_distinguishes(self):
        assert machine_digest(motivating_machine()) != (
            machine_digest(powerpc604())
        )
        assert machine_digest(motivating_machine(fp_units=2)) != (
            machine_digest(motivating_machine(fp_units=3))
        )

    def test_machine_digest_stable(self):
        assert machine_digest(powerpc604()) == machine_digest(powerpc604())

    def test_machine_digest_ignores_display_name(self):
        # Regression: the digest once folded in ``machine.name``, so two
        # identical machines loaded under different file names could not
        # share contexts (or batch journals).
        from repro.machine.machine import Machine
        from repro.machine.reservation import ReservationTable

        def build(name):
            m = Machine(name)
            m.add_fu_type("FP", count=2, table=ReservationTable.clean(2))
            m.add_op_class("fadd", "FP", latency=2)
            return m

        assert machine_digest(build("alpha")) == machine_digest(build("beta"))

    def test_golden_digests_keep_old_journals_resumable(self):
        # Batch journals store _batch_digest, which folds in
        # machine_digest: any change to these bytes makes every journal
        # written earlier refuse to resume.
        from repro.parallel.batch import _batch_digest

        ddg = parse_ddg((CORPUS_DIR / "loop0000.ddg").read_text("utf-8"))
        machine = powerpc604()
        assert ddg_digest(ddg) == (
            "165899a8f4743b2639634f6eb7007849fcace8cb3ab10faaacf14763b5cb5331"
        )
        assert machine_digest(machine) == (
            "4e13bf4ca445b15b6bffc7faf01c689c06f0cad15a5e377dcc519dde5218bd2b"
        )
        assert _batch_digest(machine, AttemptConfig(), 10) == (
            "cd1f058acd3ede8c65b8401fd7149302eae1dc028062ce3c4411a6656e034531"
        )
