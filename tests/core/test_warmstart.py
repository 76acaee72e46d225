"""Differential tests for the heuristic-primal warm-start pipeline.

The load-bearing property: every warm start the pipeline hands a solver
is a *feasible integer point of the built model*, checked row by row
(``violated_rows``), for every objective and with presolve both on and
off.  A warm start that silently violated a row would not crash — the
solvers treat starts as advisory — but it would throw away the pruning
the whole feature exists for, so the suite asserts emptiness explicitly.

The corpus-wide sweep agreement tests (warm start on vs off must reach
the same achieved period on both backends) are marked ``slow`` and run
with ``-m slow``.
"""

import random

import pytest

from repro.core import (
    HEURISTIC,
    Formulation,
    FormulationOptions,
    compute_warmstart,
    schedule_loop,
    verify_schedule,
)
from repro.core.warmstart import violated_rows, warmstart_assignment
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.ddg.kernels import KERNELS, motivating_example
from repro.machine.presets import motivating_machine, powerpc604

OBJECTIVES = (
    "feasibility", "min_sum_t", "min_fu", "min_buffers", "min_lifetimes"
)


def _corpus(machine, count, seed, max_ops=10):
    rng = random.Random(seed)
    return [
        random_ddg(
            rng, machine, GeneratorConfig(min_ops=3, max_ops=max_ops),
            name=f"ws{i}",
        )
        for i in range(count)
    ]


class TestComputeWarmstart:
    def test_motivating_loop(self):
        ws = compute_warmstart(motivating_example(), motivating_machine())
        assert ws.ii == 4 and ws.mii == 3
        assert ws.schedule is not None
        verify_schedule(ws.schedule, check_mapping=True)

    def test_hit_lower_bound(self):
        ws = compute_warmstart(KERNELS["dotprod"](), powerpc604())
        assert ws.ii == ws.mii

    def test_stats_dict_shape(self):
        result = schedule_loop(motivating_example(), motivating_machine())
        stats = result.warmstart.to_json_dict()
        assert stats["heuristic_ii"] == 4
        assert stats["placements"] > 0
        assert stats["heuristic_seconds"] >= 0.0


class TestAssignmentGuards:
    def test_wrong_period_rejected(self):
        ddg, machine = motivating_example(), motivating_machine()
        ws = compute_warmstart(ddg, machine)
        form = Formulation(ddg, machine, ws.ii + 1)
        form.build()
        assert warmstart_assignment(form, ws.schedule) is None

    def test_incomplete_mapping_rejected(self):
        import dataclasses

        ddg, machine = motivating_example(), motivating_machine()
        ws = compute_warmstart(ddg, machine)
        colors = dict(ws.schedule.colors)
        colors.pop(next(iter(colors)))
        partial = dataclasses.replace(ws.schedule, colors=colors)
        form = Formulation(ddg, machine, ws.ii)
        form.build()
        assert warmstart_assignment(form, partial) is None

    def test_violated_rows_flags_corruption(self):
        ddg, machine = motivating_example(), motivating_machine()
        ws = compute_warmstart(ddg, machine)
        form = Formulation(ddg, machine, ws.ii)
        form.build()
        values = warmstart_assignment(form, ws.schedule)
        assert values is not None
        # Move one op off its slot: some assignment row must trip.
        var = next(v for v in values if v in form.k)
        values[var] = values[var] + 1.0
        assert violated_rows(form, values)


class TestRowByRowValidity:
    """Every heuristic warm start satisfies the formulation row by row."""

    @pytest.mark.parametrize("objective", OBJECTIVES)
    @pytest.mark.parametrize("presolve", [True, False])
    def test_motivating(self, objective, presolve):
        ddg, machine = motivating_example(), motivating_machine()
        ws = compute_warmstart(ddg, machine)
        options = FormulationOptions(objective=objective, presolve=presolve)
        form = Formulation(ddg, machine, ws.ii, options)
        form.build()
        values = warmstart_assignment(form, ws.schedule, validate=False)
        assert values is not None
        assert violated_rows(form, values) == []

    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_kernels_on_ppc604(self, name):
        machine = powerpc604()
        ddg = KERNELS[name]()
        ws = compute_warmstart(ddg, machine)
        assert ws.schedule is not None
        for objective in OBJECTIVES:
            options = FormulationOptions(objective=objective)
            form = Formulation(ddg, machine, ws.ii, options)
            form.build()
            values = warmstart_assignment(form, ws.schedule, validate=False)
            assert values is not None, objective
            assert violated_rows(form, values) == [], objective

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "machine_factory", [motivating_machine, powerpc604]
    )
    def test_corpus_all_objectives(self, machine_factory):
        machine = machine_factory()
        for ddg in _corpus(machine, 30, seed=1995):
            ws = compute_warmstart(ddg, machine, max_extra=30)
            if ws.schedule is None:
                continue
            for objective in OBJECTIVES:
                for presolve in (True, False):
                    options = FormulationOptions(
                        objective=objective, presolve=presolve
                    )
                    form = Formulation(ddg, machine, ws.ii, options)
                    form.build()
                    values = warmstart_assignment(
                        form, ws.schedule, validate=False
                    )
                    label = f"{ddg.name}/{objective}/presolve={presolve}"
                    assert values is not None, label
                    assert violated_rows(form, values) == [], label


class TestSweepIntegration:
    def test_heuristic_short_circuit_records_zero_ilp_solves(self):
        # dotprod is recurrence-bound: the heuristic hits II == T_lb and
        # the sweep must not build a single ILP.
        result = schedule_loop(KERNELS["dotprod"](), powerpc604())
        assert result.warmstart is not None
        assert result.warmstart.skipped_all_ilp
        assert result.warmstart.ilp_solves == 0
        assert [a.status for a in result.attempts] == [HEURISTIC]
        verify_schedule(result.schedule, check_mapping=True)

    def test_warmstart_off_matches_on(self):
        ddg, machine = motivating_example(), motivating_machine()
        on = schedule_loop(ddg, machine)
        off = schedule_loop(ddg, machine, warmstart=False)
        assert on.achieved_t == off.achieved_t == 4
        assert on.is_rate_optimal_proven and off.is_rate_optimal_proven
        assert off.warmstart is not None and not off.warmstart.enabled

    def test_incumbent_seeds_non_feasibility_objective(self):
        result = schedule_loop(
            motivating_example(), motivating_machine(),
            objective="min_sum_t",
        )
        final = result.attempts[-1]
        assert final.t_period == 4
        assert final.status != HEURISTIC  # optimality still needs the ILP
        assert final.warm_started
        assert sum(result.schedule.starts) == 26

    def test_counting_relaxation_disables_warmstart(self):
        result = schedule_loop(
            motivating_example(), motivating_machine(), mapping=False
        )
        assert result.warmstart is not None
        assert not result.warmstart.enabled
        assert all(not a.warm_started for a in result.attempts)

    @pytest.mark.slow
    @pytest.mark.parametrize("backend", ["highs", "sat"])
    def test_corpus_sweeps_agree(self, backend):
        """Warm start on vs off: same achieved period, corpus-wide."""
        machine = powerpc604()
        for ddg in _corpus(machine, 30, seed=604, max_ops=10):
            on = schedule_loop(
                ddg, machine, backend=backend, max_extra=30,
                time_limit_per_t=30.0,
            )
            off = schedule_loop(
                ddg, machine, backend=backend, max_extra=30,
                time_limit_per_t=30.0, warmstart=False,
            )
            assert on.achieved_t == off.achieved_t, ddg.name
            assert (
                on.is_rate_optimal_proven == off.is_rate_optimal_proven
            ), ddg.name
            if on.schedule is not None:
                verify_schedule(on.schedule)
