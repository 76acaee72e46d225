"""Unit tests for racing candidate periods: ``schedule_loop(jobs=N)``."""

import pytest

from repro.core import schedule_loop, verify_schedule
from repro.core.errors import SchedulingError
from repro.core.scheduler import CANCELLED, AttemptConfig, attempt_period
from repro.ddg import Ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import (
    motivating_machine,
    nonpipelined_machine,
    powerpc604,
)


@pytest.fixture(scope="module")
def machine():
    return motivating_machine()


class TestAttemptPeriod:
    """The shared per-attempt body both drivers funnel through."""

    def test_infeasible_period(self, machine):
        outcome = attempt_period(motivating_example(), machine, 3)
        assert outcome.schedule is None
        assert outcome.attempt.status == "infeasible"

    def test_feasible_period_verifies(self, machine):
        outcome = attempt_period(motivating_example(), machine, 4)
        assert outcome.schedule is not None
        assert outcome.attempt.status in ("optimal", "feasible")
        verify_schedule(outcome.schedule)

    def test_modulo_infeasible_period(self):
        machine = nonpipelined_machine(div_units=2, div_time=4)
        g = Ddg("single")
        g.add_op("d", "div")
        outcome = attempt_period(g, machine, 2)
        assert outcome.attempt.status == "modulo_infeasible"
        assert outcome.schedule is None

    def test_config_is_picklable(self):
        import pickle

        config = AttemptConfig(backend="highs", time_limit=5.0)
        assert pickle.loads(pickle.dumps(config)) == config


class TestRaceMatchesSequential:
    def test_motivating_loop(self, machine):
        seq = schedule_loop(motivating_example(), machine)
        par = schedule_loop(motivating_example(), machine, jobs=2)
        assert par.achieved_t == seq.achieved_t == 4
        assert par.is_rate_optimal_proven and seq.is_rate_optimal_proven
        assert par.bounds == seq.bounds
        verify_schedule(par.schedule)

    def test_inline_path_identical(self, machine):
        seq = schedule_loop(motivating_example(), machine)
        par = schedule_loop(motivating_example(), machine, jobs=1)
        assert par.achieved_t == seq.achieved_t
        assert [
            (a.t_period, a.status) for a in par.attempts
        ] == [(a.t_period, a.status) for a in seq.attempts]

    def test_counting_only_relaxation(self, machine):
        par = schedule_loop(
            motivating_example(), machine, mapping=False, jobs=2
        )
        assert par.achieved_t == 3
        assert not par.schedule.has_complete_mapping

    def test_modulo_skips_recorded(self):
        machine = nonpipelined_machine(div_units=2, div_time=4)
        g = Ddg("single")
        g.add_op("d", "div")
        par = schedule_loop(g, machine, jobs=2)
        seq = schedule_loop(g, machine)
        assert par.achieved_t == seq.achieved_t == 4
        skipped = [
            a.t_period for a in par.attempts
            if a.status == "modulo_infeasible"
        ]
        assert skipped == [2, 3]

    def test_repair_modulo(self):
        from repro.machine import Machine, ReservationTable

        machine = Machine("sparse")
        machine.add_fu_type(
            "X", count=1, table=ReservationTable([[1, 0, 1], [0, 1, 0]])
        )
        machine.add_op_class("op", "X", latency=3)
        g = Ddg("solo")
        g.add_op("a", "op")
        seq = schedule_loop(g, machine, repair_modulo=True)
        par = schedule_loop(g, machine, repair_modulo=True, jobs=2)
        # T=2 violates the modulo constraint but delay insertion
        # recovers it — in both drivers.
        assert seq.achieved_t == par.achieved_t == 2
        repaired = [a for a in par.attempts if a.repaired]
        assert repaired and repaired[0].t_period == 2

    def test_unrepairable_periods_stay_skipped(self):
        machine = nonpipelined_machine(div_units=2, div_time=4)
        g = Ddg("single")
        g.add_op("d", "div")
        seq = schedule_loop(g, machine, repair_modulo=True)
        par = schedule_loop(g, machine, repair_modulo=True, jobs=2)
        assert par.achieved_t == seq.achieved_t == 4
        assert [
            (a.t_period, a.status)
            for a in par.attempts if a.t_period <= 4
        ] == [(a.t_period, a.status) for a in seq.attempts]


class TestRaceBookkeeping:
    def test_attempts_sorted_by_period(self, machine):
        par = schedule_loop(motivating_example(), machine, jobs=3)
        periods = [a.t_period for a in par.attempts]
        assert periods == sorted(periods)

    def test_periods_beyond_winner_cancelled_or_resolved(self, machine):
        # warmstart=False: the heuristic would cap the candidate range
        # at its II, leaving no periods beyond the winner to cancel.
        par = schedule_loop(
            motivating_example(), machine, jobs=2, max_extra=10,
            warmstart=False,
        )
        beyond = [a for a in par.attempts if a.t_period > par.achieved_t]
        # Every candidate period appears exactly once in the log.
        assert len(par.attempts) == 11
        for attempt in beyond:
            assert attempt.status in (
                CANCELLED, "optimal", "feasible", "modulo_infeasible",
            )

    def test_no_cancellations_below_winner(self, machine):
        par = schedule_loop(motivating_example(), machine, jobs=4)
        below = [a for a in par.attempts if a.t_period < par.achieved_t]
        assert all(a.status != CANCELLED for a in below)

    def test_budget_exhausted_returns_none_schedule(self, machine):
        par = schedule_loop(
            motivating_example(), machine, max_extra=0, jobs=2
        )
        assert par.schedule is None
        assert par.achieved_t is None
        assert not par.is_rate_optimal_proven

    def test_bad_jobs_rejected(self, machine):
        with pytest.raises(SchedulingError, match="jobs must be >= 1"):
            schedule_loop(motivating_example(), machine, jobs=0)

    def test_bad_max_extra_rejected(self, machine):
        with pytest.raises(SchedulingError, match="max_extra"):
            schedule_loop(motivating_example(), machine, max_extra=-1)


class TestRaceOnRealMachine:
    def test_ppc_loop(self):
        machine = powerpc604()
        g = Ddg("mixed")
        g.add_op("ld", "load")
        g.add_op("m", "fmul")
        g.add_op("a", "fadd")
        g.add_op("st", "store")
        g.add_dep("ld", "m")
        g.add_dep("m", "a")
        g.add_dep("a", "st")
        g.add_dep("a", "a", distance=1)
        seq = schedule_loop(g, machine)
        par = schedule_loop(g, machine, jobs=2)
        assert par.achieved_t == seq.achieved_t
        assert par.is_rate_optimal_proven == seq.is_rate_optimal_proven
        verify_schedule(par.schedule)
