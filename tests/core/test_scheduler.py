"""Tests for the rate-optimal scheduling driver."""

import pathlib

import pytest

from repro.core import schedule_loop, verify_schedule
from repro.core.errors import SchedulingError
from repro.core.scheduler import (
    AttemptConfig,
    ScheduleAttempt,
    SchedulingResult,
)
from repro.core.bounds import LowerBounds
from repro.ddg import Ddg
from repro.ddg.builders import parse_ddg
from repro.ddg.kernels import KERNELS, motivating_example
from repro.machine.presets import (
    motivating_machine,
    nonpipelined_machine,
    powerpc604,
)

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[2] / "corpus"


class TestMotivatingEndToEnd:
    def test_finds_t4(self):
        result = schedule_loop(motivating_example(), motivating_machine())
        assert result.achieved_t == 4
        assert result.bounds == LowerBounds(t_dep=2, t_res=3)
        assert result.delta_from_lb == 1

    def test_rate_optimality_proven(self):
        result = schedule_loop(motivating_example(), motivating_machine())
        assert result.is_rate_optimal_proven
        t3 = [a for a in result.attempts if a.t_period == 3]
        assert t3 and t3[0].status == "infeasible"

    def test_schedule_verifies(self):
        result = schedule_loop(motivating_example(), motivating_machine())
        verify_schedule(result.schedule)

    def test_summary_text(self):
        result = schedule_loop(motivating_example(), motivating_machine())
        text = result.summary()
        assert "T_lb=3" in text and "-> T=4" in text


class TestDriverBehaviour:
    def test_counting_only_mode(self):
        result = schedule_loop(
            motivating_example(), motivating_machine(), mapping=False
        )
        assert result.achieved_t == 3  # aggregate-feasible at T_lb
        assert not result.schedule.has_complete_mapping

    def test_max_extra_zero_gives_up(self):
        result = schedule_loop(
            motivating_example(), motivating_machine(), max_extra=0
        )
        assert result.schedule is None
        assert result.achieved_t is None
        assert result.delta_from_lb is None

    def test_modulo_infeasible_periods_recorded(self):
        machine = nonpipelined_machine(div_units=1, div_time=4)
        g = Ddg("divs")
        g.add_op("d0", "div")
        g.add_op("d1", "div")
        g.add_dep("d0", "d1")
        result = schedule_loop(g, machine)
        # T_res = 8; all admissible, so scheduled at 8 directly.
        assert result.achieved_t == 8
        verify_schedule(result.schedule)

    def test_modulo_skips_show_in_attempts(self):
        machine = nonpipelined_machine(div_units=2, div_time=4)
        g = Ddg("one-div")
        g.add_op("d0", "div")
        g.add_op("d1", "div")
        # T_lb = ceil(8/2) = 4; fine.  Force a skip by making T_lb small:
        g2 = Ddg("single")
        g2.add_op("d", "div")
        result = schedule_loop(g2, machine)
        skipped = [
            a.t_period for a in result.attempts
            if a.status == "modulo_infeasible"
        ]
        assert skipped == [2, 3]  # T_lb=2, but only T=4 admissible
        assert result.achieved_t == 4

    def test_attempts_record_model_stats(self):
        result = schedule_loop(motivating_example(), motivating_machine(),
                               warmstart=False)
        solved = [a for a in result.attempts if a.backend]
        assert solved
        for attempt in solved:
            assert attempt.model_stats["variables"] > 0
        # T=3 is ruled out by presolve: no model was built for it.
        ruled_out = [a for a in result.attempts if not a.backend]
        assert [a.model_stats["presolve_reason"] for a in ruled_out] == [
            "copy_packing"
        ]
        assert ruled_out[0].model_stats["variables"] == 0

    def test_objectives_pass_through(self):
        result = schedule_loop(
            motivating_example(), motivating_machine(),
            objective="min_sum_t",
        )
        assert sum(result.schedule.starts) == 26

    def test_sat_backend_matches_highs(self):
        highs = schedule_loop(
            motivating_example(), motivating_machine(), backend="highs"
        )
        sat = schedule_loop(
            motivating_example(), motivating_machine(), backend="sat"
        )
        assert highs.achieved_t == sat.achieved_t == 4
        verify_schedule(sat.schedule)


def _attempt_log(ddg, machine, backend):
    result = schedule_loop(ddg, machine, backend=backend,
                           time_limit_per_t=10.0)
    return [
        (a.t_period, a.status, a.backend, a.model_stats.get("variables"),
         a.model_stats.get("presolve_reason", ""))
        for a in result.attempts
    ]


class TestHistoryIndependence:
    """Each period's model comes from (ddg, machine, T) alone, so what
    the process solved before never shows in a later record."""

    def test_each_backend_records_its_own_attempts(self):
        # Regression: a banked INFEASIBLE verdict from the HiGHS sweep
        # was once replayed under the SAT request, with backend "" and
        # no model sizes.  SAT attempts carry CNF sizes, not ILP ones;
        # a period presolve refutes never reaches a backend.
        ddg, machine = motivating_example(), motivating_machine()
        schedule_loop(ddg, machine, backend="highs")
        result = schedule_loop(ddg, machine, backend="sat",
                               warmstart=False)
        solved = [
            a for a in result.attempts
            if a.status not in ("modulo_infeasible", "heuristic")
        ]
        assert any(a.status == "infeasible" for a in solved)
        lowered = [a for a in solved
                   if "presolve_reason" not in a.model_stats]
        assert lowered
        for attempt in solved:
            assert attempt.backend == (
                "" if "presolve_reason" in attempt.model_stats else "sat"
            )
            assert attempt.model_stats["variables"] == 0
        for attempt in lowered:
            assert attempt.model_stats["sat_clauses"] > 0

    @pytest.mark.parametrize("backend", ["highs", "sat"])
    def test_repeated_sweep_is_identical(self, backend):
        ddg, machine = motivating_example(), motivating_machine()
        first = _attempt_log(ddg, machine, backend)
        assert first == _attempt_log(ddg, machine, backend)
        # A verdict comes from this sweep's backend, or from presolve
        # before any backend.
        assert all(b == ("" if reason else backend)
                   for _, status, b, _, reason in first
                   if status == "infeasible")

    @pytest.mark.parametrize(
        "path", sorted(CORPUS_DIR.glob("*.ddg"))[:4], ids=lambda p: p.stem
    )
    def test_repeated_corpus_sweep_is_identical(self, path):
        ddg = parse_ddg(path.read_text(encoding="utf-8"))
        first = _attempt_log(ddg, powerpc604(), "highs")
        assert first == _attempt_log(ddg, powerpc604(), "highs")


class TestKernelsOnPpc604:
    @pytest.mark.parametrize("name", sorted(KERNELS))
    def test_every_kernel_schedules_and_verifies(self, name):
        machine = powerpc604()
        result = schedule_loop(KERNELS[name](), machine)
        assert result.schedule is not None
        verify_schedule(result.schedule)

    @pytest.mark.parametrize("name", ["dotprod", "ll11"])
    def test_recurrence_bound_achieved(self, name):
        """These kernels are recurrence-bound: T should equal T_dep."""
        machine = powerpc604()
        result = schedule_loop(KERNELS[name](), machine)
        assert result.achieved_t == result.bounds.t_dep


class TestResultProperties:
    def test_not_proven_when_smaller_t_unresolved(self):
        from repro.core.schedule import Schedule

        ddg = motivating_example()
        machine = motivating_machine()
        schedule = Schedule(ddg=ddg, machine=machine, t_period=4,
                            starts=[0, 1, 3, 5, 7, 11], colors={})
        result = SchedulingResult(
            loop_name="x",
            bounds=LowerBounds(t_dep=2, t_res=3),
            attempts=[
                ScheduleAttempt(t_period=3, status="time_limit"),
                ScheduleAttempt(t_period=4, status="optimal"),
            ],
            schedule=schedule,
        )
        assert not result.is_rate_optimal_proven

    def test_proven_when_smaller_t_modulo_skipped(self):
        from repro.core.schedule import Schedule

        ddg = motivating_example()
        machine = motivating_machine()
        schedule = Schedule(ddg=ddg, machine=machine, t_period=4,
                            starts=[0, 1, 3, 5, 7, 11], colors={})
        result = SchedulingResult(
            loop_name="x",
            bounds=LowerBounds(t_dep=2, t_res=3),
            attempts=[
                ScheduleAttempt(t_period=3, status="modulo_infeasible"),
                ScheduleAttempt(t_period=4, status="optimal"),
            ],
            schedule=schedule,
        )
        assert result.is_rate_optimal_proven


class TestConfigValidation:
    """An impossible config is refused up front, even when a warm start
    or a store hit would settle the loop before any solver runs."""

    LOOP = pathlib.Path(__file__).resolve().parents[2] / "corpus" / \
        "loop0000.ddg"

    def _loop(self):
        return parse_ddg(self.LOOP.read_text())

    @pytest.mark.parametrize("settings", [
        {"backend": "bogus"},
        {"backend": "portfolio"},
        {"backend": "bnb"},
        {"objective": "bogus"},
        {"backend": "sat", "objective": "min_fu"},
        {"time_limit": 0},
        {"time_limit": -1.0},
        {"time_limit": float("nan")},
    ], ids=["unknown-backend", "portfolio", "bnb", "unknown-objective",
            "sat-min_fu", "zero-limit", "negative-limit", "nan-limit"])
    def test_attempt_config_rejects(self, settings):
        with pytest.raises(SchedulingError):
            AttemptConfig(**settings)

    def test_none_time_limit_means_unbounded(self):
        assert AttemptConfig(time_limit=None).time_limit is None

    def test_schedule_loop_rejects_unknown_backend(self):
        with pytest.raises(SchedulingError, match="unknown backend"):
            schedule_loop(self._loop(), powerpc604(), backend="bogus")

    def test_schedule_loop_rejects_sat_objective_mismatch(self):
        with pytest.raises(SchedulingError, match="feasibility"):
            schedule_loop(self._loop(), powerpc604(), backend="sat",
                          objective="min_fu")

    def test_run_batch_rejects_unknown_backend(self):
        from repro.parallel import run_batch

        with pytest.raises(SchedulingError, match="unknown backend"):
            run_batch([self.LOOP], powerpc604(), backend="bogus", jobs=1)
