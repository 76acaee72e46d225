"""Fault-injection matrix: {crash, hang, oom, malformed} x
{sequential, race, batch}.

Every cell arms a deterministic fault via ``REPRO_FAULTS`` and asserts
the driver turned it into a :class:`FailureRecord` (with the promised
retry counts and statuses) while still producing its best possible
answer — never an exception out of the driver.

Crash/hang/oom faults only fire in *worker processes* (the supervised
sequential sweep is the cell race with one worker, race/batch use a
pool of several), so the test process itself is never killed.
"""

import random
import time

import pytest

from repro.core import lower_bounds, schedule_loop
from repro.core.scheduler import AttemptConfig, run_sweep
from repro.ddg.builders import serialize_ddg
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import motivating_machine, powerpc604
from repro.parallel import race_periods, run_batch
from repro.supervision import faults
from repro.supervision.faults import ENV_VAR
from repro.supervision.records import (
    CRASH,
    DEGRADED,
    HANG,
    INTERRUPTED,
    OOM,
    SOLVER_ERROR,
    SupervisionPolicy,
)
from repro.supervision.signals import clear_interrupt, request_interrupt

pytestmark = pytest.mark.faults

#: Fast-failure policy: one retry, near-zero backoff.
RETRY_ONE = SupervisionPolicy(max_retries=1, backoff=0.01)
NO_RETRY = SupervisionPolicy(max_retries=0)
#: Hang policy: kill 1.5s after dispatch (1.0 deadline + 0.5 grace).
HANG_KILL = SupervisionPolicy(deadline=1.0, grace=0.5, max_retries=0)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.reset()
    clear_interrupt()
    yield
    faults.reset()
    clear_interrupt()


@pytest.fixture
def machine():
    return motivating_machine()


@pytest.fixture
def ddg():
    return motivating_example()


def _failed(result, kind):
    return [
        a for a in result.attempts
        if a.failure is not None and a.failure.kind == kind
    ]


class TestSequentialSupervised:
    """schedule_loop(..., supervision=policy) survives every fault."""

    def test_crash_retried_then_recorded_and_sweep_continues(
        self, monkeypatch, ddg, machine
    ):
        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(ENV_VAR, f"crash@attempt:t={t_lb}")
        result = schedule_loop(
            ddg, machine, time_limit_per_t=10.0, supervision=RETRY_ONE
        )
        (crashed,) = _failed(result, CRASH)
        assert crashed.t_period == t_lb
        assert crashed.status == CRASH
        assert crashed.failure.attempt == 2  # initial try + 1 retry
        assert crashed.failure.retries == 1
        assert result.schedule is not None
        assert result.schedule.t_period > t_lb
        # The crashed period was never proven infeasible.
        assert not result.is_rate_optimal_proven

    def test_hang_killed_within_deadline_plus_grace(
        self, monkeypatch, ddg, machine
    ):
        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(
            ENV_VAR, f"hang@attempt:t={t_lb}:seconds=60"
        )
        start = time.monotonic()
        result = schedule_loop(
            ddg, machine, time_limit_per_t=10.0, supervision=HANG_KILL
        )
        (hung,) = _failed(result, HANG)
        assert hung.t_period == t_lb
        # Deadline 1.0 + grace 0.5 => the kill lands around 1.5s; the
        # rest of the margin is supervisor poll slack, never the 60s.
        assert hung.failure.elapsed < 5.0
        assert time.monotonic() - start < 30.0
        assert result.schedule is not None

    def test_oom_recorded_without_retry(self, monkeypatch, ddg, machine):
        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(ENV_VAR, f"oom@attempt:t={t_lb}:mb=16")
        result = schedule_loop(
            ddg, machine, time_limit_per_t=10.0, supervision=RETRY_ONE
        )
        (oomed,) = _failed(result, OOM)
        assert oomed.failure.attempt == 1  # OOM is not retryable
        assert result.schedule is not None

    def test_malformed_solution_is_solver_error(
        self, monkeypatch, ddg, machine
    ):
        monkeypatch.setenv(ENV_VAR, "malformed@solve:times=1")
        result = schedule_loop(
            ddg, machine, time_limit_per_t=10.0, supervision=NO_RETRY,
            # min_sum_t forces a real ILP solve at the heuristic's II.
            objective="min_sum_t",
        )
        assert _failed(result, SOLVER_ERROR)
        assert result.schedule is not None

    def test_win_above_a_lost_period_is_degraded(
        self, monkeypatch, ddg, machine
    ):
        # The race's rule: optimality below the winner is unproven.
        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(ENV_VAR, f"crash@attempt:t={t_lb}")
        result = schedule_loop(
            ddg, machine, time_limit_per_t=10.0, supervision=NO_RETRY
        )
        assert result.schedule.t_period > t_lb
        assert result.degraded

    def test_lost_heuristic_period_is_replaced_by_degraded_record(
        self, monkeypatch, ddg, machine
    ):
        monkeypatch.setenv(ENV_VAR, "crash@attempt")
        result = schedule_loop(
            ddg, machine, time_limit_per_t=10.0, supervision=NO_RETRY,
            # min_sum_t sends the heuristic's period to a real solve.
            objective="min_sum_t",
        )
        heuristic_ii = result.warmstart.heuristic_ii
        assert result.degraded
        assert result.schedule.t_period == heuristic_ii
        at_ii = [a for a in result.attempts if a.t_period == heuristic_ii]
        # One record at that period: the degraded settle, carrying the
        # failure that lost the solve it stands in for.
        assert [a.status for a in at_ii] == [DEGRADED]
        assert at_ii[0].failure.kind == CRASH
        assert all(
            a.status == CRASH for a in result.attempts
            if a.t_period < heuristic_ii
        )

    def test_interrupt_degrades_to_heuristic_incumbent(
        self, ddg, machine
    ):
        request_interrupt()
        config = AttemptConfig(time_limit=10.0)
        result = run_sweep(ddg, machine, config, max_extra=10)
        assert result.degraded
        assert result.schedule is not None
        assert result.attempts[-1].status == DEGRADED


class TestRaceSupervised:
    """race_periods keeps racing through worker failures.

    Warm starts are disabled in the crash/hang/oom cells so more than
    one candidate reaches the pool and the race has survivors to keep
    racing after the faulted period.
    """

    def test_crash_does_not_abort_race(self, monkeypatch, ddg, machine):
        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(ENV_VAR, f"crash@attempt:t={t_lb}")
        result = race_periods(
            ddg, machine, jobs=2, time_limit_per_t=10.0,
            policy=RETRY_ONE, warmstart=False,
        )
        (crashed,) = _failed(result, CRASH)
        assert crashed.t_period == t_lb
        assert crashed.failure.attempt == 2
        assert result.schedule is not None
        assert result.schedule.t_period > t_lb
        # A winner above an unproven (crashed) period is degraded.
        assert result.degraded
        assert not result.is_rate_optimal_proven

    def test_hang_killed_and_race_continues(
        self, monkeypatch, ddg, machine
    ):
        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(
            ENV_VAR, f"hang@attempt:t={t_lb}:seconds=60"
        )
        policy = SupervisionPolicy(deadline=2.0, grace=0.5,
                                   max_retries=0)
        start = time.monotonic()
        result = race_periods(
            ddg, machine, jobs=2, time_limit_per_t=10.0, policy=policy,
            warmstart=False,
        )
        (hung,) = _failed(result, HANG)
        assert hung.failure.elapsed < 8.0
        assert time.monotonic() - start < 40.0
        assert result.schedule is not None

    def test_oom_recorded_and_race_continues(
        self, monkeypatch, ddg, machine
    ):
        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(ENV_VAR, f"oom@attempt:t={t_lb}:mb=16")
        result = race_periods(
            ddg, machine, jobs=2, time_limit_per_t=10.0,
            policy=NO_RETRY, warmstart=False,
        )
        assert _failed(result, OOM)
        assert result.schedule is not None

    def test_all_candidates_lost_settles_to_heuristic(
        self, monkeypatch, ddg, machine
    ):
        # min_sum_t keeps the heuristic's period in the dispatch list
        # (feasibility would settle it without a solve); crashing every
        # attempt leaves no winner, and the race must degrade to the
        # verified heuristic incumbent instead of raising.
        monkeypatch.setenv(ENV_VAR, "crash@attempt")
        result = race_periods(
            ddg, machine, jobs=2, time_limit_per_t=10.0,
            policy=NO_RETRY, objective="min_sum_t",
        )
        assert result.degraded
        assert result.schedule is not None
        assert result.attempts[-1].status == DEGRADED
        assert _failed(result, CRASH)

    def test_degraded_settle_replaces_the_lost_record(
        self, monkeypatch, ddg, machine
    ):
        monkeypatch.setenv(ENV_VAR, "crash@attempt")
        result = race_periods(
            ddg, machine, jobs=2, time_limit_per_t=10.0,
            policy=NO_RETRY, objective="min_sum_t",
        )
        heuristic_ii = result.warmstart.heuristic_ii
        at_ii = [a for a in result.attempts if a.t_period == heuristic_ii]
        # One record per period: the degraded settle stands in for the
        # crashed solve and carries its failure.
        assert [(a.status, a.backend) for a in at_ii] == [(DEGRADED, "")]
        assert at_ii[0].failure.kind == CRASH

    def test_degraded_winner_carries_lost_cell_taxonomy(
        self, monkeypatch, ddg, machine
    ):
        """v8 provenance: every lost period cell is accounted for.

        A crash below the winner degrades it; the report must then name
        each lost period cell with its failure kind — including periods
        above the win that were merely cancelled.
        """
        from repro.parallel.batch import BatchEntry

        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(ENV_VAR, f"crash@attempt:t={t_lb}")
        result = race_periods(
            ddg, machine, jobs=2, time_limit_per_t=10.0,
            policy=NO_RETRY, warmstart=False,
        )
        assert result.degraded
        lost = result.lost_cells()
        # Exactly the attempts without a verdict, one record each.
        expected = [
            a for a in result.attempts
            if a.failure is not None or a.status == "cancelled"
        ]
        assert len(lost) == len(expected) > 0
        assert {c["kind"] for c in lost} <= {
            CRASH, HANG, OOM, SOLVER_ERROR, INTERRUPTED, "cancelled",
        }
        assert {CRASH, "cancelled"} <= {c["kind"] for c in lost}
        for cell in lost:
            assert cell["t"] >= result.bounds.t_lb
            # "" marks a cell that never reached a backend.
            assert cell["backend"] == ""
        # The v8 report entry surfaces the same records verbatim.
        entry = BatchEntry(
            name=ddg.name, source="<memory>", num_ops=len(ddg.ops),
            result=result,
        ).to_json_dict()
        assert entry["degraded"] is True
        assert entry["lost_cells"] == lost

    def test_no_live_children_after_faulted_race(
        self, monkeypatch, ddg, machine
    ):
        import multiprocessing

        t_lb = lower_bounds(ddg, machine).t_lb
        monkeypatch.setenv(ENV_VAR, f"crash@attempt:t={t_lb}")
        before = set(multiprocessing.active_children())
        result = race_periods(
            ddg, machine, jobs=2, time_limit_per_t=10.0,
            policy=NO_RETRY, warmstart=False,
        )
        assert result.schedule is not None
        leftover = [
            p for p in multiprocessing.active_children()
            if p not in before
        ]
        deadline = time.monotonic() + 5.0
        while leftover and time.monotonic() < deadline:
            time.sleep(0.05)
            leftover = [p for p in leftover if p.is_alive()]
        assert leftover == []


class TestBatchSupervised:
    """run_batch isolates every fault to its own loop."""

    @pytest.fixture
    def corpus(self, tmp_path):
        machine = powerpc604()
        rng = random.Random(3)
        config = GeneratorConfig(min_ops=2, max_ops=5)
        paths = []
        for i in range(3):
            ddg = random_ddg(rng, machine, config, name=f"t{i}")
            path = tmp_path / f"t{i}.ddg"
            path.write_text(serialize_ddg(ddg), encoding="utf-8")
            paths.append(path)
        return machine, paths

    def _entry(self, report, name):
        (entry,) = [e for e in report.entries if e.name == name]
        return entry

    def test_crash_retried_then_isolated(self, monkeypatch, corpus):
        machine, paths = corpus
        monkeypatch.setenv(ENV_VAR, "crash@batch:loop=t1")
        report = run_batch(
            paths, machine, jobs=2, time_limit_per_t=10.0,
            policy=RETRY_ONE,
        )
        failed = self._entry(report, "t1")
        assert failed.failure.kind == CRASH
        assert failed.failure.attempt == 2
        assert failed.failure.retries == 1
        assert "crash" in failed.error
        assert report.failed == 1
        assert self._entry(report, "t0").scheduled
        assert self._entry(report, "t2").scheduled

    def test_hang_killed_and_isolated(self, monkeypatch, corpus):
        machine, paths = corpus
        monkeypatch.setenv(ENV_VAR, "hang@batch:loop=t1:seconds=60")
        policy = SupervisionPolicy(deadline=5.0, grace=1.0,
                                   max_retries=0)
        start = time.monotonic()
        report = run_batch(
            paths, machine, jobs=2, time_limit_per_t=4.0, policy=policy
        )
        failed = self._entry(report, "t1")
        assert failed.failure.kind == HANG
        assert failed.failure.elapsed < 10.0
        assert time.monotonic() - start < 40.0
        assert report.scheduled == 2

    def test_oom_isolated(self, monkeypatch, corpus):
        machine, paths = corpus
        monkeypatch.setenv(ENV_VAR, "oom@batch:loop=t1:mb=16")
        report = run_batch(
            paths, machine, jobs=2, time_limit_per_t=10.0,
            policy=RETRY_ONE,
        )
        failed = self._entry(report, "t1")
        assert failed.failure.kind == OOM
        assert failed.failure.attempt == 1
        assert report.scheduled == 2

    def test_malformed_solution_isolated_inline(
        self, monkeypatch, corpus
    ):
        machine, paths = corpus
        # Inline (jobs=1) is safe for malformed: it never kills the
        # process, and a single shared counter makes it deterministic.
        monkeypatch.setenv(ENV_VAR, "malformed@solve:times=1")
        report = run_batch(
            paths, machine, jobs=1, time_limit_per_t=10.0,
            # Force ILP solves so the corrupted solution is consumed.
            warmstart=False,
        )
        assert report.failed >= 1
        assert any(
            e.error is not None and "loop" in e.error
            for e in report.entries
        )

    def test_interrupt_settles_remaining_loops(self, corpus):
        machine, paths = corpus
        request_interrupt()
        report = run_batch(paths, machine, jobs=1,
                           time_limit_per_t=10.0)
        assert report.failed == len(paths)
        for entry in report.entries:
            assert entry.failure.kind == INTERRUPTED
