"""(period x backend) portfolio racing: rosters, kill semantics, v7
report surface.

The portfolio must be a pure performance move: whatever roster races,
the achieved II and the rate-optimality proof must match the
single-backend drivers, and the only observable difference is *who*
produced each verdict (the per-attempt ``backend`` tag) plus the
kill/cancel accounting.
"""

import multiprocessing
import random

import pytest

from repro.core import schedule_loop, verify_schedule
from repro.core.errors import SchedulingError
from repro.ddg.builders import serialize_ddg
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import motivating_machine, powerpc604
from repro.parallel import (
    PORTFOLIO_BACKENDS,
    default_portfolio,
    race_periods,
    run_batch,
)
from repro.parallel.batch import REPORT_VERSION, load_report
from repro.parallel.race import CANCELLED, _validate_roster
from repro.supervision.executor import RUNNING, SupervisedExecutor


@pytest.fixture
def machine():
    return motivating_machine()


@pytest.fixture
def ddg():
    return motivating_example()


def _no_stray_children():
    return [
        p for p in multiprocessing.active_children()
        if "race" in (p.name or "").lower() or p.daemon
    ]


class TestRoster:
    def test_portfolio_backends_are_known(self):
        assert "auto" not in PORTFOLIO_BACKENDS
        assert set(PORTFOLIO_BACKENDS) == {"highs", "bnb", "sat"}

    def test_default_roster_feasibility_includes_sat(self):
        roster = default_portfolio("feasibility")
        assert "sat" in roster
        assert "bnb" in roster

    def test_default_roster_other_objective_excludes_sat(self):
        assert "sat" not in default_portfolio("min_sum_t")

    def test_empty_roster_rejected(self):
        with pytest.raises(SchedulingError, match=">= 1 backend"):
            _validate_roster((), "feasibility")

    def test_unknown_backend_rejected(self):
        with pytest.raises(SchedulingError, match="unknown"):
            _validate_roster(("highs", "cplex"), "feasibility")

    def test_duplicate_backend_rejected(self):
        with pytest.raises(SchedulingError, match="twice"):
            _validate_roster(("bnb", "bnb"), "feasibility")

    def test_sat_with_optimization_objective_rejected(self):
        with pytest.raises(SchedulingError, match="feasibility"):
            _validate_roster(("highs", "sat"), "min_sum_t")

    def test_schedule_loop_refuses_portfolio(self, ddg, machine):
        with pytest.raises(SchedulingError, match="racing driver"):
            schedule_loop(ddg, machine, backend="portfolio")


class TestRacePortfolio:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_matches_single_backend(self, ddg, machine, jobs):
        seq = schedule_loop(ddg, machine)
        par = race_periods(
            ddg, machine, jobs=jobs, backends=("highs", "bnb", "sat")
        )
        assert par.achieved_t == seq.achieved_t == 4
        assert par.is_rate_optimal_proven == seq.is_rate_optimal_proven
        verify_schedule(par.schedule)
        assert not _no_stray_children()

    def test_portfolio_stats_shape(self, ddg, machine, monkeypatch):
        # Count what the executor actually reaped: a successful
        # kill_task on a running task is a kill, on a queued one a
        # cancellation.  The record must report exactly those.
        reaped = {"killed_running": 0, "cancelled_queued": 0}
        kill_task = SupervisedExecutor.kill_task

        def counting_kill_task(executor, task):
            running = task.state == RUNNING
            killed = kill_task(executor, task)
            if killed:
                reaped["killed_running" if running
                       else "cancelled_queued"] += 1
            return killed

        monkeypatch.setattr(SupervisedExecutor, "kill_task",
                            counting_kill_task)
        result = race_periods(
            ddg, machine, jobs=4, backends=("highs", "bnb", "sat"),
            warmstart=False,
        )
        port = result.portfolio
        assert port is not None
        assert port["backends"] == ["highs", "bnb", "sat"]
        assert port["winner_backend"] in ("highs", "bnb", "sat")
        assert port["killed_running"] == reaped["killed_running"]
        assert port["cancelled_queued"] == reaped["cancelled_queued"]
        # Every reaped cell is logged as a cancelled attempt.
        cancelled = sum(1 for a in result.attempts if a.status == CANCELLED)
        assert cancelled >= sum(reaped.values()) > 0

    def test_cells_are_per_period_per_backend(self, ddg, machine):
        result = race_periods(
            ddg, machine, jobs=4, backends=("highs", "bnb"),
            warmstart=False,
        )
        cells = [(a.t_period, a.backend) for a in result.attempts
                 if a.backend]
        assert len(cells) == len(set(cells))
        # The settled winning period has a verdict from one backend and
        # a loser record from the other.
        t_won = result.schedule.t_period
        statuses = {
            a.backend: a.status for a in result.attempts
            if a.t_period == t_won and a.backend
        }
        assert len(statuses) == 2
        assert sorted(statuses) == ["bnb", "highs"]

    def test_losers_marked_cancelled_not_failed(self, ddg, machine):
        result = race_periods(
            ddg, machine, jobs=4, backends=("highs", "bnb", "sat"),
            warmstart=False,
        )
        cancelled = [
            a for a in result.attempts if a.status == CANCELLED
        ]
        assert cancelled  # somebody lost
        assert all(a.failure is None for a in cancelled)

    def test_backend_portfolio_uses_default_roster(self, ddg, machine):
        result = race_periods(
            ddg, machine, jobs=2, backend="portfolio"
        )
        assert result.portfolio is not None
        assert result.portfolio["backends"] == list(
            default_portfolio("feasibility")
        )
        assert result.achieved_t == 4

    def test_single_name_roster_degenerates(self, ddg, machine):
        result = race_periods(
            ddg, machine, jobs=2, backends=("bnb",)
        )
        assert result.portfolio is None
        assert result.achieved_t == 4
        backends = {a.backend for a in result.attempts if a.backend}
        assert backends <= {"bnb"}

    def test_proof_survives_portfolio_losers(self, ddg, machine):
        # T=3 is proven infeasible by whichever backend answers first;
        # its cancelled siblings must not retract the proof.
        result = race_periods(
            ddg, machine, jobs=4, backends=("highs", "bnb", "sat"),
            warmstart=False,
        )
        assert result.achieved_t == 4
        assert result.is_rate_optimal_proven


class TestBatchPortfolio:
    @pytest.fixture
    def corpus(self, tmp_path):
        machine = powerpc604()
        rng = random.Random(11)
        config = GeneratorConfig(min_ops=2, max_ops=6)
        paths = []
        for i in range(4):
            g = random_ddg(rng, machine, config, name=f"p{i}")
            path = tmp_path / f"p{i}.ddg"
            path.write_text(serialize_ddg(g), encoding="utf-8")
            paths.append(path)
        return machine, paths

    @pytest.mark.parametrize("jobs", [1, 4])
    def test_matches_single_backend_batch(self, corpus, jobs):
        machine, paths = corpus
        single = run_batch(paths, machine, jobs=1)
        port = run_batch(
            paths, machine, jobs=jobs,
            backends=("highs", "bnb", "sat"),
        )
        assert port.failed == 0
        for a, b in zip(single.entries, port.entries):
            assert a.name == b.name
            assert (
                a.result.achieved_t == b.result.achieved_t
            ), a.name
        assert not _no_stray_children()

    def test_report_portfolio_surface(self, corpus, tmp_path):
        machine, paths = corpus
        report = run_batch(
            paths, machine, jobs=4, backends=("highs", "bnb", "sat"),
        )
        doc = report.to_json_dict()
        assert doc["report_version"] == REPORT_VERSION == 9

        agg = doc["portfolio"]
        assert agg["raced"] == len(paths)
        assert sum(agg["wins"].values()) == len(paths)
        assert set(agg["wins"]) <= {"highs", "bnb", "sat"}

        for entry in doc["entries"]:
            port = entry["portfolio"]
            assert port["backends"] == ["highs", "bnb", "sat"]
            assert port["winner_backend"] in ("highs", "bnb", "sat")
            losers = port["losers"]
            assert set(losers) | {port["winner_backend"]} == {
                "highs", "bnb", "sat"
            }
            assert any(
                "backend" in a for a in entry["attempts"]
            )

        out = tmp_path / "report.json"
        report.save_json(out)
        loaded = load_report(out)
        assert loaded.to_json_dict()["portfolio"] == agg

    def test_render_mentions_portfolio(self, corpus):
        machine, paths = corpus
        report = run_batch(
            paths, machine, jobs=1, backends=("highs", "bnb"),
        )
        assert "portfolio:" in report.render()

    def test_single_backend_report_has_no_portfolio(self, corpus):
        machine, paths = corpus
        report = run_batch(paths, machine, jobs=1)
        doc = report.to_json_dict()
        assert "portfolio" not in doc
        assert all("portfolio" not in e for e in doc["entries"])
