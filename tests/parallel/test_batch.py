"""Tests for the corpus batch runner, its JSON report and the CLI."""

import json
import pathlib
import random

import pytest

from repro.cli import main
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.machine.presets import powerpc604
from repro.parallel import collect_sources, run_batch
from repro.parallel.batch import REPORT_VERSION

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent.parent / "corpus"
FILES = sorted(CORPUS_DIR.glob("*.ddg"))
SUBSET = FILES[:6]


@pytest.fixture(scope="module")
def machine():
    return powerpc604()


@pytest.fixture(scope="module")
def report(machine):
    return run_batch(SUBSET, machine, jobs=2, time_limit_per_t=10.0)


class TestRunBatch:
    def test_deterministic_input_ordering(self, report):
        assert [e.source for e in report.entries] == [
            str(p) for p in SUBSET
        ]

    def test_all_scheduled(self, report):
        assert report.scheduled == len(SUBSET)
        assert report.failed == 0
        for entry in report.entries:
            assert entry.result.schedule is not None
            assert entry.result.achieved_t >= entry.result.bounds.t_lb

    def test_matches_sequential_jobs1(self, machine, report):
        seq = run_batch(SUBSET, machine, jobs=1, time_limit_per_t=10.0)
        for par_entry, seq_entry in zip(report.entries, seq.entries):
            assert par_entry.name == seq_entry.name
            assert (
                par_entry.result.achieved_t
                == seq_entry.result.achieved_t
            )
            assert (
                par_entry.result.is_rate_optimal_proven
                == seq_entry.result.is_rate_optimal_proven
            )

    def test_directory_expansion(self, machine):
        sources = collect_sources([CORPUS_DIR])
        assert sources == FILES

    def test_in_memory_ddgs(self, machine):
        rng = random.Random(7)
        loops = [
            random_ddg(rng, machine, GeneratorConfig(min_ops=2, max_ops=6),
                       name=f"mem{i}")
            for i in range(3)
        ]
        rep = run_batch(loops, machine, jobs=1)
        assert [e.name for e in rep.entries] == ["mem0", "mem1", "mem2"]
        assert all(e.source == "<memory>" for e in rep.entries)

    def test_bad_loop_isolated(self, machine, tmp_path):
        good = SUBSET[0]
        bad = tmp_path / "broken.ddg"
        bad.write_text("op x no_such_class\n", encoding="utf-8")
        rep = run_batch([good, bad], machine, jobs=2)
        assert rep.failed == 1
        assert rep.entries[0].error is None
        assert rep.entries[1].error is not None
        assert "no_such_class" in rep.entries[1].error

    def test_bad_jobs_rejected(self, machine):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_batch(SUBSET, machine, jobs=0)


class TestJsonReport:
    def test_schema(self, report):
        doc = json.loads(report.to_json())
        assert doc["report_version"] == REPORT_VERSION
        assert doc["machine"] == "powerpc604"
        assert doc["loops"] == len(SUBSET)
        assert doc["scheduled"] == len(SUBSET)
        entry = doc["entries"][0]
        for key in (
            "name", "source", "num_ops", "t_dep", "t_res", "t_lb",
            "achieved_t", "delta_from_lb", "is_rate_optimal_proven",
            "seconds", "attempts",
        ):
            assert key in entry, key
        attempt = entry["attempts"][0]
        assert set(attempt) == {
            "t", "status", "backend", "seconds", "nodes", "repaired",
            "model", "bound", "gap", "warm_started",
        }
        warmstart = entry["warmstart"]
        for key in (
            "enabled", "heuristic_ii", "heuristic_mii",
            "heuristic_seconds", "placements", "ilp_solves",
            "skipped_all_ilp",
        ):
            assert key in warmstart, key
        # Heuristic-settled attempts carry no model; check the stats
        # schema on any attempt that actually built an ILP.
        solved = [
            a
            for e in doc["entries"]
            for a in e["attempts"]
            if a["status"] not in ("heuristic", "modulo_infeasible")
        ]
        for model in (a["model"] for a in solved):
            for key in (
                "variables", "constraints", "nonzeros",
                "eliminated_variables", "eliminated_constraints",
                "eliminated_nonzeros", "presolve_seconds",
                "build_seconds", "lower_seconds", "solve_seconds",
                "total_seconds",
            ):
                assert key in model, key

    def test_delta_consistency(self, report):
        doc = report.to_json_dict()
        for entry in doc["entries"]:
            assert (
                entry["delta_from_lb"]
                == entry["achieved_t"] - entry["t_lb"]
            )
            assert entry["delta_from_lb"] >= 0

    def test_render_mentions_every_loop(self, report):
        text = report.render()
        for entry in report.entries:
            assert entry.name in text


class TestLostCellProvenance:
    """v8: degraded entries carry taxonomy for every lost period cell."""

    def _result(self, degraded):
        from repro.core.bounds import LowerBounds
        from repro.core.scheduler import ScheduleAttempt, SchedulingResult
        from repro.supervision.records import CRASH, FailureRecord

        attempts = [
            ScheduleAttempt(t_period=4, status="crash", backend="highs",
                            failure=FailureRecord(
                                kind=CRASH, attempt=2, retries=1,
                                elapsed=0.5, detail="exit code 70")),
            ScheduleAttempt(t_period=4, status="cancelled", backend="sat"),
            ScheduleAttempt(t_period=5, status="optimal", backend="bnb"),
        ]
        return SchedulingResult(
            loop_name="ex", bounds=LowerBounds(t_dep=4, t_res=3),
            attempts=attempts, degraded=degraded,
        )

    def test_lost_cells_cover_failures_and_cancellations(self):
        lost = self._result(degraded=True).lost_cells()
        assert lost == [
            {"t": 4, "backend": "highs", "kind": "crash",
             "detail": "exit code 70"},
            {"t": 4, "backend": "sat", "kind": "cancelled", "detail": ""},
        ]

    def test_degraded_entry_emits_lost_cells(self):
        from repro.parallel.batch import BatchEntry

        entry = BatchEntry(name="ex", source="<memory>", num_ops=3,
                           result=self._result(degraded=True))
        doc = entry.to_json_dict()
        assert doc["degraded"] is True
        assert [c["kind"] for c in doc["lost_cells"]] == [
            "crash", "cancelled",
        ]
        assert json.loads(json.dumps(doc))["lost_cells"] == doc["lost_cells"]

    def test_clean_entry_omits_lost_cells(self):
        from repro.parallel.batch import BatchEntry

        entry = BatchEntry(name="ex", source="<memory>", num_ops=3,
                           result=self._result(degraded=False))
        assert "lost_cells" not in entry.to_json_dict()


class TestBatchCli:
    def test_batch_subcommand(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "batch", str(SUBSET[0]), str(SUBSET[1]),
            "--jobs", "2", "--time-limit", "10", "--out", str(out),
        ])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["loops"] == 2 and doc["scheduled"] == 2
        captured = capsys.readouterr().out
        assert "2 loop(s): 2 scheduled" in captured

    def test_batch_json_to_stdout(self, capsys):
        code = main([
            "batch", str(SUBSET[0]), "--jobs", "1", "--json",
            "--time-limit", "10",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["loops"] == 1

    def test_batch_directory(self, tmp_path, capsys):
        loop_dir = tmp_path / "loops"
        loop_dir.mkdir()
        for path in SUBSET[:2]:
            (loop_dir / path.name).write_text(
                path.read_text(encoding="utf-8"), encoding="utf-8"
            )
        code = main(["batch", str(loop_dir), "--jobs", "1",
                     "--time-limit", "10"])
        assert code == 0
        assert "2 loop(s)" in capsys.readouterr().out

    def test_schedule_jobs_subcommand(self, capsys):
        code = main([
            "schedule", "--kernel", "motivating", "--machine", "motivating",
            "--jobs", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "-> T=4" in out
        assert "T=3: infeasible" in out


class TestStoreReporting:
    @pytest.fixture()
    def warm_report(self, machine, tmp_path):
        from repro.store.tiering import clear_tiers

        store = tmp_path / "store"
        clear_tiers()
        cold = run_batch(SUBSET[:3], machine, jobs=1,
                         time_limit_per_t=10.0, store=store)
        clear_tiers()
        warm = run_batch(SUBSET[:3], machine, jobs=1,
                         time_limit_per_t=10.0, store=store)
        clear_tiers()
        return cold, warm

    def test_v5_entries_carry_store_and_schedule(self, warm_report):
        cold, warm = warm_report
        for report, expect_hit in ((cold, False), (warm, True)):
            doc = report.to_json_dict()
            assert doc["report_version"] == REPORT_VERSION
            for entry in doc["entries"]:
                assert "schedule" in entry
                store = entry["store"]
                assert set(store) == {
                    "hit", "tier", "verified", "evicted", "published",
                    "seconds",
                }
                assert store["hit"] is expect_hit

    def test_store_summary_counts_hits(self, warm_report):
        cold, warm = warm_report
        assert cold.store_hits == 0
        assert cold.store_summary()["published"] == 3
        summary = warm.store_summary()
        assert summary["consulted"] == 3
        assert summary["hits"] == 3
        assert summary["published"] == 0
        assert warm.store_hits == 3

    def test_v9_report_has_no_cache_block(self, warm_report):
        _, warm = warm_report
        assert REPORT_VERSION == 10
        assert "cache" not in warm.to_json_dict()
        text = warm.render()
        assert "3 disk" in text
        assert "lru hits" not in text and "incremental:" not in text

    def test_no_store_no_summary(self, report):
        assert report.store_summary() is None
        assert report.store_hits == 0


class TestLoaderCompat:
    def test_current_version_round_trips(self, report, tmp_path):
        from repro.parallel import load_report

        path = tmp_path / "report.json"
        report.save_json(path)
        loaded = load_report(path)
        assert loaded.to_json_dict()["report_version"] == REPORT_VERSION
        assert loaded.scheduled == report.scheduled
        assert loaded.failed == 0
        assert [e.name for e in loaded.entries] == [
            e.name for e in report.entries
        ]
        # Raw entries still feed the render path.
        assert loaded.entries[0].name in loaded.render()
        assert loaded.to_json_dict()["entries"] == (
            report.to_json_dict()["entries"]
        )

    def test_old_version_refused(self, report, tmp_path):
        from repro.parallel import load_report

        doc = report.to_json_dict()
        doc["report_version"] = 9
        path = tmp_path / "v9.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(ValueError, match=r"version 9 is not supported "
                           r"\(supported: 10\)"):
            load_report(path)
