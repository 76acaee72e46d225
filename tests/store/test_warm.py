"""Warming the store from batch reports and journals."""

import json
import pathlib

import pytest

from repro.core.scheduler import AttemptConfig
from repro.machine.presets import powerpc604
from repro.parallel import run_batch
from repro.store import ScheduleStore
from repro.store.tiering import clear_tiers, lookup
from repro.store.warm import warm_store

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent.parent / "corpus"
SUBSET = sorted(CORPUS_DIR.glob("*.ddg"))[:3]

CONFIG = AttemptConfig(time_limit=10.0)


@pytest.fixture(autouse=True)
def fresh_state():
    clear_tiers()
    yield
    clear_tiers()


@pytest.fixture(scope="module")
def machine():
    return powerpc604()


class TestWarmFromReport:
    def test_report_round_trip(self, tmp_path, machine):
        report = run_batch(SUBSET, machine, jobs=1, time_limit_per_t=10.0)
        report_path = tmp_path / "report.json"
        report.save_json(report_path)

        store = ScheduleStore(tmp_path / "store")
        outcome = warm_store(report_path, store, machine, CONFIG, 10)
        assert outcome["examined"] == len(SUBSET)
        assert outcome["published"] == len(SUBSET)
        assert outcome["skipped"] == {}
        assert len(store) == len(SUBSET)

        # The warmed entries must be genuine hits for a fresh run.
        clear_tiers()
        warmed = run_batch(SUBSET, machine, jobs=1,
                           time_limit_per_t=10.0,
                           store=store.root)
        assert all(
            e.result.store.hit for e in warmed.entries
        )

    def test_warmed_hits_keep_each_attempts_backend(self, tmp_path,
                                                     machine):
        # Regression: warming once rebuilt attempts without their
        # backend, so hits on warmed entries reported "".
        report = run_batch(SUBSET, machine, backend="sat", jobs=1,
                           time_limit_per_t=10.0, warmstart=False)
        report_path = tmp_path / "report.json"
        report.save_json(report_path)
        config = AttemptConfig(backend="sat", time_limit=10.0,
                               warmstart=False)
        store = ScheduleStore(tmp_path / "store")
        outcome = warm_store(report_path, store, machine, config, 10)
        assert outcome["published"] == len(SUBSET)
        clear_tiers()
        warmed = run_batch(SUBSET, machine, backend="sat", jobs=1,
                           time_limit_per_t=10.0, warmstart=False,
                           store=store.root)
        for cold, hit in zip(report.entries, warmed.entries):
            assert hit.result.store.hit
            backends = [a["backend"] for a in
                        cold.to_json_dict()["attempts"]]
            assert "sat" in backends
            assert [a.backend for a in hit.result.attempts] == backends

    def test_journal_round_trip(self, tmp_path, machine):
        journal = tmp_path / "batch.jsonl"
        run_batch(SUBSET, machine, jobs=1, time_limit_per_t=10.0,
                  journal=journal)
        store = ScheduleStore(tmp_path / "store")
        outcome = warm_store(journal, store, machine, CONFIG, 10)
        assert outcome["published"] == len(SUBSET)
        clear_tiers()
        from repro.ddg.builders import parse_ddg

        ddg = parse_ddg(SUBSET[0].read_text(encoding="utf-8"))
        stored, stats = lookup(store, ddg, machine, CONFIG, 10)
        assert stored is not None and stats.verified


class TestSkipReasons:
    def _report_doc(self, tmp_path, machine):
        report = run_batch(SUBSET[:1], machine, jobs=1,
                           time_limit_per_t=10.0)
        return report.to_json_dict()

    def _warm_doc(self, tmp_path, machine, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        store = ScheduleStore(tmp_path / "store")
        return warm_store(path, store, machine, CONFIG, 10), store

    def test_error_entries_skip(self, tmp_path, machine):
        doc = self._report_doc(tmp_path, machine)
        doc["entries"][0]["error"] = "boom"
        outcome, store = self._warm_doc(tmp_path, machine, doc)
        assert outcome["skipped"] == {"error_entry": 1}
        assert len(store) == 0

    def test_pre_v5_entries_skip_without_schedule(self, tmp_path, machine):
        doc = self._report_doc(tmp_path, machine)
        del doc["entries"][0]["schedule"]
        outcome, _ = self._warm_doc(tmp_path, machine, doc)
        assert outcome["skipped"] == {"no_schedule": 1}

    def test_degraded_entries_skip(self, tmp_path, machine):
        doc = self._report_doc(tmp_path, machine)
        doc["entries"][0]["degraded"] = True
        outcome, _ = self._warm_doc(tmp_path, machine, doc)
        assert outcome["skipped"] == {"degraded": 1}

    def test_missing_source_skips(self, tmp_path, machine):
        doc = self._report_doc(tmp_path, machine)
        doc["entries"][0]["source"] = str(tmp_path / "gone.ddg")
        outcome, _ = self._warm_doc(tmp_path, machine, doc)
        assert outcome["skipped"] == {"source_missing": 1}

    def test_in_memory_source_skips(self, tmp_path, machine):
        doc = self._report_doc(tmp_path, machine)
        doc["entries"][0]["source"] = "<memory>"
        outcome, _ = self._warm_doc(tmp_path, machine, doc)
        assert outcome["skipped"] == {"in_memory_source": 1}

    def test_tampered_schedule_fails_verify(self, tmp_path, machine):
        doc = self._report_doc(tmp_path, machine)
        schedule = doc["entries"][0]["schedule"]
        schedule["starts"] = [0] * len(schedule["starts"])
        outcome, store = self._warm_doc(tmp_path, machine, doc)
        assert outcome["skipped"] == {"verify_failed": 1}
        assert len(store) == 0

    def test_source_resolved_relative_to_document(self, tmp_path, machine):
        doc = self._report_doc(tmp_path, machine)
        name = pathlib.Path(doc["entries"][0]["source"]).name
        (tmp_path / name).write_text(
            SUBSET[0].read_text(encoding="utf-8"), encoding="utf-8"
        )
        doc["entries"][0]["source"] = name
        outcome, _ = self._warm_doc(tmp_path, machine, doc)
        assert outcome["published"] == 1
