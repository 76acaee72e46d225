"""Checkpoint/resume for batch runs, and healthy-run equivalence.

The acceptance bar: a batch killed mid-corpus and resumed from its
journal must produce a report equivalent to an uninterrupted run (same
per-loop outcomes; wall-clock timings excluded).
"""

import json
import random
from pathlib import Path

import pytest

from repro.cli import main
from repro.ddg.builders import serialize_ddg
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.ddg.kernels import daxpy, dot_product
from repro.machine.presets import powerpc604
from repro.parallel import batch as batch_module
from repro.parallel import run_batch
from repro.supervision import JournalError, faults
from repro.supervision.faults import ENV_VAR
from repro.supervision.cells import Cell
from repro.supervision.journal import read_journal
from repro.supervision.records import FailureRecord, SupervisionPolicy

#: JSON keys that hold wall-clock measurements, not outcomes.
TIME_KEYS = frozenset({
    "seconds", "total_seconds", "presolve_seconds", "build_seconds",
    "lower_seconds", "solve_seconds", "heuristic_seconds", "elapsed",
})


def scrubbed(doc):
    """Deep-copy ``doc`` with every timing field zeroed."""
    if isinstance(doc, dict):
        return {
            key: (0 if key in TIME_KEYS else scrubbed(value))
            for key, value in doc.items()
        }
    if isinstance(doc, list):
        return [scrubbed(item) for item in doc]
    return doc


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    faults.reset()
    yield
    faults.reset()


@pytest.fixture
def machine():
    return powerpc604()


@pytest.fixture
def corpus(tmp_path, machine):
    rng = random.Random(5)
    config = GeneratorConfig(min_ops=2, max_ops=6)
    paths = []
    for i in range(4):
        ddg = random_ddg(rng, machine, config, name=f"t{i}")
        path = tmp_path / f"t{i}.ddg"
        path.write_text(serialize_ddg(ddg), encoding="utf-8")
        paths.append(path)
    return paths


class TestJournalWriting:
    def test_journal_records_every_loop(self, corpus, machine, tmp_path):
        journal = tmp_path / "run.jsonl"
        run_batch(corpus, machine, jobs=1, time_limit_per_t=10.0,
                  journal=journal)
        header, records = read_journal(journal)
        assert header["machine"] == machine.name
        assert header["loops"] == len(corpus)
        assert len(records) == len(corpus)

    def test_journal_digest_guards_settings(self, corpus, machine,
                                            tmp_path):
        journal = tmp_path / "run.jsonl"
        run_batch(corpus[:1], machine, jobs=1, time_limit_per_t=10.0,
                  journal=journal)
        with pytest.raises(JournalError, match="different settings"):
            run_batch(corpus[:1], machine, jobs=1, time_limit_per_t=5.0,
                      journal=journal)


class TestResume:
    def test_resume_reruns_only_unfinished_loops(
        self, corpus, machine, tmp_path
    ):
        journal = tmp_path / "run.jsonl"
        # Phase 1: a "killed" run that only covered half the corpus.
        partial = run_batch(corpus[:2], machine, jobs=1,
                            time_limit_per_t=10.0, journal=journal)
        # Phase 2: resume over the full corpus.
        resumed = run_batch(corpus, machine, jobs=1,
                            time_limit_per_t=10.0, resume=journal)
        # Carried entries are byte-identical to what phase 1 recorded
        # (timings included: they were not re-run).
        for old, new in zip(partial.entries, resumed.entries[:2]):
            assert new.raw is not None, "entry should be carried over"
            assert new.to_json_dict() == old.to_json_dict()
        # And the full report is outcome-equivalent to a fresh run.
        fresh = run_batch(corpus, machine, jobs=1, time_limit_per_t=10.0)
        assert scrubbed(resumed.to_json_dict()) == scrubbed(
            fresh.to_json_dict()
        )

    def test_failed_entries_are_retried_on_resume(
        self, corpus, machine, tmp_path, monkeypatch
    ):
        journal = tmp_path / "run.jsonl"
        monkeypatch.setenv(ENV_VAR, "crash@batch:loop=t2")
        wounded = run_batch(
            corpus, machine, jobs=2, time_limit_per_t=10.0,
            journal=journal,
            policy=SupervisionPolicy(max_retries=0),
        )
        assert wounded.failed == 1
        monkeypatch.delenv(ENV_VAR)
        faults.reset()
        healed = run_batch(corpus, machine, jobs=1,
                           time_limit_per_t=10.0, resume=journal)
        assert healed.failed == 0
        assert healed.scheduled == len(corpus)
        # The journal now carries the successful re-run (later wins).
        _, records = read_journal(journal)
        t2 = [r for r in records if r["name"] == "t2"]
        assert t2[-1]["entry"].get("error") is None
        # Outcome-equivalent to a run that never saw the fault.
        fresh = run_batch(corpus, machine, jobs=1, time_limit_per_t=10.0)
        assert scrubbed(healed.to_json_dict()) == scrubbed(
            fresh.to_json_dict()
        )

    def test_resume_against_changed_settings_refused(
        self, corpus, machine, tmp_path
    ):
        journal = tmp_path / "run.jsonl"
        run_batch(corpus[:1], machine, jobs=1, time_limit_per_t=10.0,
                  journal=journal)
        with pytest.raises(JournalError, match="different settings"):
            run_batch(corpus[:1], machine, jobs=1, time_limit_per_t=5.0,
                      resume=journal)

    def test_truncated_journal_line_reruns_that_loop(
        self, corpus, machine, tmp_path
    ):
        journal = tmp_path / "run.jsonl"
        run_batch(corpus[:2], machine, jobs=1, time_limit_per_t=10.0,
                  journal=journal)
        # Tear the last record mid-line, as a kill mid-append would.
        text = journal.read_text(encoding="utf-8")
        journal.write_text(text[:-40], encoding="utf-8")
        resumed = run_batch(corpus[:2], machine, jobs=1,
                            time_limit_per_t=10.0, resume=journal)
        assert resumed.scheduled == 2
        carried = [e for e in resumed.entries if e.raw is not None]
        assert len(carried) == 1  # only the intact record was reused

    def test_loop_named_unlike_its_file_is_carried(
        self, machine, tmp_path, monkeypatch
    ):
        # a.ddg holds the loop "dotprod": the journal records the DDG's
        # own name, but the record is found by its path.
        loops = tmp_path / "loops"
        loops.mkdir()
        (loops / "a.ddg").write_text(serialize_ddg(dot_product()),
                                     encoding="utf-8")
        journal = tmp_path / "run.jsonl"
        first = run_batch([loops], machine, jobs=1, journal=journal)
        assert first.entries[0].name == "dotprod"
        reruns = []
        monkeypatch.setattr(batch_module, "_schedule_source",
                            lambda *args: reruns.append(args))
        resumed = run_batch([loops], machine, jobs=1, resume=journal)
        assert reruns == []
        assert resumed.entries[0].to_json_dict() == (
            first.entries[0].to_json_dict()
        )

    def test_lost_loop_keeps_its_task_name(self):
        cell = Cell(0, lambda entry: 0)
        cell.failure = FailureRecord(kind="crash", detail="worker died")
        entry = batch_module._cell_entry(cell, "fam/x", "corpus/x.ddg")
        assert entry.name == "fam/x"
        assert entry.error.startswith("loop 'fam/x' (corpus/x.ddg): ")


#: What ``run_batch`` journals for ``dotprod.ddg`` (the dot-product kernel)
#: under its default settings on powerpc604, as every release so far
#: has written it.
PARENT_DIGEST = (
    "da3542ca0abb7ec7cadf3951829564d52bfadbe05cfb569b44ef1e7976126d44"
)
PARENT_HEADER = (
    '{"backend": "auto", "config_digest": "' + PARENT_DIGEST + '", '
    '"journal_version": 1, "loops": 1, "machine": "powerpc604"}'
)
PARENT_ENTRY = (
    '{"entry": {"achieved_t": 3, "attempts": [{"backend": "", "bound": '
    'null, "gap": null, "model": {}, "nodes": 0, "repaired": false, '
    '"seconds": 0.0, "status": "heuristic", "t": 3, "warm_started": '
    'true}], "degraded": false, "delta_from_lb": 0, '
    '"is_rate_optimal_proven": true, "name": "dotprod", "num_ops": 4, '
    '"schedule": {"colors": {"0": 0, "1": 0, "2": 0, "3": 0}, '
    '"fu_counts_used": null, "loop": "dotprod", "starts": [0, 1, 3, 7], '
    '"t_period": 3}, "seconds": 0.001402, "source": "dotprod.ddg", "t_dep": '
    '3, "t_lb": 3, "t_res": 2, "warmstart": {"enabled": true, '
    '"heuristic_ii": 3, "heuristic_mii": 3, "heuristic_seconds": '
    '0.000766, "ilp_solves": 0, "placements": 4, "skipped_all_ilp": '
    'true}}, "name": "dotprod", "seq": 0, "source": "dotprod.ddg"}'
)


class TestJournalFormat:
    def test_default_settings_digest_is_pinned(self, machine, tmp_path):
        journal = tmp_path / "run.jsonl"
        path = tmp_path / "dot.ddg"
        path.write_text(serialize_ddg(dot_product()), encoding="utf-8")
        run_batch([path], machine, jobs=1, journal=journal)
        header, _ = read_journal(journal)
        assert header["config_digest"] == PARENT_DIGEST

    def test_literal_journal_lines_resume(self, machine, tmp_path,
                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        Path("dotprod.ddg").write_text(serialize_ddg(dot_product()),
                                       encoding="utf-8")
        Path("daxpy.ddg").write_text(serialize_ddg(daxpy()),
                                     encoding="utf-8")
        Path("run.jsonl").write_text(
            PARENT_HEADER + "\n" + PARENT_ENTRY + "\n", encoding="utf-8"
        )
        report = run_batch(["dotprod.ddg", "daxpy.ddg"], machine, jobs=1,
                           resume="run.jsonl")
        carried, fresh = report.entries
        assert carried.raw == json.loads(PARENT_ENTRY)["entry"]
        assert fresh.raw is None and fresh.scheduled
        lines = Path("run.jsonl").read_text(encoding="utf-8").splitlines()
        assert lines[:2] == [PARENT_HEADER, PARENT_ENTRY]
        assert len(lines) == 3
        appended = json.loads(lines[2])
        assert list(appended) == ["entry", "name", "seq", "source"]
        assert (appended["seq"], appended["source"]) == (1, "daxpy.ddg")
        assert appended["entry"] == fresh.to_json_dict()

    def test_resume_digest_checked_with_a_separate_journal(
        self, corpus, machine, tmp_path
    ):
        old = tmp_path / "old.jsonl"
        new = tmp_path / "new.jsonl"
        run_batch(corpus[:1], machine, jobs=1, time_limit_per_t=10.0,
                  journal=old)
        with pytest.raises(JournalError, match="different settings"):
            run_batch(corpus[:1], machine, jobs=1, time_limit_per_t=5.0,
                      resume=old, journal=new)
        assert not new.exists()

    def test_missing_resume_journal_is_an_error(self, corpus, machine,
                                                tmp_path):
        with pytest.raises(FileNotFoundError, match="no journal"):
            run_batch(corpus[:1], machine, jobs=1,
                      resume=tmp_path / "absent.jsonl")


class TestHealthyRunEquivalence:
    def test_supervision_guards_do_not_change_results(
        self, corpus, machine
    ):
        relaxed = run_batch(corpus, machine, jobs=2,
                            time_limit_per_t=10.0)
        guarded = run_batch(
            corpus, machine, jobs=2, time_limit_per_t=10.0,
            policy=SupervisionPolicy(deadline=120.0, grace=10.0,
                                     max_retries=1),
        )
        assert scrubbed(relaxed.to_json_dict()) == scrubbed(
            guarded.to_json_dict()
        )

    def test_supervised_sequential_matches_inline(self, machine, corpus):
        from repro.core import schedule_loop
        from repro.ddg.builders import parse_ddg

        ddg = parse_ddg(corpus[0].read_text(encoding="utf-8"))
        inline = schedule_loop(ddg, machine, time_limit_per_t=10.0)
        supervised = schedule_loop(
            ddg, machine, time_limit_per_t=10.0,
            supervision=SupervisionPolicy(deadline=120.0),
        )
        assert (supervised.schedule.t_period
                == inline.schedule.t_period)
        assert (supervised.is_rate_optimal_proven
                == inline.is_rate_optimal_proven)
        assert [a.status for a in supervised.attempts] == [
            a.status for a in inline.attempts
        ]


class TestLoaderDiagnostics:
    def test_unreadable_corpus_file_isolated(self, corpus, machine,
                                             tmp_path):
        bad = tmp_path / "garbled.ddg"
        bad.write_bytes(b"\xff\xfe\x00garbage")
        report = run_batch([corpus[0], bad], machine, jobs=1,
                           time_limit_per_t=10.0)
        assert report.failed == 1
        entry = report.entries[1]
        assert "cannot read corpus file" in entry.error
        assert "garbled" in entry.error
        assert str(bad) in entry.error

    def test_parse_error_names_loop_and_path(self, corpus, machine,
                                             tmp_path):
        bad = tmp_path / "broken.ddg"
        bad.write_text("op x no_such_class\n", encoding="utf-8")
        report = run_batch([bad], machine, jobs=1, time_limit_per_t=10.0)
        entry = report.entries[0]
        assert entry.error is not None
        assert "'broken'" in entry.error
        assert str(bad) in entry.error

    def test_cli_rejects_unparsable_ddg(self, tmp_path):
        bad = tmp_path / "bad.ddg"
        bad.write_text("not a ddg", encoding="utf-8")
        with pytest.raises(SystemExit, match="cannot parse DDG file"):
            main(["schedule", "--ddg", str(bad)])

    def test_cli_rejects_bad_machine_file(self, tmp_path):
        bad = tmp_path / "bad.machine"
        bad.write_text("frobnicate everything", encoding="utf-8")
        with pytest.raises(SystemExit, match="cannot load machine file"):
            main(["schedule", "--kernel", "motivating",
                  "--machine-file", str(bad)])


class TestBatchCliJournal:
    def test_journal_and_resume_flags(self, corpus, machine, tmp_path,
                                      capsys):
        journal = tmp_path / "run.jsonl"
        out = tmp_path / "report.json"
        code = main([
            "batch", str(corpus[0]), str(corpus[1]),
            "--machine", machine.name, "--jobs", "1",
            "--time-limit", "10", "--journal", str(journal),
        ])
        assert code == 0
        assert journal.exists()
        code = main([
            "batch", str(corpus[0]), str(corpus[1]), str(corpus[2]),
            "--machine", machine.name, "--jobs", "1",
            "--time-limit", "10", "--resume", str(journal),
            "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["loops"] == 3
        assert doc["scheduled"] == 3
        _, records = read_journal(journal)
        assert len(records) == 3

    def test_supervision_flags_accepted(self, corpus, machine, capsys):
        code = main([
            "batch", str(corpus[0]), "--machine", machine.name,
            "--jobs", "1", "--time-limit", "10",
            "--deadline", "60", "--retries", "1", "--memory-mb", "2048",
        ])
        assert code == 0
        assert "1 loop(s): 1 scheduled" in capsys.readouterr().out
