"""Checkpoint/resume for batch runs, and healthy-run equivalence.

The acceptance bar: a batch killed mid-corpus and resumed from its
journal must produce a report equivalent to an uninterrupted run (same
per-loop outcomes; wall-clock timings excluded).
"""

import json
import random

import pytest

from repro.cli import main
from repro.ddg.builders import serialize_ddg
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.machine.presets import powerpc604
from repro.parallel import run_batch
from repro.supervision import JournalError, faults
from repro.supervision.faults import ENV_VAR
from repro.supervision.journal import read_journal
from repro.supervision.records import SupervisionPolicy

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
        header, entries = read_journal(journal)
        assert header["machine"] == machine.name
        assert header["loops"] == len(corpus)
        assert len(entries) == len(corpus)

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
        _, entries = read_journal(journal)
        (t2_key,) = [k for k in entries if k.endswith("::t2")]
        assert entries[t2_key]["entry"].get("error") is None
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
        _, entries = read_journal(journal)
        assert len(entries) == 3

    def test_supervision_flags_accepted(self, corpus, machine, capsys):
        code = main([
            "batch", str(corpus[0]), "--machine", machine.name,
            "--jobs", "1", "--time-limit", "10",
            "--deadline", "60", "--retries", "1", "--memory-mb", "2048",
        ])
        assert code == 0
        assert "1 loop(s): 1 scheduled" in capsys.readouterr().out
