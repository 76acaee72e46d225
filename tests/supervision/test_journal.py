"""The journal: headers, appends, corrupt-line tolerance, resume keys."""

import json

import pytest

from repro.core.scheduler import AttemptConfig
from repro.machine.machine import Machine
from repro.machine.presets import motivating_machine, powerpc604
from repro.machine.reservation import ReservationTable
from repro.supervision.journal import (
    JOURNAL_VERSION,
    Journal,
    JournalError,
    completed_entries,
    config_digest,
    entry_key,
    machine_digest,
    read_journal,
)

DIGEST = config_digest("machine-abc", backend="auto", time_limit=10.0)


def _record(seq, source, name, entry):
    return {"seq": seq, "source": source, "name": name, "entry": entry}


def _write(path, *records):
    with Journal(path, DIGEST) as journal:
        for record in records:
            journal.append(record)


class TestConfigDigest:
    def test_deterministic_and_order_independent(self):
        a = config_digest("m", backend="auto", time_limit=10.0)
        b = config_digest("m", time_limit=10.0, backend="auto")
        assert a == b

    def test_sensitive_to_every_setting(self):
        base = config_digest("m", backend="auto", time_limit=10.0)
        assert config_digest("m2", backend="auto", time_limit=10.0) != base
        assert config_digest("m", backend="sat", time_limit=10.0) != base
        assert config_digest("m", backend="auto", time_limit=30.0) != base


class TestMachineDigest:
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
        # share batch journals.
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

        machine = powerpc604()
        assert machine_digest(machine) == (
            "4e13bf4ca445b15b6bffc7faf01c689c06f0cad15a5e377dcc519dde5218bd2b"
        )
        assert _batch_digest(machine, AttemptConfig(), 10) == (
            "cd1f058acd3ede8c65b8401fd7149302eae1dc028062ce3c4411a6656e034531"
        )


class TestBatchJournal:
    def test_header_then_entries(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, _record(0, "a.ddg", "a", {"name": "a"}))
        lines = path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["journal_version"] == JOURNAL_VERSION
        assert header["config_digest"] == DIGEST
        record = json.loads(lines[1])
        assert record == {
            "seq": 0, "source": "a.ddg", "name": "a",
            "entry": {"name": "a"},
        }

    def test_header_meta_and_lines_are_sorted_json(self, tmp_path):
        path = tmp_path / "j.jsonl"
        with Journal(path, "d", meta={"machine": "m", "loops": 2}) as journal:
            journal.append({"seq": 0, "name": "a", "source": "a.ddg",
                            "entry": {}})
        assert path.read_text(encoding="utf-8").splitlines() == [
            '{"config_digest": "d", "journal_version": 1, "loops": 2, '
            '"machine": "m"}',
            '{"entry": {}, "name": "a", "seq": 0, "source": "a.ddg"}',
        ]

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, _record(0, "a.ddg", "a", {"name": "a"}))
        _write(path, _record(1, "b.ddg", "b", {"name": "b"}))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        assert sum("journal_version" in line for line in lines) == 1

    def test_digest_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, _record(0, "a.ddg", "a", {"name": "a"}))
        with pytest.raises(JournalError, match="different settings"):
            Journal(path, "other-digest")

    def test_version_mismatch_refused(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(
            json.dumps({"journal_version": 99, "config_digest": DIGEST})
            + "\n",
            encoding="utf-8",
        )
        with pytest.raises(JournalError, match="version"):
            read_journal(path)
        with pytest.raises(JournalError, match="version"):
            Journal(path, DIGEST)


class TestReadJournal:
    def test_later_line_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, _record(0, "a.ddg", "a", {"error": "crash"}),
               _record(0, "a.ddg", "a", {"achieved_t": 4}))
        _, done = completed_entries(path)
        assert done[entry_key("a.ddg", "a")]["entry"] == {"achieved_t": 4}

    def test_truncated_trailing_line_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, _record(0, "a.ddg", "a", {"achieved_t": 4}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"seq": 1, "source": "b.ddg", "na')  # torn write
        header, records = read_journal(path)
        assert header is not None
        assert records == [_record(0, "a.ddg", "a", {"achieved_t": 4})]

    def test_garbage_lines_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(path, _record(0, "a.ddg", "a", {"achieved_t": 4}))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write("[1, 2]\n")
            handle.write('{"no_entry_field": true}\n')
        _, records = read_journal(path)
        assert len(records) == 2  # the list is not a record
        _, done = completed_entries(path)
        assert list(done) == [entry_key("a.ddg", "a")]

    def test_missing_file_is_empty(self, tmp_path):
        assert read_journal(tmp_path / "absent.jsonl") == (None, [])


class TestCompletedEntries:
    def test_failed_entries_dropped_for_retry(self, tmp_path):
        path = tmp_path / "j.jsonl"
        _write(
            path,
            _record(0, "a.ddg", "a", {"achieved_t": 4}),
            _record(1, "b.ddg", "b", {"error": "crash",
                                      "failure": {"kind": "crash"}}),
            # Budget exhausted but no error: a legitimate outcome.
            _record(2, "c.ddg", "c", {"achieved_t": None}),
        )
        _, done = completed_entries(path)
        assert set(done) == {
            entry_key("a.ddg", "a"), entry_key("c.ddg", "c")
        }
