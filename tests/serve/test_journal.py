"""The daemon's accepted/done journal, on the shared journal format.

Resume tests start from literal journal lines in the format every
daemon so far has written (header with ``"kind": "serve"``, then
``accepted``/``done`` events as sorted-key JSON), so a journal left by
an older daemon keeps resuming.
"""

import json

import pytest

from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon
from repro.serve.jobs import DONE, FAILED, Job
from repro.supervision.journal import JournalError, read_journal

REQUEST = {"ddg": "loop x { }", "machine": "powerpc604",
           "backend": "auto", "objective": "min_sum_t",
           "time_limit": 5.0, "warmstart": True}

#: ``config_digest("serve", time_limit=5.0, max_extra=10)``.
DIGEST = "e08f78ab66099c61305de2132f1f87ebef2aff65685c0b7ea04a89b1be994e1c"

HEADER = (
    '{"config_digest": "' + DIGEST + '", "journal_version": 1, '
    '"kind": "serve"}'
)
REQUEST_JSON = (
    '{"backend": "auto", "ddg": "loop x { }", "machine": "powerpc604", '
    '"objective": "min_sum_t", "time_limit": 5.0, "warmstart": true}'
)


def accepted_line(job_id, key="k"):
    return (
        '{"client": "c", "event": "accepted", "job": "' + job_id + '", '
        '"key": "' + key + '", "request": ' + REQUEST_JSON
        + ', "weight": 1}'
    )


def done_line(job_id):
    return (
        '{"entry": {"achieved_t": 4}, "event": "done", "job": "'
        + job_id + '", "state": "done"}'
    )


def failed_line(job_id):
    return (
        '{"error": "boom", "event": "done", "failure": {"kind": "crash"}, '
        '"job": "' + job_id + '", "state": "failed"}'
    )


def write_lines(path, *lines):
    path.write_text("".join(line + "\n" for line in lines),
                    encoding="utf-8")


def opened(path, **overrides):
    """A daemon with its journal opened and registry rebuilt (no HTTP)."""
    overrides.setdefault("time_limit", 5.0)
    daemon = ServeDaemon(ServeConfig(journal=str(path), **overrides))
    daemon._open_journal()
    return daemon


def queued_ids(daemon):
    ids = []
    while (job := daemon.queue.pop()) is not None:
        ids.append(job.id)
    return ids


class TestRoundTrip:
    def test_header_then_events(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        daemon = opened(path)
        assert daemon._digest() == DIGEST
        job = Job("j1", "c", "k1", dict(REQUEST))
        daemon._journal_accepted(job)
        daemon._finish_job(job, DONE, entry={"achieved_t": 4})
        daemon._journal.close()
        assert path.read_text(encoding="utf-8").splitlines() == [
            HEADER, accepted_line("j1", key="k1"), done_line("j1"),
        ]

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        first = opened(path)
        first._journal_accepted(Job("j1", "c", "k", dict(REQUEST)))
        first._journal.close()
        second = opened(path)
        second._journal.close()
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [line for line in lines if "journal_version" in line] == [HEADER]
        assert queued_ids(second) == ["j1"]

    def test_digest_mismatch_refuses(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        opened(path)._journal.close()
        with pytest.raises(JournalError, match="different settings"):
            opened(path, time_limit=6.0)


class TestResumeSet:
    def test_accepted_without_done_is_unfinished(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        write_lines(path, HEADER, accepted_line("j1", key="k1"),
                    accepted_line("j2", key="k2"), done_line("j1"))
        daemon = opened(path)
        daemon._journal.close()
        finished = daemon._registry["j1"]
        assert finished.state == DONE
        assert finished.entry == {"achieved_t": 4}
        assert finished.event.is_set()
        assert queued_ids(daemon) == ["j2"]
        assert daemon._registry["j2"].request == REQUEST
        assert daemon.stats.count("resumed") == 1

    def test_failed_done_lines_count_as_finished(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        write_lines(path, HEADER, accepted_line("j1"), failed_line("j1"))
        daemon = opened(path)
        daemon._journal.close()
        job = daemon._registry["j1"]
        assert job.state == FAILED
        assert job.error == "boom"
        assert job.failure == {"kind": "crash"}
        assert queued_ids(daemon) == []


class TestCorruption:
    def test_torn_tail_is_ignored(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        write_lines(path, HEADER, accepted_line("j1"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "done", "job": "j1", "sta')  # torn
        daemon = opened(path)
        daemon._journal.close()
        assert not daemon._registry["j1"].finished
        assert queued_ids(daemon) == ["j1"]

    def test_unknown_version_raises(self, tmp_path):
        path = tmp_path / "serve.jsonl"
        path.write_text(json.dumps(
            {"journal_version": 99, "kind": "serve"}) + "\n")
        with pytest.raises(JournalError):
            opened(path)

    def test_missing_file_is_empty(self, tmp_path):
        path = tmp_path / "absent.jsonl"
        daemon = opened(path)
        daemon._journal.close()
        assert daemon._registry == {}
        assert path.read_text(encoding="utf-8").splitlines() == [HEADER]


class TestDeletedBackend:
    def test_queued_bnb_job_fails_and_the_daemon_keeps_serving(
        self, daemon_factory, tmp_path
    ):
        # A daemon that still had the branch & bound backend accepted
        # this job and died before finishing it.
        path = tmp_path / "serve.jsonl"
        write_lines(
            path, HEADER,
            '{"client": "c", "event": "accepted", "job": "oldbnb0001ab", '
            '"key": "k-old", "request": {"backend": "bnb", "ddg": '
            '"loop dotprod\\nop ld_a load\\nop ld_b load\\nop mul fmul\\n'
            'op acc fadd\\ndep ld_a mul 0 flow\\ndep ld_b mul 0 flow\\n'
            'dep mul acc 0 flow\\ndep acc acc 1 flow\\n", '
            '"machine": "powerpc604", "objective": "feasibility", '
            '"time_limit": 5.0, "warmstart": true}, "weight": 1}',
        )
        host = daemon_factory(journal=str(path), time_limit=5.0)
        client = host.start()
        doc = client.wait_for("oldbnb0001ab", timeout=60)
        assert doc["state"] == FAILED
        assert doc["failure"]["kind"] == "solver_error"
        assert "unknown backend 'bnb'" in doc["error"]
        fresh = client.submit(
            "loop one\nop a fadd\n", "powerpc604", backend="auto"
        )
        assert client.wait_for(fresh["job"], timeout=60)["state"] == DONE
        assert "bnb" not in client.stats()["breakers"]
        _, records = read_journal(path)
        done = [r for r in records if r.get("event") == "done"]
        assert [r["job"] for r in done[:1]] == ["oldbnb0001ab"]
        assert done[0]["state"] == FAILED
