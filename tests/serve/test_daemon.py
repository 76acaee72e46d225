"""End-to-end daemon tests: real HTTP, real supervised workers.

Each test boots a private daemon on an ephemeral port via the
``daemon_factory`` fixture and drives it with :class:`ServeClient`.
White-box assertions (breaker state, stats counters) go straight to
the in-process daemon object, which is thread-safe by design.
"""

import json
import random
import socket
import threading
import time

import pytest

from repro.core.schedule import Schedule
from repro.core.verify import verify_schedule
from repro.ddg.builders import parse_ddg, serialize_ddg
from repro.ddg.kernels import (
    daxpy,
    dot_product,
    livermore_kernel1,
    livermore_kernel5,
    livermore_kernel11,
)
from repro.ddg.transforms import scrambled
from repro.machine import presets
from repro.serve.client import ServeClient, ServeError
from repro.serve.config import ServeConfig
from repro.serve.daemon import serve_main
from repro.supervision.cells import CellRace
from repro.supervision.journal import read_journal

MACHINE = "powerpc604"

DOT = serialize_ddg(dot_product())
DAXPY = serialize_ddg(daxpy())
LK1 = serialize_ddg(livermore_kernel1())
LK5 = serialize_ddg(livermore_kernel5())
LK11 = serialize_ddg(livermore_kernel11())


def journal_events(path):
    """``(accepted, done)`` journal records keyed by job id."""
    _, records = read_journal(path)
    events = {"accepted": {}, "done": {}}
    for record in records:
        events[record["event"]][record["job"]] = record
    return events["accepted"], events["done"]


def seed_journal(path, job_id, backend):
    """What a daemon SIGKILLed after accepting one job leaves behind,
    as literal lines (``ServeConfig(time_limit=5.0)``'s digest)."""
    request = json.dumps({
        "backend": backend, "ddg": DOT, "machine": MACHINE,
        "objective": "feasibility", "time_limit": 5.0, "warmstart": True,
    }, sort_keys=True)
    path.write_text(
        '{"config_digest": "e08f78ab66099c61305de2132f1f87ebef2aff65685c0b'
        '7ea04a89b1be994e1c", "journal_version": 1, "kind": "serve"}\n'
        '{"client": "survivor", "event": "accepted", "job": "' + job_id
        + '", "key": "k-old", "request": ' + request + ', "weight": 1}\n',
        encoding="utf-8",
    )


class TestSubmitPoll:
    def test_submit_then_wait_reaches_done(self, daemon_factory):
        client = daemon_factory().start()
        response = client.submit(DOT, MACHINE, backend="auto")
        doc = client.wait_for(response["job"], timeout=60)
        assert doc["state"] == "done"
        entry = doc["entry"]
        assert entry["schedule"] is not None
        assert entry["achieved_t"] >= entry["t_lb"]

    def test_healthz_and_stats_shape(self, daemon_factory):
        client = daemon_factory().start()
        assert client.healthz() == {"ok": True, "draining": False}
        snap = client.stats()
        assert snap["queue"]["capacity"] == 64
        assert snap["mode"] == "running"
        assert "counters" in snap and "breakers" in snap

    def test_unknown_job_is_404(self, daemon_factory):
        client = daemon_factory().start()
        with pytest.raises(ServeError) as err:
            client.job("no-such-job")
        assert err.value.status == 404

    def test_bad_requests_are_400(self, daemon_factory):
        client = daemon_factory().start()
        for status, _ in (
            client.submit_raw("", MACHINE),
            client.submit_raw("not a ddg at all", MACHINE),
            client.submit_raw(DOT, "no-such-machine"),
            client.submit_raw(DOT, MACHINE, backend="no-such-backend"),
        ):
            assert status == 400

    def test_bad_settings_are_400_before_journal_or_breaker(
        self, daemon_factory, tmp_path
    ):
        journal = tmp_path / "serve.jsonl"
        host = daemon_factory(journal=str(journal))
        client = host.start()
        for options in (
            {"time_limit": "abc"},
            {"weight": "x"},
            {"time_limit": -1},
            {"time_limit": "nan"},
            {"objective": "bogus"},
            {"objective": "min_fu"},  # sat is feasibility-only
            {"backend": "portfolio"},
            {"backend": "bnb"},
        ):
            status, body = client.submit_raw(
                DOT, MACHINE, **{"backend": "sat", **options}
            )
            assert status == 400, (options, status, body)
        assert host.daemon.stats.count("accepted") == 0
        assert host.daemon.breaker.snapshot() == {}
        accepted, _ = journal_events(journal)
        assert accepted == {}

    def test_default_backend_is_auto(self, daemon_factory):
        client = daemon_factory().start()
        job = client.submit(DOT, MACHINE)["job"]
        doc = client.wait_for(job, timeout=60)
        assert doc["state"] == "done"
        assert doc["entry"]["achieved_t"] >= doc["entry"]["t_lb"]
        # auto runs SAT under feasibility, and its breaker tracks it.
        breakers = client.stats()["breakers"]
        assert set(breakers) == {"sat"}
        assert breakers["sat"]["state"] == "closed"


class TestCoalescing:
    def test_identical_submissions_share_one_solve(self, daemon_factory):
        host = daemon_factory()
        client = host.start()
        first = client.submit(DOT, MACHINE, backend="auto")
        second = client.submit(DOT, MACHINE, backend="auto")
        assert second["coalesced_with"] == first["job"]
        done_first = client.wait_for(first["job"], timeout=60)
        done_second = client.wait_for(second["job"], timeout=10)
        assert done_first["state"] == done_second["state"] == "done"
        assert done_first["entry"]["achieved_t"] == \
            done_second["entry"]["achieved_t"]
        assert host.daemon.stats.count("coalesced") == 1

    def test_renamed_repeat_is_answered_in_its_own_op_names(
        self, daemon_factory
    ):
        # Same loop structure (same store key), different text: it must
        # not share the original's in-flight solve, whose schedule is
        # written against the original's op names and order.
        dot = dot_product()
        repeat = serialize_ddg(scrambled(dot, random.Random(5), dot.name))
        client = daemon_factory().start()
        first = client.submit(DOT, MACHINE, backend="auto")
        second = client.submit(repeat, MACHINE, backend="auto")
        assert "coalesced_with" not in second
        doc = client.wait_for(second["job"], timeout=60)
        assert doc["state"] == "done"
        schedule = Schedule.from_dict(
            doc["entry"]["schedule"], parse_ddg(repeat),
            presets.by_name(MACHINE),
        )
        verify_schedule(schedule)
        assert client.wait_for(first["job"], timeout=60)["state"] == "done"

    def test_different_requests_do_not_coalesce(self, daemon_factory):
        client = daemon_factory().start()
        first = client.submit(DOT, MACHINE, backend="auto")
        second = client.submit(DAXPY, MACHINE, backend="auto")
        assert "coalesced_with" not in second
        assert first["job"] != second["job"]


class TestAdmissionControl:
    def test_rate_limit_returns_429_with_retry_after(self, daemon_factory):
        client = daemon_factory(rate=0.001, burst=2).start()
        client.submit(DOT, MACHINE, client="bursty")
        client.submit(DOT, MACHINE, client="bursty")
        status, body = client.submit_raw(DOT, MACHINE, client="bursty")
        assert status == 429
        assert body["retry_after"] >= 1
        # Buckets are per client: a different caller is unaffected.
        status, _ = client.submit_raw(DOT, MACHINE, client="other")
        assert status == 200

    def test_full_queue_sheds_with_429(self, daemon_factory, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "hang@solve:seconds=30")
        host = daemon_factory(
            workers=1, queue_depth=1, deadline=20.0, drain_grace=0.2,
        )
        client = host.start()
        client.submit(DOT, MACHINE, backend="auto")
        deadline = time.monotonic() + 5
        while len(host.daemon.queue) and time.monotonic() < deadline:
            time.sleep(0.05)  # let the dispatcher claim the first job
        client.submit(DAXPY, MACHINE, backend="auto")  # fills the queue
        status, body = client.submit_raw(LK1, MACHINE, backend="auto")
        assert status == 429
        assert "queue" in body["error"]
        assert host.daemon.stats.count("shed") == 1

    def test_busy_workers_leave_jobs_in_the_fair_queue(
        self, daemon_factory, monkeypatch
    ):
        # Jobs submitted back-to-back while the only worker is wedged
        # must wait in the bounded fair queue (where the depth bound
        # sheds and client weights apply), not be drained into the
        # dispatcher behind the first one.
        monkeypatch.setenv("REPRO_FAULTS", "hang@solve:seconds=30")
        host = daemon_factory(
            workers=1, queue_depth=3, deadline=20.0, drain_grace=0.2,
        )
        client = host.start()
        first = client.submit(DOT, MACHINE, backend="auto")
        client.submit(DAXPY, MACHINE, backend="auto")
        client.submit(LK1, MACHINE, backend="auto")
        time.sleep(1.0)  # many dispatcher rounds
        assert len(host.daemon.queue) == 2
        assert client.job(first["job"])["state"] == "running"
        client.submit(LK5, MACHINE, backend="auto")  # fills the queue
        status, body = client.submit_raw(LK11, MACHINE, backend="auto")
        assert status == 429
        assert "queue" in body["error"]
        assert len(host.daemon.queue) == 3


class TestDrain:
    def test_drain_refuses_new_work_and_stops(self, daemon_factory):
        host = daemon_factory(drain_grace=10.0)
        client = host.start()
        accepted = client.submit(DOT, MACHINE, backend="auto")
        client.drain()
        assert client.healthz()["draining"] is True
        status, body = client.submit_raw(DAXPY, MACHINE)
        assert status == 503
        assert "draining" in body["error"]
        # The accepted job still finishes inside the grace window.
        doc = client.wait_for(accepted["job"], timeout=60)
        assert doc["state"] == "done"
        host._thread.join(timeout=30)
        assert not host._thread.is_alive()
        assert host.daemon._mode == "halted"


class TestJournalResume:
    def test_interrupted_job_finishes_after_restart(
        self, daemon_factory, tmp_path
    ):
        journal = tmp_path / "serve.jsonl"
        seed_journal(journal, "orphan0001ab", "auto")
        host = daemon_factory(journal=str(journal), time_limit=5.0)
        client = host.start()
        # The poller that outlived the "crash" still gets its answer,
        # under the original job id.
        doc = client.wait_for("orphan0001ab", timeout=60)
        assert doc["state"] == "done"
        assert doc["entry"]["achieved_t"] >= 1
        assert host.daemon.stats.count("resumed") == 1
        _, done = journal_events(journal)
        assert "orphan0001ab" in done

    def test_journaled_portfolio_request_fails_with_a_kind(
        self, daemon_factory, tmp_path
    ):
        # Older daemons accepted backend "portfolio"; a journal holding
        # such a request unfinished must not wedge the new one.
        journal = tmp_path / "serve.jsonl"
        seed_journal(journal, "oldport0001ab", "portfolio")
        host = daemon_factory(journal=str(journal), time_limit=5.0)
        client = host.start()
        doc = client.wait_for("oldport0001ab", timeout=60)
        assert doc["state"] == "failed"
        assert doc["failure"]["kind"] == "solver_error"
        assert "portfolio" in doc["failure"]["detail"]
        assert host.daemon.breaker.snapshot() == {}
        # The dispatcher keeps serving.
        fresh = client.submit(DAXPY, MACHINE, backend="auto")
        assert client.wait_for(fresh["job"], timeout=60)["state"] == "done"
        _, done = journal_events(journal)
        assert done["oldport0001ab"]["state"] == "failed"

    def test_finished_jobs_survive_restart_for_polling(
        self, daemon_factory, tmp_path
    ):
        journal = tmp_path / "serve.jsonl"
        first = daemon_factory(journal=str(journal), time_limit=5.0)
        client = first.start()
        job_id = client.submit(DOT, MACHINE, backend="auto")["job"]
        done = client.wait_for(job_id, timeout=60)
        first.stop()
        second = daemon_factory(journal=str(journal), time_limit=5.0)
        client = second.start()
        replay = client.job(job_id)
        assert replay["state"] == "done"
        assert replay["entry"]["achieved_t"] == \
            done["entry"]["achieved_t"]


class TestBreakerConfinement:
    """A crashing backend is refused while tripped; others keep serving."""

    def test_tripped_backend_is_confined_then_probed(
        self, daemon_factory, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash@attempt:backend=sat")
        host = daemon_factory(
            breaker_threshold=1, breaker_cooldown=2.0, max_retries=0,
        )
        client = host.start()

        # 1. The faulted backend crashes its job and trips the breaker.
        # (warmstart off: the heuristic pre-pass would otherwise settle
        # the loop before any ILP attempt fires the fault site.)
        failed = client.submit(DOT, MACHINE, backend="sat",
                               warmstart=False)
        doc = client.wait_for(failed["job"], timeout=60)
        assert doc["state"] == "failed"
        assert doc["failure"]["kind"] == "crash"
        assert host.daemon.breaker.state("sat") == "open"
        # Each failed job counts once, under its taxonomy kind.
        stats = client.stats()
        assert stats["failure_kinds"] == {"crash": 1}
        assert stats["counters"]["failed"] == 1

        # 2. Direct submissions to it are refused up front (503).
        status, body = client.submit_raw(DOT, MACHINE, backend="sat")
        assert status == 503
        assert body["retry_after"] >= 1
        assert host.daemon.stats.count("breaker_rejected") == 1

        # 3. Jobs on other backends still serve.
        survived = client.submit(DAXPY, MACHINE, backend="highs",
                                 warmstart=False)
        doc = client.wait_for(survived["job"], timeout=60)
        assert doc["state"] == "done"
        assert doc["entry"]["attempts"][-1]["backend"] == "highs"
        breakers = client.stats()["breakers"]
        assert breakers["sat"]["state"] == "open"
        assert breakers["highs"]["state"] == "closed"

        # 4. After the cooldown it re-enters half-open for one probe...
        time.sleep(2.1)
        assert host.daemon.breaker.allows("sat")
        assert host.daemon.breaker.state("sat") == "half_open"

        # 5. ...and the still-crashing probe re-opens it immediately.
        probe = client.submit(LK1, MACHINE, backend="sat",
                              warmstart=False)
        doc = client.wait_for(probe["job"], timeout=60)
        assert doc["state"] == "failed"
        assert host.daemon.breaker.state("sat") == "open"

    def test_auto_job_failures_feed_the_sat_breaker(
        self, daemon_factory, monkeypatch
    ):
        monkeypatch.setenv("REPRO_FAULTS", "crash@attempt:backend=sat")
        host = daemon_factory(
            breaker_threshold=1, breaker_cooldown=60.0, max_retries=0,
        )
        client = host.start()
        failed = client.submit(DOT, MACHINE, warmstart=False)
        doc = client.wait_for(failed["job"], timeout=60)
        assert doc["state"] == "failed"
        assert host.daemon.breaker.state("sat") == "open"
        # A later auto feasibility job resolves to the tripped backend.
        status, _body = client.submit_raw(DAXPY, MACHINE)
        assert status == 503
        # auto under any other objective runs HiGHS and still serves.
        survived = client.submit(DAXPY, MACHINE, objective="min_sum_t",
                                 warmstart=False)
        doc = client.wait_for(survived["job"], timeout=60)
        assert doc["state"] == "done"
        assert doc["entry"]["attempts"][-1]["backend"] == "highs"
        assert host.daemon.breaker.state("highs") == "closed"


def _raw_request(sock, method, path, body=None):
    """One HTTP exchange on an already-open connection."""
    data = b"" if body is None else json.dumps(body).encode("utf-8")
    sock.sendall(
        f"{method} {path} HTTP/1.1\r\nHost: x\r\n"
        f"Content-Length: {len(data)}\r\n\r\n".encode("latin-1") + data
    )
    reply = b""
    while chunk := sock.recv(65536):
        reply += chunk
    head, _, payload = reply.partition(b"\r\n\r\n")
    return int(head.split()[1]), json.loads(payload)


class TestDispatcherCrash:
    """A dead dispatcher halts the daemon instead of wedging it."""

    def test_crash_halts_and_a_restart_finishes_the_job(
        self, daemon_factory, tmp_path, monkeypatch, caplog
    ):
        journal = tmp_path / "serve.jsonl"
        port_file = tmp_path / "port"
        config = ServeConfig(port=0, workers=2, time_limit=5.0,
                             journal=str(journal), port_file=str(port_file))

        def broken_step(self, timeout=None):
            raise RuntimeError("injected dispatcher fault")

        with monkeypatch.context() as patch:
            patch.setattr(CellRace, "step", broken_step)
            exit_codes = []
            thread = threading.Thread(
                target=lambda: exit_codes.append(serve_main(config)),
                daemon=True,
            )
            thread.start()
            deadline = time.monotonic() + 30
            while not port_file.exists() or not port_file.read_text():
                assert time.monotonic() < deadline, "daemon never started"
                time.sleep(0.02)
            port = int(port_file.read_text())
            # Connections opened before the crash are still answered.
            probes = [
                socket.create_connection(("127.0.0.1", port), timeout=10)
                for _ in range(2)
            ]
            client = ServeClient("127.0.0.1", port)
            job_id = client.submit(DOT, MACHINE, warmstart=False)["job"]
            submitted = time.monotonic()
            while not any("dispatcher died" in r.getMessage()
                          for r in caplog.records):
                assert time.monotonic() - submitted < 1.0
                time.sleep(0.01)
            status, health = _raw_request(probes[0], "GET", "/healthz")
            assert time.monotonic() - submitted < 1.0
            assert status == 200 and health["ok"] is False
            status, body = _raw_request(probes[1], "POST", "/submit", {
                "ddg": DAXPY, "machine": MACHINE,
            })
            assert status == 503 and "halted" in body["error"]
            for probe in probes:
                probe.close()
            thread.join(timeout=30)
            assert exit_codes == [1]
        record = next(r for r in caplog.records
                      if "dispatcher died" in r.getMessage())
        assert record.name == "repro.serve.daemon"
        assert "injected dispatcher fault" in caplog.text  # the traceback
        accepted, done = journal_events(journal)
        assert job_id in accepted and job_id not in done

        host = daemon_factory(journal=str(journal), time_limit=5.0)
        doc = host.start().wait_for(job_id, timeout=60)
        assert doc["state"] == "done"
