"""The ``repro serve`` daemon: asyncio HTTP front, supervised solve back.

Architecture — two threads, one direction of ownership:

* the **asyncio event loop** (main thread) owns the HTTP server and all
  admission decisions: rate limits, load shedding, coalescing, breaker
  rejection, journaling of accepted jobs.  Handlers never block on a
  solve — a submit returns a job id immediately and ``GET /jobs/<id>``
  long-polls the job's completion event.
* the **dispatcher thread** exclusively owns the cell race
  (:class:`repro.supervision.cells.CellRace`, over a single-threaded
  :class:`~repro.supervision.SupervisedExecutor`): while fewer than
  ``workers`` cells are in flight it pulls jobs off the weighted fair
  queue (the rest wait there, bounded and weighted), adds one cell per
  job on the job's one backend, and steps the race.  A job settles
  when its cell reports, and every finished job feeds the circuit
  breaker of the backend it ran (``auto`` counts as the backend
  :func:`~repro.core.formulation.resolve_backend` picks).

Shared state (job registry, fair queue, stats, breaker, journal) is
individually thread-safe; jobs signal completion through a
``threading.Event`` the HTTP side polls, so no asyncio primitive is
ever touched from the dispatcher thread.

The HTTP protocol is deliberately minimal — HTTP/1.1, JSON bodies,
``Connection: close`` — parsed directly off the asyncio streams so the
daemon needs nothing beyond the standard library.  Routes::

    POST /submit        {ddg, machine, backend?, objective?, client?,
                         weight?}                 -> 200 {job: id, ...}
    GET  /jobs/<id>[?wait=SECONDS]                -> 200 job document
    GET  /healthz                                 -> 200 {ok, draining}
    GET  /stats                                   -> 200 full snapshot
    POST /drain                                   -> 200 (begin drain)

Graceful drain (SIGTERM or ``POST /drain``): admission flips to 503,
in-flight and queued jobs get ``drain_grace`` seconds to finish, and
whatever remains is already in the journal as accepted-but-unfinished
— the next incarnation re-admits those jobs under their original ids,
which is also exactly what happens after a SIGKILL with no drain at
all.  An accepted job is never lost.

The daemon is crash-only: if the dispatcher thread dies on an
unexpected exception, its traceback is logged, ``/healthz`` answers
``ok: false``, submits get 503, connections already open are answered,
and the server stops, so :func:`serve_main` returns non-zero.  The jobs
it had accepted stay unfinished in the journal for the next
incarnation to re-admit.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import logging
import math
import multiprocessing
import os
import signal
import threading
import time
import uuid
from typing import Dict, List, Optional, Tuple

from repro.core.formulation import BACKENDS, resolve_backend
from repro.ddg.builders import parse_ddg
from repro.machine import presets
from repro.serve.admission import FairQueue, TokenBucket
from repro.serve.breaker import CircuitBreaker
from repro.serve.config import ServeConfig
from repro.serve.jobs import (
    DONE,
    FAILED,
    RUNNING,
    Job,
    request_config,
    solve_request,
)
from repro.serve.stats import ServeStats
from repro.store.tiering import request_key
from repro.supervision.cells import CLEAN, WIN, Cell, CellRace
from repro.supervision.journal import Journal, config_digest, read_journal
from repro.supervision.records import (
    INTERRUPTED,
    FailureRecord,
    SupervisionPolicy,
)

_log = logging.getLogger(__name__)

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}

#: Daemon modes.  running -> draining -> halted is the only path.
_RUNNING = "running"
_DRAINING = "draining"
_HALTED = "halted"


def _coalesce_key(job: Job) -> Tuple[str, str]:
    """Jobs coalesce only onto a byte-identical in-flight request."""
    text = str(job.request.get("ddg", ""))
    return job.key, hashlib.sha256(text.encode("utf-8")).hexdigest()


def _entry_doc_verdict(entry: dict) -> int:
    return WIN if entry.get("achieved_t") is not None else CLEAN


def _breaker_backend(request: dict) -> Optional[str]:
    """The backend a request runs, which its breaker tracks; ``auto``
    resolves first, and an unknown name (an older journal's) is none."""
    backend = request.get("backend", "auto")
    if backend not in BACKENDS:
        return None
    return resolve_backend(
        backend, str(request.get("objective", "feasibility"))
    )


def _close_inherited_fds(fds) -> None:
    """Worker initializer: drop the daemon's listening sockets."""
    for fd in fds:
        try:
            os.close(fd)
        except OSError:
            pass


class ServeDaemon:
    """One daemon incarnation; see the module docstring for the design."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown=self.config.breaker_cooldown,
        )
        self.queue = FairQueue(self.config.queue_depth)
        self._buckets: Dict[str, TokenBucket] = {}
        self._buckets_lock = threading.Lock()
        #: job id -> Job; also holds finished jobs for polling.
        self._registry: Dict[str, Job] = {}
        #: coalescing map: (store key, text digest) -> in-flight primary
        #: job id.  Only byte-identical requests share a solve: a
        #: renamed repeat has the same store key but needs a schedule
        #: in its own op names, which its own solve (or a rehydrated
        #: store hit) provides.
        self._inflight: Dict[Tuple[str, str], str] = {}
        self._registry_lock = threading.Lock()
        self._journal: Optional[Journal] = None
        self._journal_lock = threading.Lock()
        self._mode = _RUNNING
        #: Set when the dispatcher died on an unexpected exception.
        self._crashed = False
        self._dispatcher: Optional[threading.Thread] = None
        #: Live connection-handler tasks; drain waits for them so an
        #: in-flight long-poll gets its response before the loop dies.
        self._connections: set = set()
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopped: Optional[asyncio.Event] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # lifecycle

    def _digest(self) -> str:
        return config_digest("serve", **self.config.digest_settings())

    async def start(self) -> None:
        """Open the journal, start the server and the dispatcher."""
        self._stopped = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        if self.config.journal is not None:
            self._open_journal()
        # Bind before spawning the dispatcher: workers must know the
        # listening fds so forked children can close their inherited
        # copies (an orphaned worker holding the socket would keep the
        # port half-alive after the daemon is SIGKILLed, turning what
        # should be instant connection refusals into client hangs).
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port,
        )
        self._listen_fds = tuple(
            sock.fileno() for sock in self._server.sockets
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="utf-8") as fh:
                fh.write(f"{self.port}\n")

    async def run(self) -> None:
        """Start and serve until a drain completes (SIGTERM/POST /drain)."""
        await self.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, lambda: loop.create_task(self.drain())
                )
            except (NotImplementedError, RuntimeError):
                pass  # non-main thread / unsupported platform
        await self._stopped.wait()

    async def drain(self) -> None:
        """Stop admitting; finish or journal in-flight; shut down."""
        if self._mode != _RUNNING:
            return
        self._mode = _DRAINING
        deadline = time.monotonic() + self.config.drain_grace
        while (self._mode == _DRAINING and time.monotonic() < deadline
               and self._unfinished() > 0):
            await asyncio.sleep(0.1)
        if self._mode == _HALTED:
            return  # the dispatcher died; its shutdown is under way
        self._mode = _HALTED
        await self._shutdown()

    async def _shutdown(self) -> None:
        """Join the dispatcher, close the journal, answer the open
        connections and stop the server (mode already halted)."""
        if self._dispatcher is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._dispatcher.join
            )
        with self._journal_lock:
            if self._journal is not None:
                self._journal.close()
                self._journal = None
        pending = {
            task for task in self._connections
            if task is not asyncio.current_task()
        }
        if pending:
            await asyncio.wait(pending, timeout=5.0)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._stopped is not None:
            self._stopped.set()

    def _unfinished(self) -> int:
        with self._registry_lock:
            return sum(
                1 for job in self._registry.values() if not job.finished
            )

    def _open_journal(self) -> None:
        """Open the journal, refusing one written under different solve
        settings, and rebuild the registry from earlier incarnations.

        ``accepted`` without a matching ``done`` is exactly the set of
        jobs a crash or SIGKILL interrupted; later lines for a job win.
        """
        self._journal = Journal(
            self.config.journal, self._digest(), meta={"kind": "serve"}
        )
        header, records = read_journal(self.config.journal)
        if header is None:
            return
        accepted: Dict[str, dict] = {}
        done: Dict[str, dict] = {}
        for record in records:
            job_id = record.get("job")
            if not isinstance(job_id, str):
                continue
            if record.get("event") == "accepted":
                accepted[job_id] = record
            elif record.get("event") == "done":
                done[job_id] = record
        for job_id, line in done.items():
            source = accepted.get(job_id, {})
            job = Job(
                job_id, source.get("client", "anon"),
                source.get("key", ""), source.get("request", {}),
            )
            job.state = line.get("state", DONE)
            job.entry = line.get("entry")
            job.error = line.get("error")
            job.failure = line.get("failure")
            job.finished_at = job.submitted_at
            job.event.set()
            self._registry[job_id] = job
        for job_id, line in accepted.items():
            if job_id in done:
                continue
            # Interrupted mid-flight: re-admit under the original id so
            # pollers that outlived the restart still get their answer.
            job = Job(
                job_id, line.get("client", "anon"), line.get("key", ""),
                line.get("request", {}), weight=line.get("weight", 1),
            )
            self._registry[job_id] = job
            primary = self._inflight.get(_coalesce_key(job))
            if primary is not None:
                self._coalesce_locked(job, self._registry[primary])
            else:
                if job.key:
                    self._inflight[_coalesce_key(job)] = job.id
                self.queue.push(job, job.client, job.weight)
            self.stats.bump("resumed")

    # ------------------------------------------------------------------
    # admission (asyncio thread)

    def _bucket(self, client: str) -> TokenBucket:
        with self._buckets_lock:
            bucket = self._buckets.get(client)
            if bucket is None:
                bucket = TokenBucket(self.config.rate, self.config.burst)
                self._buckets[client] = bucket
            return bucket

    def _journal_append(self, record: dict) -> None:
        with self._journal_lock:
            if self._journal is not None:
                self._journal.append(record)

    def _journal_accepted(self, job: Job) -> None:
        """Written before the submit response leaves the daemon, with
        the full replayable request."""
        self._journal_append({
            "event": "accepted", "job": job.id, "client": job.client,
            "key": job.key, "weight": job.weight, "request": job.request,
        })

    def _journal_done(self, job: Job) -> None:
        record = {
            "event": "done", "job": job.id, "state": job.state,
            "entry": job.entry, "error": job.error, "failure": job.failure,
        }
        self._journal_append(
            {key: value for key, value in record.items() if value is not None}
        )

    def _coalesce_locked(self, job: Job, primary: Job) -> None:
        """Attach ``job`` to ``primary``'s solve (registry lock held)."""
        job.coalesced_with = primary.id
        primary.followers.append(job)
        self.stats.bump("coalesced")

    def submit(self, payload: dict) -> Tuple[int, dict, List[Tuple[str, str]]]:
        """Admit one submission; returns (status, body, extra headers)."""
        self.stats.bump("submitted")
        if self._mode != _RUNNING:
            return 503, {"error": f"daemon is {self._mode}"}, []
        client = str(payload.get("client") or "anon")
        wait = self._bucket(client).take()
        if wait is not None:
            self.stats.bump("rate_limited")
            retry = max(1, math.ceil(wait))
            return (
                429,
                {"error": f"client {client!r} exceeded its rate limit",
                 "retry_after": retry},
                [("Retry-After", str(retry))],
            )
        text = payload.get("ddg")
        machine_name = payload.get("machine")
        if not isinstance(text, str) or not text.strip():
            return 400, {"error": "missing 'ddg' text"}, []
        if not isinstance(machine_name, str):
            return 400, {"error": "missing 'machine' preset name"}, []
        # Everything below is outside input: reject it here, before it
        # is journaled or reaches a worker and the breaker.
        try:
            weight = int(payload.get("weight", 1))
            request = {
                "ddg": text,
                "machine": machine_name,
                "backend": str(payload.get("backend", "auto")),
                "objective": str(payload.get("objective", "feasibility")),
                "time_limit": float(
                    payload.get("time_limit", self.config.time_limit)
                ),
                "warmstart": bool(payload.get("warmstart", True)),
            }
            config = request_config(request)
            machine = presets.by_name(machine_name)
            ddg = parse_ddg(text)
            ddg.validate_against(machine)
        except Exception as exc:  # noqa: BLE001 - user input boundary
            return 400, {"error": f"{type(exc).__name__}: {exc}"}, []
        # Backend health: refuse now rather than queue work that would
        # only feed a backend the breaker has tripped.
        backend = resolve_backend(config.backend, config.objective)
        if not self.breaker.allows(backend):
            retry = math.ceil(self.breaker.retry_after(backend) or 1)
            self.stats.bump("breaker_rejected")
            return (
                503,
                {"error": f"backend {backend!r} is circuit-broken",
                 "retry_after": retry},
                [("Retry-After", str(retry))],
            )
        key = request_key(ddg, machine, config, self.config.max_extra)
        job = Job(uuid.uuid4().hex[:12], client, key, request, weight)
        with self._registry_lock:
            primary_id = self._inflight.get(_coalesce_key(job))
            primary = (
                self._registry.get(primary_id)
                if primary_id is not None else None
            )
            if primary is not None and not primary.finished:
                self._registry[job.id] = job
                self._coalesce_locked(job, primary)
                self._journal_accepted(job)
                self.stats.bump("accepted")
                return 200, {
                    "job": job.id, "coalesced_with": primary.id,
                }, []
            if not self.queue.push(job, client, weight):
                self.stats.bump("shed")
                retry = max(1, math.ceil(
                    self.config.queue_depth / self.config.rate
                ))
                return (
                    429,
                    {"error": "admission queue is full",
                     "retry_after": retry},
                    [("Retry-After", str(retry))],
                )
            self._registry[job.id] = job
            self._inflight[_coalesce_key(job)] = job.id
        self._journal_accepted(job)
        self.stats.bump("accepted")
        return 200, {"job": job.id}, []

    # ------------------------------------------------------------------
    # dispatcher (its own thread; sole owner of the executor)

    def _policy(self) -> SupervisionPolicy:
        return SupervisionPolicy(
            deadline=self.config.deadline,
            grace=self.config.grace,
            max_retries=self.config.max_retries,
            backoff=self.config.backoff,
        )

    def _dispatch_loop(self) -> None:
        """Thread body: run the dispatcher; halt the daemon if it dies."""
        try:
            self._dispatch()
        except Exception:  # noqa: BLE001 - crash-only: log, halt, exit
            self._crashed = True
            running = self._mode != _HALTED
            self._mode = _HALTED
            _log.exception("serve dispatcher died; halting the daemon")
            if running:  # else a drain is already shutting down
                asyncio.run_coroutine_threadsafe(
                    self._shutdown(), self._loop
                )

    def _dispatch(self) -> None:
        initializer, initargs = None, ()
        if multiprocessing.get_start_method() == "fork":
            # Forked workers inherit the listening socket; close it so
            # the port dies with the daemon process, not with the last
            # solver worker.  (spawn/forkserver children inherit no
            # fds, and closing by number there would hit a stranger's.)
            initializer = _close_inherited_fds
            initargs = (getattr(self, "_listen_fds", ()),)
        race = CellRace(
            workers=self.config.workers, policy=self._policy(),
            deadline=self.config.deadline,
            initializer=initializer, initargs=initargs,
        )
        try:
            while self._mode != _HALTED:
                if (self._mode == _DRAINING and race.idle()
                        and len(self.queue) == 0):
                    break
                # in_flight() counts cells not yet submitted too, so
                # jobs beyond the workers wait in the fair queue.
                while race.in_flight() < self.config.workers:
                    job = self.queue.pop()
                    if job is None:
                        break
                    job.state = RUNNING
                    race.add([Cell(
                        job.id, _entry_doc_verdict, solve_request, (
                            job.request, self.config.max_extra,
                            self.config.store,
                        ),
                    )])
                if race.idle():
                    time.sleep(0.05)
                    continue
                for cell in race.step(timeout=0.2):
                    with self._registry_lock:
                        job = self._registry[cell.key]
                    self._settle_job(job, cell)
        finally:
            # Whatever is still outstanding stays accepted-but-
            # unfinished in the journal; the next incarnation re-admits.
            race.close()

    def _settle_job(self, job: Job, cell) -> None:
        """Answer ``job`` from its settled cell; feed the breaker."""
        backend = _breaker_backend(job.request)
        if cell.result is not None:
            if backend is not None:
                self.breaker.record_success(backend)
            self._finish_job(job, DONE, entry=cell.result)
            return
        failure = cell.failure or FailureRecord(
            kind=INTERRUPTED, detail="dispatch interrupted",
        )
        if cell.failure is not None and backend is not None:
            self.breaker.record_failure(backend, failure.kind)
        self._finish_job(
            job, FAILED,
            error=f"solve failed ({failure.kind}): {failure.detail}",
            failure=failure.to_json_dict(),
        )

    def _finish_job(self, job: Job, state: str,
                    entry: Optional[dict] = None,
                    error: Optional[str] = None,
                    failure: Optional[dict] = None) -> None:
        """Settle a job and all its coalesced followers (any thread)."""
        with self._registry_lock:
            job.state = state
            job.entry = entry
            job.error = error
            job.failure = failure
            job.finished_at = time.monotonic()
            if self._inflight.get(_coalesce_key(job)) == job.id:
                del self._inflight[_coalesce_key(job)]
            followers = list(job.followers)
        self._journal_done(job)
        self._account_finished(job)
        job.event.set()
        for follower in followers:
            with self._registry_lock:
                follower.state = state
                follower.entry = entry
                follower.error = error
                follower.failure = failure
                follower.finished_at = job.finished_at
            self._journal_done(follower)
            self._account_finished(follower, coalesced=True)
            follower.event.set()

    def _account_finished(self, job: Job, coalesced: bool = False) -> None:
        if job.state == DONE:
            self.stats.bump("completed")
            self.stats.record_latency(job.latency())
            store = (job.entry or {}).get("store")
            if store and store.get("hit"):
                self.stats.bump(
                    "coalesce_store_hits" if coalesced else "store_hits"
                )
        else:
            self.stats.bump("failed")
            self.stats.record_failure_kind(
                (job.failure or {}).get("kind", job.state)
            )

    # ------------------------------------------------------------------
    # HTTP plumbing (asyncio thread)

    def snapshot(self) -> dict:
        doc = self.stats.snapshot()
        doc["queue"] = {
            "depth": len(self.queue),
            "capacity": self.config.queue_depth,
            "unfinished_jobs": self._unfinished(),
        }
        doc["breakers"] = self.breaker.snapshot()
        doc["mode"] = self._mode
        doc["workers"] = self.config.workers
        return doc

    async def _route(
        self, method: str, path: str, payload: dict
    ) -> Tuple[int, dict, List[Tuple[str, str]]]:
        path, _, query = path.partition("?")
        if path == "/healthz" and method == "GET":
            return 200, {
                "ok": self._mode != _HALTED,
                "draining": self._mode != _RUNNING,
            }, []
        if path == "/stats" and method == "GET":
            return 200, self.snapshot(), []
        if path == "/submit" and method == "POST":
            return self.submit(payload)
        if path == "/drain" and method == "POST":
            asyncio.get_running_loop().create_task(self.drain())
            return 200, {"draining": True}, []
        if path.startswith("/jobs/") and method == "GET":
            job_id = path[len("/jobs/"):]
            wait = 0.0
            for part in query.split("&"):
                if part.startswith("wait="):
                    try:
                        wait = min(60.0, float(part[5:]))
                    except ValueError:
                        return 400, {"error": "bad wait= value"}, []
            with self._registry_lock:
                job = self._registry.get(job_id)
            if job is None:
                return 404, {"error": f"unknown job {job_id!r}"}, []
            deadline = time.monotonic() + wait
            while (not job.event.is_set()
                   and time.monotonic() < deadline
                   and self._mode != _HALTED):
                await asyncio.sleep(0.05)
            return 200, job.to_json_dict(), []
        return 405, {"error": f"no route for {method} {path}"}, []

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, raw_path = parts[0], parts[1]
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            payload = {}
            length = int(headers.get("content-length", "0") or 0)
            if length:
                body = await reader.readexactly(length)
                try:
                    payload = json.loads(body)
                    if not isinstance(payload, dict):
                        raise ValueError("body must be a JSON object")
                except ValueError as exc:
                    await self._respond(
                        writer, 400, {"error": f"bad JSON body: {exc}"}, []
                    )
                    return
            try:
                status, doc, extra = await self._route(
                    method, raw_path, payload
                )
            except Exception as exc:  # noqa: BLE001 - keep serving
                status, doc, extra = 500, {
                    "error": f"{type(exc).__name__}: {exc}"
                }, []
            await self._respond(writer, status, doc, extra)
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(self, writer, status, doc, extra) -> None:
        data = json.dumps(doc).encode("utf-8")
        head = [
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}",
            "Content-Type: application/json",
            f"Content-Length: {len(data)}",
            "Connection: close",
        ]
        head.extend(f"{name}: {value}" for name, value in extra)
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + data
        )
        await writer.drain()


def serve_main(config: ServeConfig) -> int:
    """Blocking entry point for ``repro serve`` (returns exit code)."""
    daemon = ServeDaemon(config)
    try:
        asyncio.run(daemon.run())
    except KeyboardInterrupt:
        pass
    return 1 if daemon._crashed else 0
