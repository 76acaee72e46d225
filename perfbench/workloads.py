"""The benchmark's workloads.

Each workload is a pair ``(prepare, run)`` in :data:`WORKLOADS`:
``prepare(slice_, workdir, trace_dir)`` does the set-up that
``setup_s`` times and returns a state object (or None) whose ``stop()``
tears it down; ``run(slice_, seed, state)`` drives one public entry
point over the pinned slice and returns an :class:`Outcome`.

* ``sweep`` - ``repro.core.schedule_loop`` in-process, SAT, cold;
* ``batch`` - ``repro.parallel.run_batch(jobs=2)``, one batch per machine;
* ``serve`` - a ``repro serve`` daemon driven open-loop;
* ``serve-default`` - ``serve`` with requests that omit ``backend``;
* ``serve-coalesce`` - ``serve`` whose scrambled repeats may arrive while
  their loop is still being solved.

The last two are runnable by name but not listed in ``BENCHMARK.json``:
operations fail on them (see README.md), and the benchmark's listed
workloads are ones on which no operation fails.
"""

from __future__ import annotations

import functools
import os
import queue
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import pinned
import spans

#: Latency charged to a failed, refused or timed-out request: it misses
#: every latency limit.
FAILED_LATENCY_S = 120.0
#: How long after the last request is due ``serve`` waits for answers.
SERVE_GRACE_S = 90.0
HERE = Path(__file__).resolve().parent


@dataclass
class Result:
    """One schedule the program returned, with what it claimed."""

    loop: "pinned.SliceLoop"
    t_lb: int
    achieved_t: Optional[int]
    proven: bool
    #: The schedule as returned (a Schedule, or the JSON dict for serve).
    schedule: object = None
    #: The DDG the schedule must fit (a renamed/scrambled copy in serve).
    ddg: object = None
    request: Optional["pinned.Request"] = None


@dataclass
class Outcome:
    #: Time the program spent scheduling each loop: the ``schedule_loop``
    #: call in ``sweep``, the worker's sweep (``total_seconds`` of the
    #: result) in ``batch`` and for first-seen ``serve`` requests.
    loop_s: List[float] = field(default_factory=list)
    #: Due -> answer seen, per operation.  ``sweep`` and ``batch`` are
    #: handed the whole slice at the start; ``serve`` requests are due on
    #: the open-loop schedule.
    req_s: List[float] = field(default_factory=list)
    results: List[Result] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Measured window on the ``perf_counter`` clock (CLOCK_MONOTONIC,
    #: shared by all processes, so worker spans line up with it).
    t0: float = 0.0
    t1: float = 0.0
    detail: Dict[str, object] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def add(self, loop, result) -> None:
        """Record a ``SchedulingResult`` returned for ``loop``."""
        self.results.append(Result(
            loop, result.bounds.t_lb, result.achieved_t,
            result.is_rate_optimal_proven, result.schedule, loop.ddg,
        ))
        if result.schedule is None:
            self.fail(f"{loop.machine_name}/{loop.ddg.name}: no schedule")

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


# ----------------------------------------------------------------------
# sweep: repro.core.schedule_loop in-process, SAT, cold, no store


def import_core(slice_, workdir: Path, trace_dir: Optional[str]):
    from repro.core import schedule_loop  # noqa: F401 - import is set-up

    return None


def run_sweep(slice_, seed: int, state) -> Outcome:
    from repro.core import schedule_loop

    out = Outcome()
    out.t0 = time.perf_counter()
    for loop in slice_.loops:
        out.attempted += 1
        start = time.perf_counter()
        try:
            result = schedule_loop(
                loop.ddg, loop.machine, backend="sat", warmstart=False,
                time_limit_per_t=pinned.TIME_LIMIT,
                max_extra=pinned.MAX_EXTRA,
            )
        except Exception as exc:  # noqa: BLE001 - counted, reported
            out.fail(f"{loop.machine_name}/{loop.ddg.name}: "
                     f"{type(exc).__name__}: {exc}")
            out.req_s.append(FAILED_LATENCY_S)
            continue
        answered = time.perf_counter()
        out.loop_s.append(answered - start)
        out.req_s.append(answered - out.t0)
        out.add(loop, result)
    out.t1 = time.perf_counter()
    return out


# ----------------------------------------------------------------------
# batch: repro.parallel.run_batch(jobs=2) with its defaults


def boot_pool(slice_, workdir: Path, trace_dir: Optional[str]):
    """Pool boot: spawn two supervised workers and round-trip a task."""
    from repro.parallel import run_batch  # noqa: F401 - import is set-up
    from repro.supervision.executor import SupervisedExecutor

    with SupervisedExecutor(max_workers=2) as executor:
        tasks = [executor.submit(os.getpid) for _ in range(2)]
        while executor.outstanding():
            executor.poll(timeout=1.0)
    if any(task.failure is not None for task in tasks):
        raise RuntimeError("worker pool failed to boot")
    return None


def run_batch(slice_, seed: int, state) -> Outcome:
    """The whole slice is due at the start; the three machine batches
    run back to back, so a loop is answered when its batch returns."""
    from repro.parallel import run_batch as batch

    out = Outcome()
    by_machine: Dict[str, list] = {}
    for loop in slice_.loops:
        by_machine.setdefault(loop.machine_name, []).append(loop)
    out.t0 = time.perf_counter()
    for name in pinned.MACHINES:
        loops = by_machine[name]
        start = time.perf_counter()
        report = batch([loop.ddg for loop in loops], loops[0].machine,
                       jobs=2, time_limit_per_t=pinned.TIME_LIMIT,
                       max_extra=pinned.MAX_EXTRA)
        answered = time.perf_counter()
        out.detail.setdefault("makespan_s", {})[name] = answered - start
        for loop, entry in zip(loops, report.entries):
            out.attempted += 1
            out.req_s.append(answered - out.t0)
            if entry.error is not None or entry.result is None:
                out.fail(f"{name}/{loop.ddg.name}: {entry.error}")
                continue
            out.loop_s.append(entry.result.total_seconds)
            out.add(loop, entry.result)
    out.t1 = time.perf_counter()
    return out


# ----------------------------------------------------------------------
# serve: a `repro serve` subprocess driven open-loop


class Daemon:
    """A ``repro serve`` subprocess started through ``serve_launcher``:
    2 workers, a fresh store, default durability."""

    def __init__(self, slice_, workdir: Path,
                 trace_dir: Optional[str]) -> None:
        port_file = workdir / "port"
        if port_file.exists():
            port_file.unlink()
        store = workdir / "store"
        shutil.rmtree(store, ignore_errors=True)
        argv = [sys.executable, str(HERE / "serve_launcher.py")]
        if trace_dir is not None:
            argv += ["--trace", trace_dir]
        argv += ["serve", "--workers", "2", "--store", str(store),
                 "--port-file", str(port_file),
                 "--time-limit", str(pinned.TIME_LIMIT),
                 "--max-extra", str(pinned.MAX_EXTRA)]
        env = dict(os.environ)
        env.pop("REPRO_FSYNC", None)
        env.pop("REPRO_FAULTS", None)
        self.log = open(workdir / "daemon.log", "ab")
        # Its own session, so a hung daemon is killed with its workers.
        self.process = subprocess.Popen(
            argv, stdout=self.log, stderr=subprocess.STDOUT, env=env,
            cwd=str(HERE.parent), start_new_session=True,
        )
        try:
            self.client = self._wait_healthy(port_file)
        except BaseException:
            self.stop()
            raise

    def _wait_healthy(self, port_file: Path):
        from repro.serve.client import ServeClient

        deadline = time.monotonic() + 60.0
        client = None
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"serve daemon exited with {self.process.returncode}"
                )
            if client is None:
                try:
                    port = int(port_file.read_text().strip())
                except (OSError, ValueError):
                    port = None
                if port is not None:
                    client = ServeClient("127.0.0.1", port, timeout=30.0)
            if client is not None and client.alive():
                return client
            time.sleep(0.02)
        raise RuntimeError("serve daemon never became healthy")

    def stop(self) -> None:
        """Drain the daemon (SIGTERM) and wait; kill its group if it hangs."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
                self.process.wait(timeout=45.0)
        except subprocess.TimeoutExpired:
            os.killpg(self.process.pid, signal.SIGKILL)
            self.process.wait(timeout=10.0)
        finally:
            self.log.close()


def _terminal(doc: dict) -> bool:
    return doc.get("state") in ("done", "failed", "shed", "cancelled")


def run_serve(slice_, seed: int, daemon: Daemon,
              backend: Optional[str] = "auto",
              text_change_gap_s: float = pinned.TEXT_CHANGE_GAP_S
              ) -> Outcome:
    """Open loop at ``pinned.RATE`` req/s: one thread submits on
    schedule, one thread polls for answers, one connection each."""
    from repro.ddg.builders import parse_ddg
    from repro.serve.client import ServeError

    requests = pinned.request_mix(slice_, seed, text_change_gap_s)
    client = daemon.client
    out = Outcome()
    out.detail["mix_checksum"] = pinned.mix_checksum(requests)
    handoff: "queue.Queue" = queue.Queue()
    answers: Dict[int, dict] = {}
    seen_at: Dict[int, float] = {}
    late: List[float] = []
    coalesced = 0

    def check(index: int, job: str, wait: float) -> None:
        try:
            doc = spans.traced("serve", "poll", spans.WAIT, client.job, job,
                               wait=wait)
        except (ServeError, OSError) as exc:
            doc = {"state": "error", "error": f"{type(exc).__name__}: {exc}"}
        if _terminal(doc) or doc["state"] == "error":
            seen_at[index] = time.perf_counter()
            answers[index] = doc

    def poller() -> None:
        # The daemon runs one client's jobs in arrival order on two
        # workers, so only the two oldest pending jobs can finish next; a
        # coalesced job finishes with the job it was coalesced onto.  So
        # long-poll the two oldest in turn, and look at a job's followers
        # as soon as it finishes: the poller itself stays a light load.
        pending: List[tuple] = []  # (request index, job id), oldest first
        followers: Dict[str, List[tuple]] = {}
        finished: set = set()  # job ids seen in a terminal state
        submitting = True
        hard_stop = float("inf")
        turn = 0
        while True:
            try:
                item = (handoff.get(timeout=0.05) if not pending
                        else handoff.get_nowait())
                while True:
                    if item is None:
                        submitting = False
                        hard_stop = time.perf_counter() + SERVE_GRACE_S
                    elif item[2] is not None and item[2] not in finished:
                        followers.setdefault(item[2], []).append(item[:2])
                    else:
                        pending.append(item[:2])
                    item = handoff.get_nowait()
            except queue.Empty:
                pass
            if not pending:
                if not submitting:
                    return
                continue
            if time.perf_counter() > hard_stop:
                for index, job in pending:
                    for follower, _job in followers.get(job, []) + [
                            (index, job)]:
                        answers.setdefault(follower, {"state": "timeout"})
                return
            turn = (turn + 1) % min(2, len(pending))
            index, job = pending[turn]
            check(index, job, 0.05)
            if index in answers:
                finished.add(job)
                for follower in followers.pop(job, []):
                    while follower[0] not in answers:
                        check(*follower, 0.05)
                pending.pop(turn)

    options = {"client": "perfbench"}
    if backend is not None:
        options["backend"] = backend
    poll_thread = threading.Thread(target=poller, name="perfbench-poller")
    out.t0 = time.perf_counter() + 0.05
    due_of = {r.index: out.t0 + r.index / pinned.RATE for r in requests}
    poll_thread.start()
    try:
        for request in requests:
            due = due_of[request.index]
            delay = due - time.perf_counter()
            if delay > 0:
                spans.traced("loadgen", "idle", spans.IDLE, time.sleep,
                             delay)
            late.append(max(0.0, time.perf_counter() - due))
            out.attempted += 1
            try:
                status, body = spans.traced(
                    "serve", "submit", spans.WAIT, client.submit_raw,
                    request.text, request.loop.machine_name, **options,
                )
            except OSError as exc:
                status, body = 0, {"error": f"{type(exc).__name__}: {exc}"}
            if status != 200:
                seen_at[request.index] = time.perf_counter()
                answers[request.index] = {
                    "state": "refused", "status": status,
                    "error": body.get("error"),
                }
                continue
            coalesced += bool(body.get("coalesced_with"))
            handoff.put((request.index, body["job"],
                         body.get("coalesced_with")))
    finally:
        handoff.put(None)
        poll_thread.join()
    out.t1 = max(seen_at.values(), default=time.perf_counter())

    states: Dict[str, int] = {}
    store_hits = 0
    for request in requests:
        doc = answers.get(request.index, {"state": "lost"})
        state = doc.get("state")
        states[state] = states.get(state, 0) + 1
        if state != "done":
            out.fail(f"request {request.index}: {state} "
                     f"{doc.get('error') or ''}".strip())
            out.req_s.append(FAILED_LATENCY_S)
            continue
        out.req_s.append(seen_at[request.index] - due_of[request.index])
        entry = doc.get("entry") or {}
        if request.repeat_of < 0:
            out.loop_s.append(float(entry.get("seconds", 0.0)))
        store_hits += bool((entry.get("store") or {}).get("hit"))
        out.results.append(Result(
            request.loop, int(entry.get("t_lb", -1)),
            entry.get("achieved_t"),
            bool(entry.get("is_rate_optimal_proven")),
            entry.get("schedule"), parse_ddg(request.text), request,
        ))
        if entry.get("achieved_t") is None:
            out.fail(f"request {request.index}: no schedule")
    late.sort()
    slowest = sorted(
        ((seen_at[r.index] - due_of[r.index], r) for r in requests
         if r.index in seen_at), key=lambda pair: pair[0],
    )[-12:]
    out.detail.update({
        "requests": len(requests),
        "variants": {v: sum(r.variant == v for r in requests)
                     for v in ("first", "verbatim", "scrambled")},
        "states": states,
        "coalesced": coalesced,
        "store_hits": store_hits,
        "late_p50_s": late[len(late) // 2] if late else 0.0,
        "late_max_s": late[-1] if late else 0.0,
        "slowest": [
            [round(latency, 3), r.index, r.variant,
             f"{r.loop.machine_name}/{r.loop.ddg.name}"]
            for latency, r in reversed(slowest)
        ],
    })
    return out


WORKLOADS = {
    "sweep": (import_core, run_sweep),
    "batch": (boot_pool, run_batch),
    "serve": (Daemon, run_serve),
    "serve-default": (Daemon, functools.partial(run_serve, backend=None)),
    "serve-coalesce": (Daemon, functools.partial(run_serve,
                                                 text_change_gap_s=0.0)),
}
