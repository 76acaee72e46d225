"""A process pool that assumes its workers will misbehave.

:class:`concurrent.futures.ProcessPoolExecutor` treats a dead worker as
fatal (``BrokenProcessPool`` poisons every outstanding future) and has
no way to kill a task that ignores its time budget.  This executor is
built for the opposite world:

* every task carries a **wall-clock deadline**; a worker that exceeds
  ``deadline + grace`` is SIGKILLed and the task fails as ``hang``;
* a worker that **dies** (segfault, ``os._exit``, kernel OOM-kill) fails
  only its own task, as ``crash`` — the pool replaces the worker and the
  rest of the run never notices;
* crashes and hangs are **retried** with exponential backoff up to the
  policy's ``max_retries``, then surface as a
  :class:`~repro.supervision.records.FailureRecord`;
* an optional **RLIMIT_AS cap** turns runaway allocations into an
  in-worker ``MemoryError``, reported as ``oom``;
* :meth:`SupervisedExecutor.abort` fails everything still outstanding
  (``interrupted``) and kills the workers — the SIGINT/SIGTERM path.

Tasks never raise out of the pool: a finished
:class:`SupervisedTask` holds either ``result`` or ``failure``.  The
supervisor itself is single-threaded — drivers interleave dispatch,
deadline enforcement and result collection through :meth:`poll`.
"""

from __future__ import annotations

import itertools
import multiprocessing
import multiprocessing.connection
import os
import signal
import time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional

from repro.supervision.records import (
    CRASH,
    HANG,
    INTERRUPTED,
    OOM,
    RETRYABLE_KINDS,
    SOLVER_ERROR,
    FailureRecord,
    SupervisionPolicy,
)

#: Task lifecycle states.
PENDING = "pending"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: Floor/ceiling on one blocking wait, keeping the supervisor responsive
#: to deadlines and interrupt flags without spinning.
_MIN_WAIT = 0.01
_MAX_WAIT = 0.25

#: Signals blocked in the forking thread while a worker starts.
_WORKER_SIGNALS = {signal.SIGINT, signal.SIGTERM}

#: How often an idle worker checks that its supervisor is still alive.
_ORPHAN_CHECK_S = 1.0


class SupervisedTask:
    """One unit of work and its outcome (result *or* failure, never a raise)."""

    def __init__(self, task_id, fn, args, kwargs, tag, deadline):
        self.id = task_id
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        #: Opaque caller payload (the race stores the candidate period).
        self.tag = tag
        self.deadline = deadline
        self.state = PENDING
        self.tries = 0
        self.eligible_at = 0.0
        self.started_at: Optional[float] = None
        self.elapsed = 0.0
        self.result = None
        self.failure: Optional[FailureRecord] = None

    @property
    def finished(self) -> bool:
        return self.state in (DONE, FAILED)

    def __repr__(self) -> str:
        return (
            f"SupervisedTask(id={self.id}, tag={self.tag!r}, "
            f"state={self.state}, tries={self.tries})"
        )


def _worker_main(conn, initializer, initargs, memory_mb) -> None:
    """Worker loop: recv ``(task_id, fn, args, kwargs)``, send outcome.

    The worker classifies its own recoverable failures (``MemoryError``
    -> oom, anything else raised by the task -> solver_error) so the
    parent never needs to unpickle an arbitrary exception object.  A
    death without a reply is the parent's signal of a crash.
    """
    # The parent owns interrupt policy; a Ctrl-C must not kill workers
    # before the supervisor has settled the run.  A forked child also
    # inherits the parent's Python-level handlers and its signal
    # wakeup fd (asyncio's self-pipe): both go before the signals the
    # parent blocked across the fork are let through, so a SIGTERM
    # aimed at this worker kills it instead of waking the parent.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    try:
        signal.set_wakeup_fd(-1)
    except ValueError:
        pass  # not the main thread of a spawned interpreter
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _WORKER_SIGNALS)
    if memory_mb is not None:
        try:
            import resource

            limit = memory_mb << 20
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        except (ImportError, ValueError, OSError):
            pass  # unsupported platform / cap below current usage
    if initializer is not None:
        initializer(*initargs)
    supervisor = os.getppid()
    while True:
        try:
            # A forked worker holds copies of the parent-side pipe ends
            # (its own and its older siblings'), so a supervisor killed
            # by SIGKILL never shows up here as EOF.  Being re-parented
            # does: exit rather than linger as an orphan forever.
            while not conn.poll(_ORPHAN_CHECK_S):
                if os.getppid() != supervisor:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            break
        if message is None:
            break
        task_id, fn, args, kwargs = message
        try:
            result = fn(*args, **kwargs)
            reply = ("ok", task_id, result)
        except MemoryError:
            reply = ("fail", task_id, OOM,
                     "MemoryError: worker exceeded its memory cap")
        except BaseException as exc:  # noqa: BLE001 - full isolation
            reply = ("fail", task_id, SOLVER_ERROR,
                     f"{type(exc).__name__}: {exc}")
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
        except Exception as exc:  # unpicklable result object
            try:
                conn.send(("fail", task_id, SOLVER_ERROR,
                           f"unpicklable task result: {exc}"))
            except Exception:
                break


class _Worker:
    """A worker process plus its duplex pipe and in-flight task."""

    def __init__(self, ctx, initializer, initargs, memory_mb):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, initializer, initargs, memory_mb),
            daemon=True,
        )
        # Held off across the fork until the child has reset its
        # handlers (see _worker_main).
        blocked = signal.pthread_sigmask(signal.SIG_BLOCK, _WORKER_SIGNALS)
        try:
            self.process.start()
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, blocked)
        child_conn.close()
        self.conn = parent_conn
        self.task: Optional[SupervisedTask] = None

    @property
    def busy(self) -> bool:
        return self.task is not None

    def dispatch(self, task: SupervisedTask) -> None:
        self.conn.send((task.id, task.fn, task.args, task.kwargs))
        self.task = task
        task.state = RUNNING
        task.tries += 1
        task.started_at = time.monotonic()

    def kill(self, join_timeout: float = 1.0) -> None:
        """Terminate with bounded escalation: TERM, join, KILL, join.

        SIGTERM first so a cooperative worker exits cleanly; SIGKILL
        only if it is still alive after the bounded join.  Every join
        is bounded, so reaping a wedged loser can never block the
        supervisor for more than ~2x ``join_timeout`` — the period
        race reaps cells above a win on the winner's critical path.
        """
        try:
            if self.process.is_alive():
                self.process.terminate()
                self.process.join(timeout=join_timeout)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=join_timeout)
        except (OSError, AttributeError):
            pass
        try:
            self.conn.close()
        except OSError:
            pass

    def stop(self) -> None:
        """Polite shutdown for an idle worker."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(timeout=0.2)
        if self.process.is_alive():
            self.kill()
        else:
            try:
                self.conn.close()
            except OSError:
                pass


class SupervisedExecutor:
    """Deadline-, crash- and memory-guarded process pool (see module doc)."""

    def __init__(
        self,
        max_workers: int,
        policy: Optional[SupervisionPolicy] = None,
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        mp_context=None,
    ) -> None:
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.policy = policy or SupervisionPolicy()
        self._max_workers = max_workers
        self._initializer = initializer
        self._initargs = initargs
        self._ctx = mp_context or multiprocessing.get_context()
        self._workers: List[_Worker] = []
        self._pending: Deque[SupervisedTask] = deque()
        self._done: Deque[SupervisedTask] = deque()
        self._ids = itertools.count()
        self._tasks: Dict[int, SupervisedTask] = {}
        #: Every process this executor ever spawned, for post-run
        #: no-zombie assertions (see :meth:`live_children`).
        self._children: List[multiprocessing.process.BaseProcess] = []
        self._shut_down = False

    # ------------------------------------------------------------------
    # public API

    def submit(self, fn, *args, tag=None, deadline="policy",
               **kwargs) -> SupervisedTask:
        """Queue ``fn(*args, **kwargs)``; returns immediately.

        ``deadline`` defaults to the policy's; pass ``None`` explicitly
        for an unbounded task.
        """
        if self._shut_down:
            raise RuntimeError("executor has been shut down")
        if deadline == "policy":
            deadline = self.policy.deadline
        task = SupervisedTask(
            next(self._ids), fn, args, kwargs, tag, deadline
        )
        self._tasks[task.id] = task
        self._pending.append(task)
        return task

    def cancel(self, task: SupervisedTask) -> bool:
        """Drop a task that has not started; False once it is running."""
        if task.state != PENDING:
            return False
        task.state = CANCELLED
        try:
            self._pending.remove(task)
        except ValueError:
            pass
        self._tasks.pop(task.id, None)
        return True

    def kill_task(self, task: SupervisedTask) -> bool:
        """Terminate a task wherever it is — queued or mid-solve.

        A queued task is dropped; a running task's worker is killed
        (bounded TERM->KILL escalation) and not replaced until the
        dispatcher next needs one.  Either way the task lands in state
        ``CANCELLED`` with neither result nor failure — this is how the
        period race reaps periods above a win the moment it is known,
        so a cancellation is an expected outcome, not an error.  Returns
        False when the task already finished (its result/failure
        stands) or was already cancelled.

        Kill-after-exit race: between the caller's decision to kill and
        the escalation here, the worker may already have *finished* the
        task — its reply sitting unread in the pipe, its process
        possibly exited (and, in the worst interleaving, its pid
        reaped and reused by the OS).  Signaling at that point would
        discard a real verdict and aim TERM/KILL at a process that is
        no longer ours.  So the worker's pipe is drained first: a reply
        for this task settles it as DONE/FAILED (delivered by the next
        :meth:`poll`), the worker is kept alive for reuse, and the
        caller gets False — "too late, the result stands".
        """
        if task.state == PENDING:
            return self.cancel(task)
        if task.state != RUNNING:
            return False
        now = time.monotonic()
        for worker in list(self._workers):
            if worker.task is not task:
                continue
            if self._settle_finished(worker, now):
                # The task beat the kill: its verdict was already in
                # the pipe.  Nothing was signaled; the result stands.
                return False
            worker.task = None
            worker.kill()
            self._workers.remove(worker)
            break
        task.elapsed += now - (task.started_at or now)
        task.state = CANCELLED
        self._tasks.pop(task.id, None)
        return True

    def _settle_finished(self, worker: _Worker, now: float) -> bool:
        """Drain a reply for ``worker``'s task, settling it if present.

        Returns True when the in-flight task turned out to be finished
        (reply drained, task moved to DONE/FAILED and queued for
        :meth:`poll`); False when no reply is available and the task is
        genuinely still running (or the worker died without answering —
        the regular reap path owns that classification).
        """
        task = worker.task
        if task is None:
            return False
        try:
            while worker.conn.poll():
                status, task_id, *payload = worker.conn.recv()
                if task_id != task.id:
                    continue  # stale reply from a pre-kill task
                worker.task = None
                task.elapsed += now - (task.started_at or now)
                if status == "ok":
                    task.result = payload[0]
                    task.state = DONE
                    self._done.append(task)
                else:
                    kind, detail = payload
                    self._fail(task, kind, detail, retryable=False)
                return True
        except (EOFError, OSError):
            pass  # death without a reply: the reap path classifies it
        return False

    def live_children(self) -> List:
        """Worker processes (ever spawned) that are still alive.

        Empty after a clean ``shutdown``/``abort`` — fault-matrix tests
        assert exactly that to prove no loser survives a race.
        """
        return [p for p in self._children if p.is_alive()]

    def outstanding(self) -> int:
        """Tasks not yet finished (pending + running)."""
        return len(self._pending) + sum(
            1 for w in self._workers if w.busy
        )

    def poll(self, timeout: Optional[float] = None) -> List[SupervisedTask]:
        """Advance the pool and return newly finished tasks.

        Blocks up to ``timeout`` seconds (forever when ``None``) waiting
        for at least one task to finish; returns possibly-empty on
        timeout and immediately when nothing is outstanding.  Within one
        call the supervisor keeps dispatching, reaping replies, killing
        over-deadline workers and re-queuing retries.
        """
        wait_until = (
            None if timeout is None else time.monotonic() + timeout
        )
        while True:
            self._reap()
            self._dispatch()
            if self._done:
                drained = list(self._done)
                self._done.clear()
                return drained
            if not self.outstanding():
                return []
            now = time.monotonic()
            if wait_until is not None and now >= wait_until:
                return []
            self._block(now, wait_until)

    def abort(self, kind: str = INTERRUPTED,
              detail: str = "run aborted") -> List[SupervisedTask]:
        """Fail every outstanding task with ``kind`` and kill busy workers.

        Returns all tasks failed by this call (already-finished tasks
        still waiting in the done queue are *not* included; drain them
        with :meth:`poll` first if the distinction matters).
        """
        failed: List[SupervisedTask] = []
        now = time.monotonic()
        for worker in list(self._workers):
            task = worker.task
            if task is None:
                continue
            worker.task = None
            worker.kill()
            self._workers.remove(worker)
            task.elapsed += now - (task.started_at or now)
            self._fail(task, kind, detail, retryable=False)
            failed.append(task)
        while self._pending:
            task = self._pending.popleft()
            self._fail(task, kind, detail, retryable=False)
            failed.append(task)
        # _fail queued these for poll(); this call is their delivery.
        for task in failed:
            try:
                self._done.remove(task)
            except ValueError:
                pass
        return failed

    def shutdown(self) -> None:
        """Kill all workers; outstanding tasks are left unresolved."""
        self._shut_down = True
        for worker in self._workers:
            if worker.busy:
                worker.kill()
            else:
                worker.stop()
        self._workers.clear()
        self._pending.clear()
        # Final bounded sweep: any child whose first escalation didn't
        # land inside its join timeout gets one more KILL here, so a
        # shut-down executor leaves no zombies behind.
        for process in self._children:
            if process.is_alive():
                try:
                    process.kill()
                except (OSError, AttributeError):
                    pass
                process.join(timeout=1.0)

    def __enter__(self) -> "SupervisedExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()

    # ------------------------------------------------------------------
    # internals

    def _spawn(self) -> _Worker:
        worker = _Worker(
            self._ctx, self._initializer, self._initargs,
            self.policy.memory_mb,
        )
        self._workers.append(worker)
        self._children.append(worker.process)
        return worker

    def _dispatch(self) -> None:
        """Hand eligible pending tasks to idle (possibly new) workers."""
        now = time.monotonic()
        idle = [w for w in self._workers if not w.busy]
        while self._pending:
            # Find the first eligible task in submit order (tasks in
            # backoff are skipped, not reordered past permanently).
            eligible = next(
                (t for t in self._pending if t.eligible_at <= now), None
            )
            if eligible is None:
                return
            if idle:
                worker = idle.pop()
            elif len(self._workers) < self._max_workers:
                worker = self._spawn()
            else:
                return
            self._pending.remove(eligible)
            try:
                worker.dispatch(eligible)
            except (BrokenPipeError, OSError):
                # Worker died between tasks; replace it and re-queue.
                self._workers.remove(worker)
                worker.kill()
                eligible.state = PENDING
                self._pending.appendleft(eligible)

    def _reap(self) -> None:
        """Collect replies, detect deaths, and enforce deadlines."""
        now = time.monotonic()
        for worker in list(self._workers):
            if not worker.busy:
                continue
            task = worker.task
            # Drain any reply first: a worker may answer and then exit.
            if self._settle_finished(worker, now):
                continue
            if not worker.process.is_alive():
                exitcode = worker.process.exitcode
                worker.task = None
                worker.kill()
                self._workers.remove(worker)
                task.elapsed += now - task.started_at
                self._fail(
                    task, CRASH,
                    f"worker died (exit code {exitcode}) before "
                    f"finishing the task",
                )
                continue
            kill_after = self._kill_after(task)
            if (kill_after is not None
                    and now - task.started_at > kill_after):
                worker.task = None
                worker.kill()
                self._workers.remove(worker)
                task.elapsed += now - task.started_at
                self._fail(
                    task, HANG,
                    f"killed after {task.elapsed:.1f}s "
                    f"(deadline {task.deadline}s + grace "
                    f"{self.policy.grace}s)",
                )

    def _kill_after(self, task: SupervisedTask) -> Optional[float]:
        """Seconds after dispatch at which ``task``'s worker is killed.

        ``submit`` already resolved the policy default, so an explicit
        ``deadline=None`` really means unbounded here — unlike
        ``SupervisionPolicy.kill_after``, which treats None as "use the
        policy's deadline".
        """
        if task.deadline is None:
            return None
        return task.deadline + self.policy.grace

    def _fail(self, task: SupervisedTask, kind: str, detail: str,
              retryable: bool = True) -> None:
        """Fail or re-queue ``task`` after try number ``task.tries``."""
        if (retryable and kind in RETRYABLE_KINDS
                and task.tries <= self.policy.max_retries):
            task.state = PENDING
            task.started_at = None
            task.eligible_at = (
                time.monotonic() + self.policy.retry_delay(task.tries)
            )
            self._pending.append(task)
            return
        task.failure = FailureRecord(
            kind=kind,
            attempt=max(task.tries, 1),
            retries=max(task.tries - 1, 0),
            elapsed=task.elapsed,
            detail=detail,
        )
        task.state = FAILED
        self._done.append(task)

    def _block(self, now: float, wait_until: Optional[float]) -> None:
        """Sleep until the next interesting event (reply/deadline/backoff)."""
        horizon = now + _MAX_WAIT
        if wait_until is not None:
            horizon = min(horizon, wait_until)
        for worker in self._workers:
            task = worker.task
            if task is None:
                continue
            kill_after = self._kill_after(task)
            if kill_after is not None:
                horizon = min(horizon, task.started_at + kill_after)
        for task in self._pending:
            if task.eligible_at > now:
                horizon = min(horizon, task.eligible_at)
        delay = max(_MIN_WAIT, horizon - now)
        conns = [w.conn for w in self._workers if w.busy]
        if conns:
            multiprocessing.connection.wait(conns, timeout=delay)
        else:
            time.sleep(min(delay, _MAX_WAIT))
