"""SupervisedExecutor: crash recovery, deadline kills, OOM, retry, abort.

Worker task bodies live at module level so they pickle under the fork
and spawn start methods alike.  Deadlines and backoffs are kept tiny so
the whole file runs in seconds.
"""

import asyncio
import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.supervision.executor import (
    CANCELLED,
    DONE,
    FAILED,
    RUNNING,
    SupervisedExecutor,
)
from repro.supervision.records import (
    CRASH,
    HANG,
    INTERRUPTED,
    OOM,
    SOLVER_ERROR,
    SupervisionPolicy,
)


def _double(x):
    return x * 2


def _crash():
    os._exit(3)


def _sleep(seconds):
    time.sleep(seconds)
    return "slept"


def _raise_memory_error():
    raise MemoryError("boom")


def _raise_value_error():
    raise ValueError("bad model")


def _allocate(mb):
    block = bytearray(mb << 20)
    block[::4096] = b"x" * len(block[::4096])
    return len(block)


def _crash_once(path):
    """Crash on the first call, succeed on the retry (marker file)."""
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("seen")
        os._exit(3)
    return "recovered"


def _drain(executor):
    finished = []
    while executor.outstanding():
        finished.extend(executor.poll(timeout=5.0))
    finished.extend(executor.poll(timeout=0.0))
    return finished


FAST_RETRY = SupervisionPolicy(max_retries=1, backoff=0.01)
NO_RETRY = SupervisionPolicy(max_retries=0)


class TestResults:
    def test_result_delivery_and_tags(self):
        with SupervisedExecutor(max_workers=2) as executor:
            tasks = [
                executor.submit(_double, i, tag=f"job{i}") for i in range(5)
            ]
            finished = _drain(executor)
        assert len(finished) == 5
        for task in tasks:
            assert task.state == DONE
            assert task.failure is None
            assert task.result == 2 * int(task.tag[3:])

    def test_worker_reuse_keeps_pool_small(self):
        with SupervisedExecutor(max_workers=1) as executor:
            for i in range(4):
                executor.submit(_double, i)
            _drain(executor)
            assert len(executor._workers) == 1

    def test_poll_timeout_returns_empty(self):
        with SupervisedExecutor(max_workers=1) as executor:
            task = executor.submit(_sleep, 30.0)
            assert executor.poll(timeout=0.05) == []
            assert not task.finished

    def test_poll_returns_once_the_wake_fd_is_written(self):
        read_end, write_end = os.pipe()
        try:
            with SupervisedExecutor(max_workers=1) as executor:
                task = executor.submit(_sleep, 30.0)
                timer = threading.Timer(0.3, os.write, (write_end, b"\0"))
                timer.start()
                start = time.monotonic()
                assert executor.poll(timeout=5.0, wake=read_end) == []
                waited = time.monotonic() - start
                timer.join(timeout=5)
                assert 0.2 < waited < 1.3  # written at 0.3 s
                assert task.state == RUNNING
                # The caller owns the fd: poll leaves the byte unread.
                assert os.read(read_end, 16) == b"\0"
        finally:
            os.close(read_end)
            os.close(write_end)

    def test_submit_after_shutdown_rejected(self):
        executor = SupervisedExecutor(max_workers=1)
        executor.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            executor.submit(_double, 1)

    def test_bad_max_workers_rejected(self):
        with pytest.raises(ValueError, match="max_workers"):
            SupervisedExecutor(max_workers=0)


class TestCrash:
    def test_crash_fails_only_its_task(self):
        with SupervisedExecutor(max_workers=2, policy=NO_RETRY) as executor:
            bad = executor.submit(_crash)
            good = executor.submit(_double, 21)
            _drain(executor)
        assert bad.state == FAILED
        assert bad.failure.kind == CRASH
        assert "exit code 3" in bad.failure.detail
        assert good.state == DONE and good.result == 42

    def test_crash_retried_up_to_max_retries(self):
        with SupervisedExecutor(
            max_workers=1, policy=FAST_RETRY
        ) as executor:
            task = executor.submit(_crash)
            _drain(executor)
        assert task.failure.kind == CRASH
        assert task.failure.attempt == 2  # initial try + 1 retry
        assert task.failure.retries == 1

    def test_retry_recovers_after_transient_crash(self, tmp_path):
        marker = tmp_path / "crashed_once"
        with SupervisedExecutor(
            max_workers=1, policy=FAST_RETRY
        ) as executor:
            task = executor.submit(_crash_once, str(marker))
            _drain(executor)
        assert task.state == DONE
        assert task.result == "recovered"
        assert task.tries == 2


class TestHang:
    def test_hang_killed_within_deadline_plus_grace(self):
        policy = SupervisionPolicy(
            deadline=0.3, grace=0.2, max_retries=0
        )
        start = time.monotonic()
        with SupervisedExecutor(max_workers=1, policy=policy) as executor:
            task = executor.submit(_sleep, 60.0)
            _drain(executor)
        wall = time.monotonic() - start
        assert task.failure.kind == HANG
        assert "deadline" in task.failure.detail
        # Killed at ~0.5s; the 5s margin is pure scheduler slack.
        assert wall < 5.0

    def test_per_task_deadline_overrides_policy(self):
        policy = SupervisionPolicy(deadline=60.0, grace=0.2,
                                   max_retries=0)
        with SupervisedExecutor(max_workers=1, policy=policy) as executor:
            task = executor.submit(_sleep, 60.0, deadline=0.3)
            _drain(executor)
        assert task.failure.kind == HANG

    def test_explicit_none_deadline_unbounded(self):
        policy = SupervisionPolicy(deadline=0.2, grace=0.1,
                                   max_retries=0)
        with SupervisedExecutor(max_workers=1, policy=policy) as executor:
            task = executor.submit(_sleep, 0.6, deadline=None)
            _drain(executor)
        assert task.state == DONE
        assert task.result == "slept"


class TestMemoryAndErrors:
    def test_memory_error_is_oom_not_retried(self):
        with SupervisedExecutor(
            max_workers=1, policy=FAST_RETRY
        ) as executor:
            task = executor.submit(_raise_memory_error)
            _drain(executor)
        assert task.failure.kind == OOM
        assert task.failure.attempt == 1  # OOM is not retryable

    def test_task_exception_is_solver_error(self):
        with SupervisedExecutor(max_workers=1) as executor:
            task = executor.submit(_raise_value_error)
            _drain(executor)
        assert task.failure.kind == SOLVER_ERROR
        assert "ValueError: bad model" in task.failure.detail

    def test_rlimit_cap_turns_allocation_into_oom(self):
        policy = SupervisionPolicy(memory_mb=256, max_retries=0)
        with SupervisedExecutor(max_workers=1, policy=policy) as executor:
            task = executor.submit(_allocate, 1024)
            _drain(executor)
        assert task.state == FAILED
        # The allocation either raises MemoryError inside the worker
        # (oom) or the allocator aborts the process (crash); both mean
        # the cap held and the supervisor survived.
        assert task.failure.kind in (OOM, CRASH)


class TestAbortAndCancel:
    def test_abort_fails_running_and_pending(self):
        with SupervisedExecutor(max_workers=1) as executor:
            running = executor.submit(_sleep, 60.0)
            pending = executor.submit(_double, 1)
            executor.poll(timeout=0.2)  # ensure the first task started
            aborted = executor.abort(INTERRUPTED, "test abort")
            assert set(aborted) == {running, pending}
            for task in (running, pending):
                assert task.state == FAILED
                assert task.failure.kind == INTERRUPTED
            # abort() already delivered them; poll must not re-deliver.
            assert executor.poll(timeout=0.0) == []

    def test_abort_preserves_finished_results(self):
        with SupervisedExecutor(max_workers=1) as executor:
            done = executor.submit(_double, 5)
            _drain(executor)
            assert executor.abort() == []
            assert done.state == DONE and done.result == 10

    def test_cancel_pending_only(self):
        with SupervisedExecutor(max_workers=1) as executor:
            running = executor.submit(_sleep, 2.0)
            pending = executor.submit(_double, 1)
            executor.poll(timeout=0.2)
            assert executor.cancel(pending)
            assert pending.state == CANCELLED
            assert not executor.cancel(running)
            assert executor.outstanding() == 1


class TestKillTask:
    """Portfolio-loser reaping: bounded TERM->KILL, no zombies."""

    def test_kill_running_task(self):
        with SupervisedExecutor(max_workers=1) as executor:
            running = executor.submit(_sleep, 60.0)
            executor.poll(timeout=0.2)  # let it start
            start = time.time()
            assert executor.kill_task(running)
            assert time.time() - start < 5.0  # bounded escalation
            assert running.state == CANCELLED
            assert running.failure is None
            # The kill is not a failure: poll never re-delivers it.
            assert executor.poll(timeout=0.0) == []

    def test_kill_pending_task_cancels(self):
        with SupervisedExecutor(max_workers=1) as executor:
            executor.submit(_sleep, 2.0)
            pending = executor.submit(_double, 1)
            executor.poll(timeout=0.2)
            assert executor.kill_task(pending)
            assert pending.state == CANCELLED

    def test_kill_finished_task_refused(self):
        with SupervisedExecutor(max_workers=1) as executor:
            done = executor.submit(_double, 4)
            _drain(executor)
            assert not executor.kill_task(done)
            assert done.state == DONE and done.result == 8

    def test_kill_after_exit_race_keeps_result(self):
        """A task that finishes between verdict and escalation survives.

        The caller decides to kill while the worker's reply is already
        sitting unread in the pipe (the worker may even have exited —
        its pid could be reaped and reused).  ``kill_task`` must drain
        the reply, refuse the kill, keep the worker, and let ``poll``
        deliver the real result — never signal the stale pid.
        """
        with SupervisedExecutor(max_workers=1) as executor:
            task = executor.submit(_double, 21)
            # Start the task without letting the supervisor reap the
            # reply: drive dispatch via the internals, then wait for
            # the worker's answer to land in the pipe unread.
            executor._dispatch()
            (worker,) = executor._workers
            deadline = time.monotonic() + 5.0
            while not worker.conn.poll():
                assert time.monotonic() < deadline, "worker never replied"
                time.sleep(0.01)
            # The race window: task RUNNING, reply unread, kill issued.
            assert task.state == "running"
            assert not executor.kill_task(task)
            assert task.state == DONE
            assert task.result == 42
            assert task.failure is None
            # The worker was not killed: same process, still reusable.
            assert executor._workers == [worker]
            assert worker.process.is_alive()
            # poll() delivers the settled result exactly once.
            assert executor.poll(timeout=0.0) == [task]
            assert executor.poll(timeout=0.0) == []
            follow_up = executor.submit(_double, 4)
            _drain(executor)
            assert follow_up.result == 8

    def test_pool_survives_a_kill(self):
        with SupervisedExecutor(max_workers=1) as executor:
            victim = executor.submit(_sleep, 60.0)
            executor.poll(timeout=0.2)
            executor.kill_task(victim)
            follow_up = executor.submit(_double, 21)
            _drain(executor)
            assert follow_up.result == 42

    def test_no_live_children_after_kill_and_shutdown(self):
        executor = SupervisedExecutor(max_workers=2)
        try:
            victims = [executor.submit(_sleep, 60.0) for _ in range(2)]
            executor.poll(timeout=0.3)
            for victim in victims:
                executor.kill_task(victim)
        finally:
            executor.shutdown()
        assert executor.live_children() == []

    def test_no_live_children_after_plain_shutdown(self):
        executor = SupervisedExecutor(max_workers=2)
        try:
            executor.submit(_sleep, 60.0)
            executor.submit(_sleep, 60.0)
            executor.poll(timeout=0.3)
        finally:
            executor.shutdown()
        assert executor.live_children() == []


def _kill_fresh_workers(rounds):
    """Kill tasks the moment they are dispatched, from this thread."""
    for _ in range(rounds):
        with SupervisedExecutor(max_workers=2) as executor:
            tasks = [executor.submit(_sleep, 5.0) for _ in range(2)]
            executor.poll(timeout=0.0)  # dispatch: fork and send
            for task in tasks:
                executor.kill_task(task)


class TestSignalIsolation:
    """A killed worker must never signal the process that forked it."""

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="the inherited wakeup fd only exists under fork",
    )
    def test_killed_fresh_worker_does_not_wake_parent_handler(self):
        # The serve daemon's shape: an asyncio loop owning a SIGTERM
        # handler (its self-pipe is the signal wakeup fd) while another
        # thread forks workers and kills them straight after dispatch.
        # A child still holding the inherited handler and wakeup fd
        # when its SIGTERM lands would write into the parent's
        # self-pipe and fire the parent's handler.
        fired = []

        async def main():
            loop = asyncio.get_running_loop()
            loop.add_signal_handler(signal.SIGTERM, fired.append, "TERM")
            try:
                await loop.run_in_executor(None, _kill_fresh_workers, 12)
                await asyncio.sleep(0.3)  # let a stray wakeup land
            finally:
                loop.remove_signal_handler(signal.SIGTERM)

        asyncio.run(main())
        assert fired == []


_ORPHAN_SCRIPT = """
import json, sys, time
from repro.supervision.executor import SupervisedExecutor

executor = SupervisedExecutor(max_workers=2)
for _ in range(2):
    executor.submit(time.sleep, 0.2)
while executor.outstanding():
    executor.poll(timeout=0.1)
print(json.dumps([p.pid for p in executor.live_children()]), flush=True)
time.sleep(120)
"""


def _gone(pid):
    """True once ``pid`` has exited (an unreaped zombie counts)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] == "Z"
    except OSError:
        return True


class TestOrphanedWorkers:
    """Workers outlive a SIGKILLed supervisor by about a second only."""

    @pytest.mark.skipif(not os.path.isdir("/proc/self"),
                        reason="reads worker state from /proc")
    def test_workers_exit_after_supervisor_is_killed(self):
        import json
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        supervisor = subprocess.Popen(
            [sys.executable, "-c", _ORPHAN_SCRIPT],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        try:
            pids = json.loads(supervisor.stdout.readline())
        finally:
            supervisor.kill()
            supervisor.wait(timeout=10)
            supervisor.stdout.close()
        assert len(pids) == 2
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(map(_gone, pids)):
            time.sleep(0.1)
        lingering = [pid for pid in pids if not _gone(pid)]
        for pid in lingering:
            os.kill(pid, signal.SIGKILL)
        assert lingering == []
