"""``repro loadgen``: the serve daemon's crash drill.

:func:`run_drill` boots a ``repro serve`` subprocess on a fresh journal
and store, submits the seeded corpus mix, and SIGKILLs the daemon the
moment the last submission is accepted — while most accepted jobs are
still queued or solving.  It then restarts the daemon on the same
journal, waits for **every accepted job to reach a terminal state** (the
zero-lost-jobs claim), and drains it.

The mix deliberately repeats loops, so the restarted daemon also
re-coalesces the duplicates it re-admits.  ``faults`` is injected into
the daemon's environment as ``REPRO_FAULTS``, so the drill can run with
worker crashes on top of the daemon crash.  Throughput is not measured
here: that is perfbench's ``serve`` workload.
"""

from __future__ import annotations

import os
import random
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.serve.client import ServeClient, ServeError
from repro.supervision.atomicio import atomic_write_json


def corpus_mix(
    corpus: Sequence[Path], count: int, seed: int = 0
) -> List[str]:
    """``count`` DDG texts sampled from ``corpus`` with forced repeats.

    About half the mix re-submits already-chosen loops, so the restarted
    daemon has duplicates to re-coalesce; the rest cycles fresh files
    deterministically.
    """
    paths = sorted(corpus)
    if not paths:
        raise ValueError("corpus mix needs at least one .ddg file")
    rng = random.Random(seed)
    texts: List[str] = []
    fresh = 0
    for _ in range(count):
        if texts and rng.random() < 0.5:
            texts.append(rng.choice(texts))
        else:
            texts.append(
                paths[fresh % len(paths)].read_text(encoding="utf-8")
            )
            fresh += 1
    return texts


class DaemonHandle:
    """A ``repro serve`` subprocess plus its discovered port."""

    def __init__(self, args: Sequence[str], env: Optional[dict] = None):
        self.args = list(args)
        self.env = dict(os.environ, **(env or {}))
        self.process: Optional[subprocess.Popen] = None
        self.port: Optional[int] = None
        self._port_file: Optional[str] = None

    def start(self, boot_timeout: float = 30.0) -> ServeClient:
        fd, self._port_file = tempfile.mkstemp(suffix=".port")
        os.close(fd)
        os.unlink(self._port_file)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--port-file", self._port_file] + self.args,
            env=self.env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + boot_timeout
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited during boot "
                    f"(code {self.process.returncode})"
                )
            try:
                self.port = int(
                    Path(self._port_file).read_text(encoding="utf-8")
                )
                break
            except (OSError, ValueError):
                time.sleep(0.05)
        else:
            self.kill()
            raise RuntimeError("daemon never wrote its port file")
        client = ServeClient("127.0.0.1", self.port)
        while time.monotonic() < deadline:
            if client.alive():
                return client
            time.sleep(0.05)
        self.kill()
        raise RuntimeError("daemon bound a port but never became healthy")

    def kill(self) -> None:
        """SIGKILL — the crash the drill recovers from."""
        if self.process is not None and self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
            self.process.wait(timeout=10)

    def cleanup(self) -> None:
        self.kill()
        if self._port_file and os.path.exists(self._port_file):
            os.unlink(self._port_file)


def run_drill(
    corpus: Sequence[Path],
    machine: str,
    out: Path,
    requests: int = 30,
    time_limit: float = 5.0,
    backend: str = "auto",
    warmstart: bool = True,
    faults: Optional[str] = None,
    seed: int = 0,
) -> dict:
    """Boot, submit, SIGKILL, restart, wait for every job, drain.

    Returns the drill document (also written atomically to ``out``):
    ``restart`` holds the accepted-before-kill count, how many of those
    jobs the restarted daemon brought to a terminal state, their states
    and the ``lost_jobs`` (must be empty); ``resumed`` is how many jobs
    the restarted daemon re-admitted from the journal (those the kill
    caught unfinished); ``drain`` and ``exit_code`` record the final
    graceful drain.
    """
    with tempfile.TemporaryDirectory(prefix="repro-drill-") as tmp:
        work = Path(tmp)
        daemon_args = [
            "--time-limit", str(time_limit),
            "--journal", str(work / "serve.journal.jsonl"),
            "--store", str(work / "store"),
            "--deadline", "60",
        ]
        env = {"REPRO_FSYNC": os.environ.get("REPRO_FSYNC", "off")}
        if faults:
            env["REPRO_FAULTS"] = faults
        texts = corpus_mix(corpus, requests, seed=seed)
        handle = DaemonHandle(daemon_args, env=env)
        try:
            client = handle.start()
            accepted: List[str] = []
            refused: Dict[str, int] = {}
            for index, text in enumerate(texts):
                try:
                    # One client name per request: the drill is about the
                    # crash, not the per-client rate limit.
                    doc = client.submit(
                        text, machine, backend=backend, warmstart=warmstart,
                        client=f"drill-{index}",
                    )
                except ServeError as exc:
                    key = str(exc.status)
                    refused[key] = refused.get(key, 0) + 1
                    continue
                accepted.append(doc["job"])
            # The journal now owes answers for the jobs still queued or
            # solving; the crash erases everything else the daemon knew.
            handle.kill()
            client = handle.start()  # same journal: resume
            resumed = client.stats()["counters"].get("resumed", 0)
            lost, states = [], {}
            for job_id in accepted:
                try:
                    states[job_id] = client.wait_for(job_id)["state"]
                except (TimeoutError, ServeError, OSError):
                    lost.append(job_id)
            daemon_stats = client.stats()
            drained = client.drain()
            try:
                exit_code = handle.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                exit_code = None
            doc = {
                "drill": "serve_crash",
                "machine": machine,
                "requests": requests,
                "backend": backend,
                "warmstart": warmstart,
                "faults": faults,
                "refused": refused,
                "resumed": resumed,
                "restart": {
                    "accepted_before_kill": len(accepted),
                    "resumed_terminal": len(states),
                    "lost_jobs": lost,
                    "states": states,
                },
                "daemon_stats": daemon_stats,
                "drain": drained,
                "exit_code": exit_code,
            }
            atomic_write_json(out, doc)
            return doc
        finally:
            handle.cleanup()
