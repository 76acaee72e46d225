"""Job objects and the picklable worker body the daemon dispatches.

A :class:`Job` lives on the daemon side only; what crosses the process
boundary is :func:`solve_request` and the job's plain request dict.
The body has the same shape as the batch runner's (parse, validate,
``run_sweep`` against the shared store) and returns the entry as a
plain JSON dict so the HTTP layer serves it verbatim.  Anything the
solve raises surfaces through the supervisor's failure taxonomy
(``MemoryError`` re-raised for OOM classification, everything else a
``solver_error``), so a job's failure always names a kind.
"""

from __future__ import annotations

import asyncio
import time
from typing import Dict, List, Optional

from repro.core.scheduler import AttemptConfig, run_sweep
from repro.machine import presets
from repro.parallel.batch import BatchEntry
from repro.supervision import faults

#: Job lifecycle states (terminal: done/failed/shed/cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
SHED = "shed"
CANCELLED = "cancelled"

TERMINAL_STATES = (DONE, FAILED, SHED, CANCELLED)

#: Source label entries carry in journals and reports.
SERVE_SOURCE = "<serve>"


class Job:
    """One accepted submission and its (eventual) outcome.

    Mutated by the HTTP thread (creation) and the dispatcher thread
    (completion); ``event`` is an :class:`asyncio.Event` of the
    daemon's loop, set there exactly once after the job reaches a
    terminal state, and long-polling handlers await it.
    """

    def __init__(
        self,
        job_id: str,
        client: str,
        key: str,
        request: Dict[str, object],
        weight: int = 1,
    ) -> None:
        self.id = job_id
        self.client = client
        #: ``store.keys.store_key`` of the request (coalescing also needs
        #: the same DDG text; see ``ServeDaemon._inflight``).
        self.key = key
        #: Picklable request payload (ddg text, machine name, config
        #: fields) — exactly what the journal replays on resume.
        self.request = request
        self.weight = weight
        self.state = QUEUED
        self.submitted_at = time.monotonic()
        self.finished_at: Optional[float] = None
        self.entry: Optional[dict] = None
        self.error: Optional[str] = None
        self.failure: Optional[dict] = None
        self.event = asyncio.Event()
        #: Jobs coalesced onto this one (they share the solve).
        self.followers: List["Job"] = []
        #: Set on followers: the primary's job id.
        self.coalesced_with: Optional[str] = None

    @property
    def finished(self) -> bool:
        return self.state in TERMINAL_STATES

    def latency(self) -> float:
        end = self.finished_at if self.finished_at else time.monotonic()
        return end - self.submitted_at

    def to_json_dict(self, include_entry: bool = True) -> dict:
        doc: Dict[str, object] = {
            "job": self.id,
            "client": self.client,
            "key": self.key,
            "state": self.state,
        }
        if self.coalesced_with is not None:
            doc["coalesced_with"] = self.coalesced_with
        if self.finished:
            doc["seconds"] = round(self.latency(), 6)
        if self.error is not None:
            doc["error"] = self.error
        if self.failure is not None:
            doc["failure"] = self.failure
        if include_entry and self.entry is not None:
            doc["entry"] = self.entry
        return doc


def request_config(request: Dict[str, object]) -> AttemptConfig:
    """The :class:`AttemptConfig` a request resolves to.

    Raises on a request no solver could run (unknown backend or
    objective, a bad time limit): admission turns that into a 400, and
    a journaled request from an older daemon fails its job instead.
    """
    return AttemptConfig(
        backend=str(request.get("backend", "auto")),
        objective=str(request.get("objective", "feasibility")),
        time_limit=float(request["time_limit"]),
        warmstart=bool(request.get("warmstart", True)),
    )


def solve_request(
    request: Dict[str, object],
    max_extra: int,
    store_path: Optional[str] = None,
) -> dict:
    """Worker body: schedule one submitted loop, return its entry dict.

    Runs in a supervised worker process, one call per job.  Errors are
    deliberately *not* swallowed into an error entry (unlike the batch
    body): the supervisor's taxonomy is the service's failure channel,
    and the breaker needs real per-backend failures to count.
    """
    from repro.ddg.builders import parse_ddg

    machine = presets.by_name(str(request["machine"]))
    ddg = parse_ddg(str(request["ddg"]))
    ddg.validate_against(machine)
    config = request_config(request)
    faults.fire("solve", loop=ddg.name, backend=config.backend)
    result = run_sweep(ddg, machine, config, max_extra,
                       store=store_path)
    return BatchEntry(
        name=ddg.name,
        source=SERVE_SOURCE,
        num_ops=ddg.num_ops,
        result=result,
    ).to_json_dict()
