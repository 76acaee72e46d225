"""Fault-tolerant supervision of out-of-process solves.

The scheduling drivers (sequential sweep, period race, corpus batch,
service) hand long ILP solves to worker processes through one cell race
(:mod:`repro.supervision.cells`); this package is that race and the
layer under it, which assumes those workers will hang, crash, or eat
all the memory — and turns every such event into data instead of a
dead run:

* :mod:`~repro.supervision.cells` — the cell race: keyed cells
  dispatched in-process or to the executor, each settled by its own
  report, a period win retiring the periods above it;
* :mod:`~repro.supervision.records` — the failure taxonomy
  (:class:`FailureRecord`) and the guard-rail knobs
  (:class:`SupervisionPolicy`);
* :mod:`~repro.supervision.executor` — a process pool with hard
  wall-clock deadlines (SIGKILL, not trust), per-worker memory caps,
  crash recovery and bounded retry with exponential backoff;
* :mod:`~repro.supervision.signals` — SIGINT/SIGTERM as graceful
  degrade-to-incumbent, not stack traces;
* :mod:`~repro.supervision.journal` — the one JSONL journal format:
  batch checkpoint/resume and the service's accepted/done log;
* :mod:`~repro.supervision.atomicio` — torn-write-free reports;
* :mod:`~repro.supervision.faults` — deterministic fault injection so
  every recovery path above is exercised in CI.

See ``docs/robustness.md`` for the full model.
"""

from repro.supervision.atomicio import (
    AppendOnlyLines,
    atomic_write_json,
    atomic_write_text,
)
from repro.supervision.executor import SupervisedExecutor, SupervisedTask
from repro.supervision.journal import (
    Journal,
    JournalError,
    completed_entries,
    read_journal,
)
from repro.supervision.records import (
    CRASH,
    DEGRADED,
    FAILURE_KINDS,
    HANG,
    INTERRUPTED,
    OOM,
    SOLVER_ERROR,
    FailureRecord,
    SupervisionPolicy,
)
from repro.supervision.signals import (
    clear_interrupt,
    graceful_interrupts,
    interrupted,
    request_interrupt,
)

__all__ = [
    "AppendOnlyLines",
    "CRASH",
    "DEGRADED",
    "FAILURE_KINDS",
    "FailureRecord",
    "HANG",
    "INTERRUPTED",
    "Journal",
    "JournalError",
    "OOM",
    "SOLVER_ERROR",
    "SupervisedExecutor",
    "SupervisedTask",
    "SupervisionPolicy",
    "atomic_write_json",
    "atomic_write_text",
    "clear_interrupt",
    "completed_entries",
    "graceful_interrupts",
    "interrupted",
    "read_journal",
    "request_interrupt",
]
