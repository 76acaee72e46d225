"""Race candidate periods across worker processes (§6, parallelized).

The sequential driver proves infeasibility of ``T_lb, T_lb+1, ...`` one
period at a time; on hard loops nearly all wall-clock goes into those
proofs.  The per-``T`` ILPs are completely independent, so
:func:`race_periods` runs the same sweep (:func:`repro.core.scheduler.
run_sweep`) with its period cells spread over a supervised worker pool
by :class:`repro.supervision.cells.CellRace`:

* the **winner** is the smallest ``T`` whose solve returned a feasible
  point — exactly what the sequential sweep would have found;
* a win at ``T`` retires every period above it: running cells are
  killed, queued ones dropped, and each is recorded ``cancelled``;
* work at **smaller** periods is always awaited, because rate-optimality
  (:attr:`SchedulingResult.is_rate_optimal_proven`) is a claim about
  those periods: the win only counts once every smaller admissible ``T``
  has come back INFEASIBLE.  A smaller period that lands feasible late
  *replaces* the provisional winner.

A worker that crashes, hangs past its deadline, or OOMs fails **only its
own cell**: the failure is recorded on that attempt as a
:class:`~repro.supervision.records.FailureRecord` (after the policy's
retries) and the race keeps going with the surviving candidates.  On
SIGINT/SIGTERM the race settles to its best-known incumbent — the
provisional winner or the heuristic schedule — with a ``degraded``
marker instead of raising.

Every cell runs :func:`repro.core.scheduler.attempt_period` — the same
body the sequential driver runs — so the two drivers return identical
achieved periods and proof flags (asserted corpus-wide by
``tests/test_parallel_equivalence.py``).
"""

from __future__ import annotations

import os
from typing import Optional

from repro.core.errors import SchedulingError
from repro.core.scheduler import (  # noqa: F401 - CANCELLED re-exported
    CANCELLED,
    AttemptConfig,
    SchedulingResult,
    run_sweep,
)
from repro.ddg.graph import Ddg
from repro.machine import Machine
from repro.supervision.records import SupervisionPolicy


def default_jobs() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)


def race_periods(
    ddg: Ddg,
    machine: Machine,
    backend: str = "auto",
    objective: str = "feasibility",
    mapping: Optional[bool] = None,
    time_limit_per_t: Optional[float] = 30.0,
    max_extra: int = 10,
    repair_modulo: bool = False,
    jobs: Optional[int] = None,
    window: Optional[int] = None,
    warmstart: bool = True,
    policy: Optional[SupervisionPolicy] = None,
    store=None,
) -> SchedulingResult:
    """Drop-in parallel replacement for :func:`repro.core.schedule_loop`.

    ``jobs`` is the worker-process count (default: CPU count); ``window``
    caps how many cells may be in flight at once (default:
    ``2 * jobs``), bounding speculative work beyond the eventual winner.
    With ``jobs=1`` the cells run in-process with window 1 — the
    sequential driver exactly, no pool spawned; a race with a single
    period left to solve runs that solve in-process too.

    With ``warmstart`` (the default) the iterative modulo heuristic runs
    once in the parent process before any dispatch: its achieved II caps
    the candidate range (periods above it can never win), settles its own
    period outright under the feasibility objective (the race then only
    chases smaller periods), and otherwise seeds the II-period solve with
    the heuristic incumbent.

    ``policy`` tunes the supervision guard-rails (deadline, memory cap,
    retries, backoff); the default policy derives each candidate's
    deadline from ``time_limit_per_t``, so a solver that ignores its
    budget is killed rather than trusted.

    ``store`` (a :class:`repro.store.ScheduleStore` or path) is
    consulted before the heuristic pre-pass or any dispatch: a verified
    hit returns immediately without spawning workers, and a clean cold
    result is published back for future runs.

    Every period cell builds and solves its model from (ddg, machine,
    T) alone, so a worker's result never depends on which periods it
    handled before.
    """
    if max_extra < 0:
        raise SchedulingError(f"max_extra must be >= 0, got {max_extra}")
    jobs = jobs if jobs is not None else default_jobs()
    if jobs < 1:
        raise SchedulingError(f"jobs must be >= 1, got {jobs}")
    if jobs == 1:
        window = 1
    elif window is None:
        window = 2 * jobs
    elif window < 1:
        raise SchedulingError(f"window must be >= 1, got {window}")
    config = AttemptConfig(
        backend=backend,
        objective=objective,
        mapping=mapping,
        time_limit=time_limit_per_t,
        repair_modulo=repair_modulo,
        warmstart=warmstart,
    )
    if store is not None:
        from repro.store import open_store

        store = open_store(store)
    return run_sweep(
        ddg, machine, config, max_extra, store=store,
        workers=0 if jobs == 1 else jobs, window=window, policy=policy,
    )
