"""Race candidate periods across worker processes (§6, parallelized).

The sequential driver proves infeasibility of ``T_lb, T_lb+1, ...`` one
period at a time; on hard loops nearly all wall-clock goes into those
proofs.  The per-``T`` ILPs are completely independent, so
:func:`race_periods` runs the same sweep (:func:`repro.core.scheduler.
run_sweep`) with its period groups spread over a supervised worker pool
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

**Portfolio racing** (``backend="portfolio"`` or an explicit
``backends=(...)`` roster of two or more) gives every period group one
cell per roster backend:

* the **first decisive cell** settles its period for the whole roster
  — a feasible point makes it the (provisional) winner, an INFEASIBLE
  proof settles the period — and its sibling cells are killed;
* a backend that crashes or errors on a period it cannot express (the
  SAT backend only lowers feasibility formulations) loses **only its
  own (period, backend) cell** — the siblings keep racing, so the
  portfolio's verdict per period is as strong as its strongest member;
* the achieved period and proof flag are identical to any single
  backend's — only wall-clock changes, tracking whichever backend is
  fastest per period.

Losers are recorded as ``"cancelled"`` attempts tagged with their
backend, and :attr:`SchedulingResult.portfolio` carries the roster, the
winning backend and the race's kill/cancel counters.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Tuple

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

#: Backends a portfolio roster may name (``auto`` excluded on purpose —
#: a roster is exactly the set of *distinct* solvers to race).
PORTFOLIO_BACKENDS = ("highs", "bnb", "sat")


def default_jobs() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)


def default_portfolio(objective: str = "feasibility") -> Tuple[str, ...]:
    """The backends worth racing for ``objective`` on this interpreter.

    HiGHS joins only when scipy's MILP interface imports; the SAT
    backend joins only under the pure-feasibility objective (it lowers
    the presolved feasibility formulation, nothing else).  The built-in
    branch-and-bound is always present, so the roster is never empty.
    """
    roster: List[str] = []
    try:
        from scipy.optimize import milp  # noqa: F401

        roster.append("highs")
    except ImportError:
        pass
    roster.append("bnb")
    if objective == "feasibility":
        roster.append("sat")
    return tuple(roster)


def _validate_roster(
    backends: Sequence[str], objective: str
) -> Tuple[str, ...]:
    """Check a backend roster: known, distinct, able to solve ``objective``.

    The one validation behind ``backends=`` and the CLI's ``--backends``.
    """
    roster = tuple(backends)
    choices = ", ".join(PORTFOLIO_BACKENDS)
    if not roster:
        raise SchedulingError(
            f"a roster must name >= 1 backend: at least one backend "
            f"from {choices}"
        )
    for index, name in enumerate(roster):
        if name not in PORTFOLIO_BACKENDS:
            raise SchedulingError(
                f"unknown backend {name!r}; choose from: {choices}"
            )
        if name in roster[:index]:
            raise SchedulingError(
                f"the roster lists {name!r} twice; a roster is a set of "
                "distinct solvers to race"
            )
    if "sat" in roster and objective != "feasibility":
        raise SchedulingError(
            "the sat backend only solves the feasibility objective; "
            f"drop it from the roster or use objective='feasibility' "
            f"(got {objective!r})"
        )
    return roster


def resolve_roster(
    backend: str, backends: Optional[Sequence[str]], objective: str
) -> Tuple[str, Tuple[str, ...]]:
    """``(backend, roster)`` for a driver call.

    An explicit ``backends`` roster or ``backend="portfolio"`` names the
    solvers to race; a roster of two or more runs as ``"portfolio"``,
    and a roster of one is just that solver (empty roster).
    """
    roster: Tuple[str, ...] = ()
    if backends is not None:
        roster = _validate_roster(backends, objective)
    elif backend == "portfolio":
        roster = default_portfolio(objective)
    if len(roster) == 1:
        return roster[0], ()
    return ("portfolio" if roster else backend), roster


def race_periods(
    ddg: Ddg,
    machine: Machine,
    backend: str = "auto",
    objective: str = "feasibility",
    mapping: Optional[bool] = None,
    time_limit_per_t: Optional[float] = 30.0,
    max_extra: int = 10,
    verify: bool = True,
    repair_modulo: bool = False,
    presolve: bool = True,
    jobs: Optional[int] = None,
    window: Optional[int] = None,
    warmstart: bool = True,
    policy: Optional[SupervisionPolicy] = None,
    store=None,
    backends: Optional[Sequence[str]] = None,
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

    Every worker process self-serves a
    :class:`~repro.core.incremental.SweepContext` from its own
    per-process registry inside :func:`attempt_period` — nothing crosses
    a pickle boundary, and a worker handling several periods of the same
    loop reuses the shared analysis and banked cuts across them.

    ``backend="portfolio"`` (or an explicit ``backends`` roster) races
    every solver over every candidate period and takes the first
    verdict per period, killing the losers — see the module docstring.
    The achieved period, schedule validity and proof flag are the same
    as any single backend's; the backend column and the wall-clock are
    what change.  With ``jobs=1`` the portfolio is an ordered fallback
    chain per period: backends run in roster order until one settles
    the period, the rest are recorded cancelled.
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
    backend, roster = resolve_roster(backend, backends, objective)
    config = AttemptConfig(
        backend=backend,
        objective=objective,
        mapping=mapping,
        time_limit=time_limit_per_t,
        verify=verify,
        repair_modulo=repair_modulo,
        presolve=presolve,
        warmstart=warmstart,
    )
    if store is not None:
        from repro.store import open_store

        store = open_store(store)
    return run_sweep(
        ddg, machine, config, max_extra, store=store, roster=roster,
        workers=0 if jobs == 1 else jobs, window=window, policy=policy,
    )
