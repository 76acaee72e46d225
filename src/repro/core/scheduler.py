"""The rate-optimal scheduling driver (paper §6 procedure).

Computes ``T_lb = max(T_dep, T_res)``, then tries successive periods
(skipping those ruled out by the modulo scheduling constraint), building
and solving the unified ILP at each ``T`` under a per-period time budget.
The first feasible period yields a rate-optimal schedule *for fixed FU
assignment* — every smaller admissible period was proven infeasible.

The per-attempt body lives in :func:`attempt_period`, a module-level
function whose arguments and result are picklable.  :func:`run_sweep`
races it over period groups with :class:`repro.supervision.cells.CellRace`
— in-process here, across worker processes for
:func:`repro.parallel.race_periods` — so every driver shares one
prologue (store, bounds, heuristic), one dispatch loop and one
epilogue (settling, degrading, result assembly, store publish).

The per-attempt records feed the Table 4 / Table 5 experiment harness
(how many loops schedule at ``T_lb``, ``T_lb + 2``, ... and how much
solver time each took).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence

from repro.core import incremental
from repro.core.bounds import LowerBounds, lower_bounds, modulo_feasible_t
from repro.core.errors import SchedulingError
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.schedule import Schedule
from repro.core.verify import verify_schedule
from repro.core.warmstart import WarmStart, compute_warmstart, warmstart_assignment
from repro.ddg.graph import Ddg
from repro.ilp.solution import SolveStatus
from repro.machine import Machine
from repro.supervision import faults
from repro.supervision.cells import CLEAN, PROOF, WIN, Cell, CellRace, Group
from repro.supervision.records import (
    DEGRADED,
    FailureRecord,
    SupervisionPolicy,
)
from repro.supervision.signals import interrupted

#: Attempt status for a period satisfied by the heuristic schedule alone
#: (feasibility objective at the heuristic's II) — no ILP was built or
#: solved for it.
HEURISTIC = "heuristic"

#: Attempt status for a cell reaped before it reported: a portfolio
#: sibling of a settled period, or a period above the winner.
CANCELLED = "cancelled"

#: Statuses that settle a period as "no schedule exists here".
_PROOFS = (SolveStatus.INFEASIBLE.value, "modulo_infeasible")


@dataclass
class ScheduleAttempt:
    """One ILP solve at a candidate period."""

    t_period: int
    #: SolveStatus value, "modulo_infeasible", "heuristic", "cancelled",
    #: "degraded", or a supervision failure kind (crash/hang/oom/
    #: solver_error/interrupted) — in which case ``failure`` is set.
    status: str
    seconds: float = 0.0
    #: :class:`repro.ilp.model.ModelStats` as a plain dict (sizes,
    #: eliminated vars/rows/nnz, per-phase seconds) — kept a dict so the
    #: attempt pickles across worker processes and serializes to JSON.
    model_stats: Dict[str, float] = field(default_factory=dict)
    nodes: int = 0
    #: True when the period was admissible only after delay insertion.
    repaired: bool = False
    #: Best dual bound / relative gap the solver reported (populated on
    #: timed-out attempts so reports show how close they were).
    bound: Optional[float] = None
    gap: Optional[float] = None
    #: True when a heuristic-derived incumbent seeded this solve.
    warm_started: bool = False
    #: Terminal supervision failure (crash/hang/oom/solver_error/
    #: interrupted) that ended this attempt, after any retries.
    failure: Optional[FailureRecord] = None
    #: Which solver actually produced this attempt's verdict ("highs",
    #: "bnb", "sat"; "" for attempts that never reached a backend —
    #: modulo-infeasible, cut skips, heuristic settles, cancellations).
    #: Provenance only: never part of any cache or store fingerprint.
    backend: str = ""


@dataclass
class WarmStartStats:
    """What the heuristic pre-pass contributed to one loop's sweep."""

    enabled: bool
    heuristic_ii: Optional[int] = None
    heuristic_mii: Optional[int] = None
    heuristic_seconds: float = 0.0
    placements: int = 0
    #: ILP solves actually performed during the sweep (modulo-infeasible
    #: classifications and heuristic short-circuits don't count).
    ilp_solves: int = 0

    @property
    def skipped_all_ilp(self) -> bool:
        """The heuristic alone settled the loop — zero ILP solves."""
        return (self.enabled and self.heuristic_ii is not None
                and self.ilp_solves == 0)

    def to_json_dict(self) -> dict:
        return {
            "enabled": self.enabled,
            "heuristic_ii": self.heuristic_ii,
            "heuristic_mii": self.heuristic_mii,
            "heuristic_seconds": round(self.heuristic_seconds, 6),
            "placements": self.placements,
            "ilp_solves": self.ilp_solves,
            "skipped_all_ilp": self.skipped_all_ilp,
        }


@dataclass
class StoreStats:
    """What the persistent schedule store did for one loop's solve.

    Attached to :class:`SchedulingResult` whenever a store was consulted
    — both on hits (the sweep was skipped entirely) and on misses (the
    cold result was published back).  Lives here rather than in
    :mod:`repro.store` so the core result type has no store dependency.
    """

    enabled: bool
    #: Content address consulted (None when the store was disabled).
    key: Optional[str] = None
    hit: bool = False
    #: Which tier served the hit: ``"memory"`` or ``"disk"``.
    tier: Optional[str] = None
    #: The hit's schedule passed re-verification against the current
    #: machine (always True on a reported hit — failed verification
    #: demotes to a miss and sets ``evicted``).
    verified: bool = False
    #: A candidate entry was found but failed validation and was removed.
    evicted: bool = False
    #: This solve's result was written back to the store.
    published: bool = False
    #: Wall-clock spent on store lookup (canonicalization + read + verify).
    seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "hit": self.hit,
            "tier": self.tier,
            "verified": self.verified,
            "evicted": self.evicted,
            "published": self.published,
            "seconds": round(self.seconds, 6),
        }


@dataclass
class SchedulingResult:
    """Outcome of :func:`schedule_loop`."""

    loop_name: str
    bounds: LowerBounds
    attempts: List[ScheduleAttempt]
    schedule: Optional[Schedule] = None
    total_seconds: float = 0.0
    #: Heuristic pre-pass record (None when the driver predates it).
    warmstart: Optional[WarmStartStats] = None
    #: True when the loop settled to its best-known incumbent because
    #: solves failed or the run was interrupted — the result is usable
    #: but weaker than a clean sweep (no optimality claims).
    degraded: bool = False
    #: Persistent-store interaction record (None when no store was used).
    store: Optional[StoreStats] = None
    #: Portfolio-race bookkeeping (None for single-backend runs): the
    #: backend roster, the winning backend, and loser kill/cancel
    #: counters (see :func:`repro.parallel.race_periods`).
    portfolio: Optional[Dict[str, object]] = None

    @property
    def achieved_t(self) -> Optional[int]:
        return self.schedule.t_period if self.schedule else None

    @property
    def is_rate_optimal_proven(self) -> bool:
        """Schedule found and every smaller admissible T proven infeasible.

        Judged per period, not per attempt: a period below the winner
        counts as settled when *any* attempt at it proved infeasibility
        (solver INFEASIBLE, a recycled cut, or the modulo-admissibility
        check).  Portfolio races legitimately leave extra attempts at a
        settled period — cancelled losers, timed-out stragglers — and
        those must not retract a proof a sibling backend already
        delivered.  Every period in ``[t_lb, T)`` must carry a proof;
        a gap (no attempt at all, or only non-proof attempts) means the
        claim would be unsupported.
        """
        if self.schedule is None:
            return False
        proven = {
            attempt.t_period
            for attempt in self.attempts
            if attempt.status in _PROOFS
        }
        return all(
            t in proven
            for t in range(self.bounds.t_lb, self.schedule.t_period)
        )

    @property
    def delta_from_lb(self) -> Optional[int]:
        """``T - T_lb`` — the quantity Table 4 buckets loops by."""
        if self.schedule is None:
            return None
        return self.schedule.t_period - self.bounds.t_lb

    def lost_cells(self) -> List[Dict[str, object]]:
        """Provenance of every period cell that died without a verdict.

        A degraded settle means some ``(T, backend)`` cells never
        produced feasible/infeasible: they crashed, hung, OOMed, raised,
        were interrupted, or were cancelled as portfolio losers.  Each
        such attempt yields ``{"t", "backend", "kind", "detail"}`` —
        ``kind`` is the supervision failure taxonomy kind, or
        ``"cancelled"`` for reaped losers (detail empty).  Order follows
        the attempt list, so reports stay deterministic.
        """
        lost: List[Dict[str, object]] = []
        for attempt in self.attempts:
            if attempt.failure is not None:
                lost.append({
                    "t": attempt.t_period,
                    "backend": attempt.backend,
                    "kind": attempt.failure.kind,
                    "detail": attempt.failure.detail,
                })
            elif attempt.status == "cancelled":
                lost.append({
                    "t": attempt.t_period,
                    "backend": attempt.backend,
                    "kind": "cancelled",
                    "detail": "",
                })
        return lost

    def summary(self) -> str:
        t_found = self.achieved_t if self.schedule else "none"
        return (
            f"{self.loop_name}: T_dep={self.bounds.t_dep} "
            f"T_res={self.bounds.t_res} T_lb={self.bounds.t_lb} "
            f"-> T={t_found} ({self.total_seconds:.2f}s, "
            f"{len(self.attempts)} attempt(s))"
        )


@dataclass(frozen=True)
class AttemptConfig:
    """Per-attempt knobs shared by the sequential and parallel drivers.

    Frozen and free of live objects so it pickles cleanly into worker
    processes.
    """

    backend: str = "auto"
    objective: str = "feasibility"
    mapping: Optional[bool] = None
    time_limit: Optional[float] = 30.0
    verify: bool = True
    repair_modulo: bool = False
    presolve: bool = True
    #: Run the iterative-modulo heuristic first and use its schedule to
    #: bracket the sweep / seed the solver (see repro.core.warmstart).
    warmstart: bool = True


@dataclass
class AttemptOutcome:
    """What one call to :func:`attempt_period` produced."""

    attempt: ScheduleAttempt
    schedule: Optional[Schedule] = None


def attempt_period(
    ddg: Ddg,
    machine: Machine,
    t_period: int,
    config: Optional[AttemptConfig] = None,
    incumbent: Optional[Schedule] = None,
    context=None,
) -> AttemptOutcome:
    """Run the §6 procedure's body for one candidate period.

    Checks the modulo scheduling constraint (optionally repairing via
    delay insertion), builds and solves the unified ILP, and extracts +
    verifies a schedule when the solve is feasible.  Both
    :func:`schedule_loop` and :func:`repro.parallel.race.race_periods`
    funnel through here, which is what keeps their results identical.

    ``incumbent`` is an already-verified schedule at this exact period
    (normally the heuristic's); it is converted into a full variable
    assignment and handed to the solver as its starting incumbent.  A
    schedule that cannot be converted — wrong period, machine repaired
    by delay insertion, or any row of the built model unsatisfied — is
    silently dropped and the solve runs cold.

    ``context`` is the loop's :class:`~repro.core.incremental.SweepContext`
    (the sequential sweep fetches one and passes it down); when omitted
    the per-process registry self-serves it, which is how each race /
    supervised worker process gets its own without anything crossing a
    pickle boundary.  Reuse is outcome-identical: the context-fed build
    is byte-identical to a cold one, and a cut fires only where the cold
    path deterministically returns INFEASIBLE.  Before building, the
    context's cut pool is consulted: a certificate covering this attempt
    returns INFEASIBLE immediately, with ``model_stats["cut_skip"]``
    naming the cut kind.  After an infeasible attempt, the verdict is
    harvested back into the pool.  Without ``presolve`` there is no
    context (the cut validity arguments lean on presolve's checks) and
    every attempt builds cold.
    """
    config = config or AttemptConfig()
    faults.fire("attempt", loop=ddg.name, t=t_period,
                backend=config.backend)
    attempt_machine = machine
    repaired = False
    if not modulo_feasible_t(ddg, machine, t_period):
        patched = None
        if config.repair_modulo:
            from repro.machine.delays import delayed_machine

            patched = delayed_machine(machine, t_period)
        if patched is None:
            return AttemptOutcome(
                ScheduleAttempt(t_period=t_period, status="modulo_infeasible")
            )
        attempt_machine = patched
        repaired = True
    if not config.presolve:
        context = None
    elif context is None:
        context = incremental.context_for(ddg, machine)
    machine_key: Optional[str] = None
    if context is not None:
        if repaired:
            machine_key = incremental.machine_digest(attempt_machine)
        else:
            machine_key = context.base_machine_key
        kind = context.cuts.consult(
            machine_key, t_period, config.objective, None, config.mapping
        )
        if kind is not None:
            return AttemptOutcome(
                ScheduleAttempt(
                    t_period=t_period,
                    status=SolveStatus.INFEASIBLE.value,
                    repaired=repaired,
                    model_stats={"cut_skip": kind},
                )
            )
    options = FormulationOptions(
        mapping=config.mapping, objective=config.objective,
        presolve=config.presolve,
    )
    formulation = Formulation(
        ddg, attempt_machine, t_period, options, context=context
    )
    formulation.build()
    mip_start = None
    if (incumbent is not None and not repaired
            and incumbent.t_period == t_period):
        mip_start = warmstart_assignment(formulation, incumbent)
    solution = formulation.solve(
        backend=config.backend, time_limit=config.time_limit,
        mip_start=mip_start,
    )
    schedule: Optional[Schedule] = None
    verify_seconds = 0.0
    if solution.status.has_solution:
        require_mapping = config.mapping is not False
        schedule = formulation.extract(
            solution, require_mapping=require_mapping
        )
        if config.verify:
            verify_start = time.monotonic()
            verify_schedule(schedule, check_mapping=require_mapping)
            verify_seconds = time.monotonic() - verify_start
    if context is not None and machine_key is not None:
        _harvest_cuts(
            context, machine_key, formulation, solution, t_period, config
        )
    stats = formulation.model_stats.to_dict()
    stats["lower_seconds"] = solution.lower_seconds
    stats["solve_seconds"] = solution.solve_seconds
    stats["verify_seconds"] = verify_seconds
    stats["total_seconds"] = (
        stats["presolve_seconds"] + stats["build_seconds"]
        + solution.solve_seconds + verify_seconds
    )
    # Backend-specific phase counters (the SAT backend's encode/search/
    # decode split, learned-clause counts, ...) ride along so `repro
    # profile` can break attempts down per backend.
    stats.update(solution.stats)
    if solution.time_limit_clamped:
        stats["effective_time_limit"] = solution.effective_time_limit
        stats["time_limit_clamped"] = 1.0
    attempt = ScheduleAttempt(
        t_period=t_period,
        status=solution.status.value,
        seconds=solution.solve_seconds,
        model_stats=stats,
        nodes=solution.nodes,
        repaired=repaired,
        bound=solution.bound,
        gap=solution.gap,
        warm_started=mip_start is not None,
        backend=solution.backend,
    )
    return AttemptOutcome(attempt=attempt, schedule=schedule)


def _harvest_cuts(
    context,
    machine_key: str,
    formulation: Formulation,
    solution,
    t_period: int,
    config: AttemptConfig,
) -> None:
    """Bank this attempt's infeasibility evidence into the cut pool.

    A presolve-proven verdict also certifies the machine's dependence
    and capacity floors (both properties of the (ddg, machine) pair, not
    of the period that exposed them); a solver-completed INFEASIBLE is
    memoized for exact-tuple replay only.
    """
    info = formulation.presolve_info
    if info is not None and info.infeasible:
        context.cuts.memoize_infeasible(
            machine_key, t_period, config.objective, None, config.mapping,
            source="presolve",
        )
        analysis = formulation.analysis
        if analysis is not None:
            context.cuts.assert_floor(
                incremental.CYCLE_FLOOR, machine_key, analysis.t_dep()
            )
            context.cuts.assert_floor(
                incremental.CAPACITY_FLOOR, machine_key,
                analysis.t_res_floor,
            )
    elif solution.status is SolveStatus.INFEASIBLE:
        context.cuts.memoize_infeasible(
            machine_key, t_period, config.objective, None, config.mapping,
            source="solver",
        )


def init_solver_budget(time_budget: Optional[float]) -> None:
    """Worker initializer: cap every solve in this worker process."""
    from repro.ilp import solve as solve_module

    solve_module.set_process_time_budget(time_budget)


def _period_verdict(outcome: AttemptOutcome) -> int:
    if outcome.schedule is not None:
        return WIN
    return PROOF if outcome.attempt.status in _PROOFS else CLEAN


def _cell_attempt(cell, t_period: int, label: str) -> ScheduleAttempt:
    """The attempt-log record of one accounted-for period cell."""
    if cell.failure is not None:
        return ScheduleAttempt(
            t_period=t_period, status=cell.failure.kind,
            seconds=cell.failure.elapsed, failure=cell.failure,
            backend=label,
        )
    if cell.result is None:
        return ScheduleAttempt(
            t_period=t_period, status=CANCELLED, backend=label
        )
    attempt = cell.result.attempt
    if label and not attempt.backend:
        attempt.backend = label
    return attempt


def run_sweep(
    ddg: Ddg,
    machine: Machine,
    config: AttemptConfig,
    max_extra: int,
    store=None,
    roster: Sequence[str] = (),
    workers: int = 0,
    window: Optional[int] = 1,
    policy: Optional[SupervisionPolicy] = None,
) -> SchedulingResult:
    """The §6 increasing-T sweep, as one cell race over period groups.

    Shared by :func:`schedule_loop`, :func:`repro.parallel.race_periods`
    and the batch/serve worker bodies.  With warm starts enabled
    the heuristic runs first; its achieved II caps the candidate range
    from above, settles its own period outright under the feasibility
    objective (status ``"heuristic"``, no ILP), and seeds the solver's
    incumbent otherwise.

    Each candidate period is a group of cells, one per ``roster``
    backend (the config's own backend when the roster is empty), raced
    by :class:`repro.supervision.cells.CellRace`: ``workers=0`` runs them
    in-process, ``workers>=1`` in a supervised pool under ``policy``
    with at most ``window`` cells in flight (in-process too when the
    window is wider than 1 and at most one period needs a solve).
    ``window=1`` is the plain §6 loop — a win ends the sweep — whichever
    the worker count.  A
    roster of two or more is a portfolio: attempts carry their backend
    and the result a ``portfolio`` record.

    A cell lost to a crash, hang, OOM or solver error is recorded and
    the sweep goes on; a win above a lost period is ``degraded``.  When
    no period wins but the heuristic holds a verified schedule and its
    own period was lost (or the run was interrupted), the sweep settles
    to that schedule instead of raising: a ``"degraded"`` attempt
    replaces that period's record and carries its failure.

    ``store`` (a :class:`repro.store.ScheduleStore`) short-circuits the
    entire sweep — heuristic pre-pass included — when a verified entry
    for this (loop, machine, semantics) content address exists, and
    publishes the result back on a clean cold solve.  Store misses cost
    one canonicalization + file probe; hits are re-verified against the
    current machine before being trusted (see ``docs/performance.md``).
    """
    start_clock = time.monotonic()
    store_stats: Optional[StoreStats] = None
    if store is not None:
        from repro.store.tiering import lookup as store_lookup

        stored, store_stats = store_lookup(
            store, ddg, machine, config, max_extra
        )
        if stored is not None:
            stored.store = store_stats
            stored.total_seconds = time.monotonic() - start_clock
            return stored
    bounds = lower_bounds(ddg, machine)
    context = None
    if config.presolve and workers == 0:
        # One context serves the whole in-process sweep; pool workers
        # can't take it across the pickle boundary — they self-serve
        # from the per-process registry inside attempt_period.
        context = incremental.context_for(ddg, machine)
    ws: Optional[WarmStart] = None
    ws_stats = WarmStartStats(enabled=False)
    if config.warmstart and config.mapping is not False:
        # Never under the counting-only relaxation (mapping=False): the
        # heuristic solves the *mapped* problem, whose answers must not
        # leak into an experiment about the unmapped one.
        ws = compute_warmstart(ddg, machine, max_extra)
        ws_stats = WarmStartStats(
            enabled=True, heuristic_ii=ws.ii, heuristic_mii=ws.mii,
            heuristic_seconds=ws.seconds, placements=ws.placements,
        )
    roster = tuple(roster) or (config.backend,)
    portfolio = len(roster) > 1
    configs = [
        (name, replace(config, backend=name) if portfolio else config)
        for name in roster
    ]
    upper = bounds.t_lb + max_extra
    if ws is not None and ws.ii is not None:
        upper = min(upper, ws.ii)
    groups: List[Group] = []

    def period_groups():
        for t_period in range(bounds.t_lb, upper + 1):
            at_heuristic_ii = ws is not None and ws.ii == t_period
            if at_heuristic_ii and config.objective == "feasibility":
                # Any feasible point is optimal for pure feasibility,
                # and the heuristic already delivered a verified one.
                cells = [Cell("", result=AttemptOutcome(ScheduleAttempt(
                    t_period=t_period, status=HEURISTIC, warm_started=True,
                ), ws.schedule))]
            elif not config.repair_modulo and not modulo_feasible_t(
                ddg, machine, t_period
            ):
                cells = [Cell("", result=AttemptOutcome(ScheduleAttempt(
                    t_period=t_period, status="modulo_infeasible"
                )))]
            else:
                kwargs = {
                    "incumbent": ws.schedule if at_heuristic_ii else None
                }
                if workers == 0:
                    kwargs["context"] = context
                cells = [
                    Cell(name, attempt_period,
                         (ddg, machine, t_period, cfg), kwargs)
                    for name, cfg in configs
                ]
            groups.append(Group(t_period, cells, _period_verdict,
                                period=True))
            yield groups[-1]

    feed = period_groups()
    if window != 1:
        # Every group is admitted up front anyway.  With at most one
        # solve among them a worker pool would only add its start-up:
        # run that solve here.
        feed = list(feed)
        if sum(c.fn is not None for g in feed for c in g.cells) <= 1:
            workers = 0
    policy = policy or SupervisionPolicy()
    race = CellRace(
        workers=workers, window=window, policy=policy,
        deadline=(policy.deadline if policy.deadline is not None
                  else config.time_limit),
        initializer=init_solver_budget, initargs=(config.time_limit,),
    )
    with race:
        race.add(feed)
        for _ in race.run():
            pass

    winner = None  # the cell that won the smallest period
    lost_below = False  # a period below it was lost to a failure
    for group in groups:
        rep = group.rep
        if rep is not None and rep.verdict == WIN:
            winner = rep
            break
        if rep is not None and rep.failure is not None:
            lost_below = True
    settled = winner.result.attempt if winner is not None else None
    schedule = winner.result.schedule if winner is not None else None
    degraded = winner is not None and lost_below
    replaced = None  # the record a degraded settle stands in for
    if winner is None and ws is not None and ws.schedule is not None:
        at_ii = [c for g in groups if g.key == ws.ii for c in g.cells
                 if c.verdict is not None]
        replaced = min(at_ii, key=lambda c: (c.verdict, c.name),
                       default=None)
        if interrupted() or (replaced is not None
                             and replaced.failure is not None):
            # Every solve at the heuristic's period was lost to a
            # crash/hang/interrupt, but the heuristic schedule itself is
            # verified: settle to it rather than report nothing.  The
            # degraded record replaces that period's representative and
            # carries its failure.
            settled = ScheduleAttempt(
                t_period=ws.ii, status=DEGRADED, warm_started=True,
                failure=replaced.failure if replaced is not None else None,
            )
            schedule = ws.schedule
            degraded = True
        else:
            replaced = None
    attempts: List[ScheduleAttempt] = [
        settled if cell is replaced
        else _cell_attempt(cell, group.key, cell.name if portfolio else "")
        for group in groups for cell in group.cells
        if cell.verdict is not None
    ]
    if degraded and replaced is None and winner is None:
        attempts.append(settled)
    # Cells of one period are logged in backend order, so the log is
    # deterministic whatever order the race settled them in.
    attempts.sort(key=lambda a: (a.t_period, a.backend))
    if schedule is None and not attempts and not interrupted():
        raise SchedulingError(
            f"no candidate periods for loop {ddg.name!r} "
            f"(T_lb={bounds.t_lb}, max_extra={max_extra})"
        )
    ws_stats.ilp_solves = sum(
        1 for a in attempts
        if a.status not in ("modulo_infeasible", HEURISTIC, CANCELLED,
                            DEGRADED)
        and a.failure is None
    )
    portfolio_stats = None
    if portfolio:
        portfolio_stats = {
            "backends": list(roster),
            # The backend that produced the winning attempt; falls back
            # to the status label for wins no solver produced (a
            # heuristic settle or a degraded incumbent).
            "winner_backend": (
                (settled.backend or settled.status)
                if settled is not None else None
            ),
            "killed_running": sum(g.killed_running for g in groups),
            "cancelled_queued": sum(g.cancelled_queued for g in groups),
        }
    result = SchedulingResult(
        loop_name=ddg.name,
        bounds=bounds,
        attempts=attempts,
        schedule=schedule,
        total_seconds=time.monotonic() - start_clock,
        warmstart=ws_stats,
        degraded=degraded,
        store=store_stats,
        portfolio=portfolio_stats,
    )
    if store is not None:
        from repro.store.tiering import publish as store_publish

        store_publish(
            store, ddg, machine, config, max_extra, result,
            stats=store_stats,
        )
    return result


def schedule_loop(
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
    warmstart: bool = True,
    supervision=None,
    store=None,
) -> SchedulingResult:
    """Find a rate-optimal software-pipelined schedule for ``ddg``.

    Tries ``T = T_lb .. T_lb + max_extra``; periods violating the modulo
    scheduling constraint are recorded as skipped — unless
    ``repair_modulo`` is set, in which case delay insertion
    (:func:`repro.machine.delays.delayed_machine`) is attempted first:
    the period becomes admissible on a patched machine at the price of
    longer latencies (the paper's §3 out-of-scope case, experiment E16).
    Raises :class:`SchedulingError` only for structurally impossible
    inputs; a loop that simply exhausts its budget returns a result with
    ``schedule=None`` (the paper's "not scheduled within the time limit"
    bucket).

    With ``warmstart`` (the default) the iterative modulo scheduler runs
    first; when it achieves ``II == T_lb`` the loop is settled with zero
    ILP solves, and otherwise its schedule brackets and seeds the sweep.

    ``supervision`` (a :class:`repro.supervision.SupervisionPolicy`)
    ships each per-period solve to one deadline/memory-guarded worker
    process (the cell race with one worker and window 1); crashes,
    hangs and OOMs then surface as per-attempt
    :class:`~repro.supervision.records.FailureRecord` data and the sweep
    degrades gracefully instead of dying (see ``docs/robustness.md``).

    ``store`` (a :class:`repro.store.ScheduleStore` or a path accepted
    by :func:`repro.store.open_store`) consults the persistent schedule
    store before doing any work and publishes clean results back.

    With ``presolve`` (the default) a
    :class:`~repro.core.incremental.SweepContext` is carried across the
    sweep — shared T-independent analysis plus recycled infeasibility
    cuts; see ``docs/performance.md``.
    """
    if backend == "portfolio":
        raise SchedulingError(
            "backend='portfolio' races several backends per period and "
            "needs a racing driver: use repro.parallel.race_periods(..., "
            "backend='portfolio') or repro.parallel.run_batch(..., "
            "backend='portfolio') instead of schedule_loop"
        )
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
    if supervision is None:
        return run_sweep(ddg, machine, config, max_extra, store=store)
    return run_sweep(
        ddg, machine, config, max_extra, store=store,
        workers=1, window=1, policy=supervision,
    )
