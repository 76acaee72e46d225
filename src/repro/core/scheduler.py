"""The rate-optimal scheduling driver (paper §6 procedure).

Computes ``T_lb = max(T_dep, T_res)``, then tries successive periods
(skipping those ruled out by the modulo scheduling constraint), building
and solving the unified ILP at each ``T`` under a per-period time budget.
The first feasible period yields a rate-optimal schedule *for fixed FU
assignment* — every smaller admissible period was proven infeasible.

The per-attempt body lives in :func:`attempt_period`, a module-level
function whose arguments and result are picklable.  :func:`run_sweep`
races it over period cells with :class:`repro.supervision.cells.CellRace`
— in-process, or across ``jobs`` worker processes — so every driver
shares one prologue (store, bounds, heuristic), one dispatch loop and
one epilogue (settling, degrading, result assembly, store publish).

The per-attempt records feed the Table 4 / Table 5 experiment harness
(how many loops schedule at ``T_lb``, ``T_lb + 2``, ... and how much
solver time each took).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

from repro.core.bounds import LowerBounds, lower_bounds, modulo_feasible_t
from repro.core.errors import SchedulingError
from repro.core.formulation import (
    BACKENDS, OBJECTIVES, Formulation, FormulationOptions, resolve_backend,
)
from repro.core.schedule import Schedule
from repro.core.verify import verify_schedule
from repro.core.warmstart import WarmStart, compute_warmstart, warmstart_assignment
from repro.ddg.graph import Ddg
from repro.ilp.errors import SolverError
from repro.ilp.solution import SolveStatus
from repro.ilp.solve import _validate_time_limit
from repro.machine import Machine
from repro.supervision import faults
from repro.supervision.cells import CLEAN, PROOF, WIN, Cell, CellRace
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

#: Attempt status for a period cell reaped before it reported: a
#: period above the winner.
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
    #: A period presolve ruled out also carries ``presolve_reason``.
    model_stats: Dict[str, Union[float, str]] = field(default_factory=dict)
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
    #: "sat"; "" for attempts that never reached a backend —
    #: modulo-infeasible, ruled out by presolve, heuristic settles,
    #: cancellations).
    #: Older reports may name a backend that has since been deleted.
    #: Provenance only: never part of any cache or store fingerprint.
    backend: str = ""

    def to_json_dict(self) -> dict:
        doc = {
            "t": self.t_period,
            "status": self.status,
            "backend": self.backend,
            "seconds": round(self.seconds, 6),
            "nodes": self.nodes,
            "repaired": self.repaired,
            "bound": self.bound,
            # inf gap (bound but no incumbent) is not valid JSON; write
            # it as null.
            "gap": (
                self.gap
                if self.gap is not None and math.isfinite(self.gap)
                else None
            ),
            "warm_started": self.warm_started,
            "model": {
                key: (round(value, 6) if isinstance(value, float) else value)
                for key, value in self.model_stats.items()
            },
        }
        if self.failure is not None:
            doc["failure"] = self.failure.to_json_dict()
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ScheduleAttempt":
        failure = doc.get("failure")
        return cls(
            t_period=int(doc["t"]),
            status=str(doc["status"]),
            seconds=float(doc.get("seconds", 0.0)),
            model_stats=dict(doc.get("model") or {}),
            nodes=int(doc.get("nodes", 0)),
            repaired=bool(doc.get("repaired", False)),
            bound=doc.get("bound"),
            gap=doc.get("gap"),
            warm_started=bool(doc.get("warm_started", False)),
            failure=(
                FailureRecord.from_json_dict(failure)
                if failure is not None else None
            ),
            backend=str(doc.get("backend", "")),
        )


@dataclass
class WarmStartStats:
    """What the heuristic pre-pass contributed to one loop's sweep."""

    enabled: bool
    heuristic_ii: Optional[int] = None
    heuristic_mii: Optional[int] = None
    heuristic_seconds: float = 0.0
    placements: int = 0
    #: Attempts that reached a backend (``attempt.backend`` set);
    #: modulo-infeasible periods, periods presolve ruled out, heuristic
    #: settles, cancellations and lost cells don't count.
    ilp_solves: int = 0

    @property
    def skipped_all_ilp(self) -> bool:
        """The heuristic settled the loop without any backend solve."""
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

    @classmethod
    def from_json_dict(cls, doc: dict) -> "WarmStartStats":
        return cls(
            enabled=bool(doc.get("enabled", False)),
            heuristic_ii=doc.get("heuristic_ii"),
            heuristic_mii=doc.get("heuristic_mii"),
            heuristic_seconds=float(doc.get("heuristic_seconds", 0.0)),
            placements=int(doc.get("placements", 0)),
            ilp_solves=int(doc.get("ilp_solves", 0)),
        )


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

    @property
    def achieved_t(self) -> Optional[int]:
        return self.schedule.t_period if self.schedule else None

    @property
    def is_rate_optimal_proven(self) -> bool:
        """Schedule found and every smaller admissible T proven infeasible.

        Every period in ``[t_lb, T)`` must carry a proof — the
        modulo-admissibility check, presolve's reason
        (``model_stats["presolve_reason"]``) or a solver's INFEASIBLE;
        a gap (no attempt at all, or a non-proof one) means the claim
        would be unsupported.
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

        A degraded settle means some period cells never produced
        feasible/infeasible: they crashed, hung, OOMed, raised, were
        interrupted, or were cancelled above a win.  Each such attempt
        yields ``{"t", "backend", "kind", "detail"}`` — ``kind`` is the
        supervision failure taxonomy kind, or ``"cancelled"`` for
        reaped cells (detail empty).  Order follows the attempt list,
        so reports stay deterministic.
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

    def to_json_dict(self) -> dict:
        """The result's one JSON form: report and journal entries,
        serve answers and store entries all carry it."""
        doc = {
            "t_dep": self.bounds.t_dep,
            "t_res": self.bounds.t_res,
            "t_lb": self.bounds.t_lb,
            "achieved_t": self.achieved_t,
            "delta_from_lb": self.delta_from_lb,
            "is_rate_optimal_proven": self.is_rate_optimal_proven,
            "degraded": self.degraded,
            "seconds": round(self.total_seconds, 6),
            "attempts": [attempt.to_json_dict() for attempt in self.attempts],
        }
        if self.degraded:
            doc["lost_cells"] = self.lost_cells()
        if self.warmstart is not None:
            doc["warmstart"] = self.warmstart.to_json_dict()
        if self.store is not None:
            doc["store"] = self.store.to_json_dict()
        if self.schedule is not None:
            doc["schedule"] = self.schedule.to_dict()
        return doc

    @classmethod
    def from_json_dict(
        cls, doc: dict, schedule: Optional[Schedule]
    ) -> "SchedulingResult":
        """Rebuild a result from :meth:`to_json_dict` around ``schedule``.

        The schedule is rebuilt by the caller, which knows the loop and
        machine it belongs to.  Derived keys and the per-run ``store``
        record are not read back.
        """
        warmstart = doc.get("warmstart")
        return cls(
            loop_name=schedule.ddg.name if schedule is not None else "",
            bounds=LowerBounds(
                t_dep=int(doc["t_dep"]), t_res=int(doc["t_res"])
            ),
            attempts=[
                ScheduleAttempt.from_json_dict(a) for a in doc["attempts"]
            ],
            schedule=schedule,
            total_seconds=float(doc.get("seconds", 0.0)),
            warmstart=(
                WarmStartStats.from_json_dict(warmstart)
                if warmstart is not None else None
            ),
            degraded=bool(doc.get("degraded", False)),
        )

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
    repair_modulo: bool = False
    #: Run the iterative-modulo heuristic first and use its schedule to
    #: bracket the sweep / seed the solver (see repro.core.warmstart).
    warmstart: bool = True

    def __post_init__(self) -> None:
        """Reject a config no solver could run, before any work starts.

        Checked here rather than at solve time because a warm start or
        a store hit can settle a loop before any solver is asked.
        """
        if self.backend not in BACKENDS:
            raise SchedulingError(
                f"unknown backend {self.backend!r}; expected one of "
                f"{BACKENDS}"
            )
        if self.objective not in OBJECTIVES:
            raise SchedulingError(
                f"unknown objective {self.objective!r}; expected one of "
                f"{OBJECTIVES}"
            )
        if self.backend == "sat" and self.objective != "feasibility":
            raise SchedulingError(
                "the sat backend only solves the feasibility objective "
                f"(got {self.objective!r}); use an ILP backend"
            )
        if self.time_limit is not None:
            try:
                _validate_time_limit(self.time_limit)
            except SolverError as exc:
                raise SchedulingError(str(exc)) from None


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
) -> AttemptOutcome:
    """Run the §6 procedure's body for one candidate period.

    Checks the modulo scheduling constraint (optionally repairing via
    delay insertion), solves the unified formulation on the config's
    backend (:meth:`Formulation.solve`), and extracts + verifies a
    schedule when the solve is feasible.  Every period cell
    of :func:`run_sweep` funnels through here, whichever its dispatch,
    which is what keeps the in-process and raced sweeps identical.

    ``incumbent`` is an already-verified schedule at this exact period
    (normally the heuristic's); it is converted into a full variable
    assignment and handed to HiGHS as its starting incumbent (the sweep
    passes one only under objectives beyond feasibility, which the SAT
    backend does not solve).  A schedule that cannot be converted — wrong period, machine repaired
    by delay insertion, or any row of the built model unsatisfied — is
    silently dropped and the solve runs cold.

    The model is built from ``(ddg, machine, t_period)`` alone, as in the
    paper: nothing carries over from earlier attempts, so the outcome
    does not depend on what the process solved before.
    """
    config = config or AttemptConfig()
    faults.fire("attempt", loop=ddg.name, t=t_period,
                backend=resolve_backend(config.backend, config.objective))
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
    options = FormulationOptions(
        mapping=config.mapping, objective=config.objective
    )
    formulation = Formulation(ddg, attempt_machine, t_period, options)
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
        verify_start = time.monotonic()
        verify_schedule(schedule, check_mapping=require_mapping)
        verify_seconds = time.monotonic() - verify_start
    stats = formulation.model_stats.to_dict()
    if formulation.ruled_out:
        stats["presolve_reason"] = formulation.ruled_out
    stats["lower_seconds"] = solution.lower_seconds
    stats["solve_seconds"] = solution.solve_seconds
    stats["verify_seconds"] = verify_seconds
    stats["total_seconds"] = (
        stats["presolve_seconds"] + stats["build_seconds"]
        + solution.solve_seconds + verify_seconds
    )
    # Backend-specific phase counters (the SAT backend's encode/search/
    # decode split, learned-clause counts, ...) ride along so reports
    # can break attempts down per backend.
    stats.update(solution.stats)
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


def _period_verdict(outcome: AttemptOutcome) -> int:
    if outcome.schedule is not None:
        return WIN
    return PROOF if outcome.attempt.status in _PROOFS else CLEAN


def _cell_attempt(cell: Cell) -> ScheduleAttempt:
    """The attempt-log record of one accounted-for period cell."""
    if cell.failure is not None:
        return ScheduleAttempt(
            t_period=cell.key, status=cell.failure.kind,
            seconds=cell.failure.elapsed, failure=cell.failure,
        )
    if cell.result is None:
        return ScheduleAttempt(t_period=cell.key, status=CANCELLED)
    return cell.result.attempt


def run_sweep(
    ddg: Ddg,
    machine: Machine,
    config: AttemptConfig,
    max_extra: int,
    store=None,
    jobs: int = 1,
    policy: Optional[SupervisionPolicy] = None,
) -> SchedulingResult:
    """The §6 increasing-T sweep, as one cell race over periods.

    Shared by :func:`schedule_loop` and the batch/serve worker bodies.
    With warm starts enabled
    the heuristic runs first; its achieved II caps the candidate range
    from above, settles its own period outright under the feasibility
    objective (status ``"heuristic"``, no ILP), and seeds the solver's
    incumbent otherwise.

    Each candidate period is one cell on the config's backend, raced by
    :class:`repro.supervision.cells.CellRace`.  ``jobs`` and ``policy``
    pick the dispatch, here and nowhere else:

    * ``jobs=1`` without a policy runs the cells in this process, one
      at a time — the plain §6 loop, where a win ends the sweep;
    * ``jobs=1`` with a policy runs the same loop on one supervised
      worker under that policy (window 1);
    * ``jobs=N>1`` races the cells on N supervised workers with at
      most 2N in flight, in-process instead when at most one period
      needs a solve.

    A cell lost to a crash, hang, OOM or solver error is recorded and
    the sweep goes on; a win above a lost period is ``degraded``.  When
    no period wins but the heuristic holds a verified schedule and its
    own period was lost (or the run was interrupted), the sweep settles
    to that schedule instead of raising: a ``"degraded"`` attempt
    replaces that period's record and carries its failure.

    ``store`` (a :class:`repro.store.ScheduleStore` or a path accepted
    by :func:`repro.store.open_store`) short-circuits the
    entire sweep — heuristic pre-pass included — when a verified entry
    for this (loop, machine, semantics) content address exists, and
    publishes the result back on a clean cold solve.  Store misses cost
    one canonicalization + file probe; hits are re-verified against the
    current machine before being trusted (see ``docs/performance.md``).
    """
    if max_extra < 0:
        raise SchedulingError(f"max_extra must be >= 0, got {max_extra}")
    if jobs < 1:
        raise SchedulingError(f"jobs must be >= 1, got {jobs}")
    start_clock = time.monotonic()
    store_stats: Optional[StoreStats] = None
    if store is not None:
        from repro.store import open_store
        from repro.store.tiering import lookup as store_lookup

        store = open_store(store)
        stored, store_stats = store_lookup(
            store, ddg, machine, config, max_extra
        )
        if stored is not None:
            stored.store = store_stats
            stored.total_seconds = time.monotonic() - start_clock
            return stored
    bounds = lower_bounds(ddg, machine)
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
    upper = bounds.t_lb + max_extra
    if ws is not None and ws.ii is not None:
        upper = min(upper, ws.ii)
    cells: List[Cell] = []

    def period_cells():
        for t_period in range(bounds.t_lb, upper + 1):
            at_heuristic_ii = ws is not None and ws.ii == t_period
            if at_heuristic_ii and config.objective == "feasibility":
                # Any feasible point is optimal for pure feasibility,
                # and the heuristic already delivered a verified one.
                cell = Cell(t_period, _period_verdict, period=True,
                            result=AttemptOutcome(ScheduleAttempt(
                                t_period=t_period, status=HEURISTIC,
                                warm_started=True,
                            ), ws.schedule))
            elif not config.repair_modulo and not modulo_feasible_t(
                ddg, machine, t_period
            ):
                cell = Cell(t_period, _period_verdict, period=True,
                            result=AttemptOutcome(ScheduleAttempt(
                                t_period=t_period,
                                status="modulo_infeasible",
                            )))
            else:
                kwargs = {
                    "incumbent": ws.schedule if at_heuristic_ii else None
                }
                cell = Cell(t_period, _period_verdict, attempt_period,
                            (ddg, machine, t_period, config), kwargs,
                            period=True)
            cells.append(cell)
            yield cell

    feed = period_cells()
    if jobs == 1:
        workers, window = (0 if policy is None else 1), 1
    else:
        workers, window = jobs, 2 * jobs
        # Every cell is admitted up front anyway.  With at most one
        # solve among them a worker pool would only add its start-up:
        # run that solve here.
        feed = list(feed)
        if sum(cell.fn is not None for cell in feed) <= 1:
            workers = 0
    policy = policy or SupervisionPolicy()
    race = CellRace(
        workers=workers, window=window, policy=policy,
        deadline=(policy.deadline if policy.deadline is not None
                  else config.time_limit),
    )
    with race:
        race.add(feed)
        for _ in race.run():
            pass

    winner = None  # the cell that won the smallest period
    lost_below = False  # a period below it was lost to a failure
    for cell in cells:
        if cell.verdict == WIN:
            winner = cell
            break
        if cell.failure is not None:
            lost_below = True
    settled = winner.result.attempt if winner is not None else None
    schedule = winner.result.schedule if winner is not None else None
    degraded = winner is not None and lost_below
    replaced = None  # the record a degraded settle stands in for
    if winner is None and ws is not None and ws.schedule is not None:
        replaced = next((c for c in cells if c.key == ws.ii
                         and c.verdict is not None), None)
        if interrupted() or (replaced is not None
                             and replaced.failure is not None):
            # Every solve at the heuristic's period was lost to a
            # crash/hang/interrupt, but the heuristic schedule itself is
            # verified: settle to it rather than report nothing.  The
            # degraded record replaces that period's record and carries
            # its failure.
            settled = ScheduleAttempt(
                t_period=ws.ii, status=DEGRADED, warm_started=True,
                failure=replaced.failure if replaced is not None else None,
            )
            schedule = ws.schedule
            degraded = True
        else:
            replaced = None
    # Cells come in period order, so the log is too.
    attempts: List[ScheduleAttempt] = [
        settled if cell is replaced else _cell_attempt(cell)
        for cell in cells if cell.verdict is not None
    ]
    if degraded and replaced is None and winner is None:
        attempts.append(settled)
    if schedule is None and not attempts and not interrupted():
        raise SchedulingError(
            f"no candidate periods for loop {ddg.name!r} "
            f"(T_lb={bounds.t_lb}, max_extra={max_extra})"
        )
    ws_stats.ilp_solves = sum(1 for a in attempts if a.backend)
    result = SchedulingResult(
        loop_name=ddg.name,
        bounds=bounds,
        attempts=attempts,
        schedule=schedule,
        total_seconds=time.monotonic() - start_clock,
        warmstart=ws_stats,
        degraded=degraded,
        store=store_stats,
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
    repair_modulo: bool = False,
    warmstart: bool = True,
    jobs: int = 1,
    policy: Optional[SupervisionPolicy] = None,
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

    ``jobs`` is the worker-process count.  With the default ``jobs=1``
    and no ``policy`` every period is solved in this process.  ``policy``
    (a :class:`repro.supervision.SupervisionPolicy`) ships each solve to
    one deadline/memory-guarded worker instead; ``jobs=N>1`` races
    candidate periods on N such workers (see ``docs/parallel.md``) and
    returns the same achieved period and proof flag.  Under supervision
    crashes, hangs and OOMs surface as per-attempt
    :class:`~repro.supervision.records.FailureRecord` data and the sweep
    degrades gracefully instead of dying (see ``docs/robustness.md``).

    ``store`` (a :class:`repro.store.ScheduleStore` or a path accepted
    by :func:`repro.store.open_store`) consults the persistent schedule
    store before doing any work and publishes clean results back.
    """
    config = AttemptConfig(
        backend=backend,
        objective=objective,
        mapping=mapping,
        time_limit=time_limit_per_t,
        repair_modulo=repair_modulo,
        warmstart=warmstart,
    )
    return run_sweep(ddg, machine, config, max_extra, store=store,
                     jobs=jobs, policy=policy)
