"""The cell race: the one dispatch loop behind every driver.

The §6 driver tries ``T = T_lb, T_lb + 1, ...`` until a period is
feasible.  Every way this repository runs that loop — the sequential
sweep, the period race, a portfolio of backends, a corpus batch, the
``repro serve`` dispatcher — is the same shape: *groups* of
``(key, backend)`` *cells*, dispatched in order, where one cell's
verdict can settle its whole group.  :class:`CellRace` runs that shape
and owns the only :meth:`~repro.supervision.SupervisedExecutor.poll`
loop outside the executor itself.

Settlement, one rule for every group:

* A group settles on its first **decisive** cell — a feasible point
  (``WIN``) or an infeasibility proof (``PROOF``) for a period, a
  scheduled entry for a loop.  Its siblings are reaped on the spot:
  running cells are killed and counted in ``killed_running``, cells
  still queued in the executor are dropped and counted in
  ``cancelled_queued``, and every sibling is recorded ``cancelled``.
* When every cell reports without a decisive verdict, the group
  settles to its best-ranked cell (:attr:`Group.rep`): a clean
  non-verdict (a time limit, an unscheduled entry) before a
  cancellation before a failure, ties broken by roster order.
* A ``WIN`` in a *period* group at ``T`` also retires every period
  group above ``T`` (their cells are reaped and recorded
  ``cancelled``); smaller periods are still awaited, because
  rate-optimality is a claim about them.
* An interrupt (SIGINT/SIGTERM via :mod:`repro.supervision.signals`)
  aborts the in-flight cells into ``interrupted`` failure records and
  ends the race; open groups settle from what they have.

Dispatch:

* ``workers=0`` runs cells in-process, one at a time, in order — no
  :class:`~repro.supervision.SupervisedExecutor` at all.  A roster of
  one lets a cell's exception propagate, exactly like the plain §6
  loop; in a wider roster a raising cell fails as ``solver_error``
  (``oom`` for ``MemoryError``), as it would in a worker, and its
  siblings carry the group.
* ``workers>=1`` ships cells to a supervised pool (created on the first
  dispatch), at most ``window`` in flight (``None``: unbounded).
* ``window=1`` is the §6 loop itself: the race admits the next group
  only once the one before it has settled, so a period win ends the
  sweep and groups never admitted leave no record.  With any other
  window every group is admitted when it is added, and every cell of
  an admitted group ends up with exactly one record.

A cell may also carry a ready-made ``result`` (a period settled without
a solve: modulo-infeasible, or the heuristic's own period); it reports
the moment its group is admitted.
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
)

from repro.supervision.executor import RUNNING, SupervisedExecutor
from repro.supervision.records import (
    INTERRUPTED,
    OOM,
    SOLVER_ERROR,
    FailureRecord,
    SupervisionPolicy,
)
from repro.supervision.signals import interrupted

#: Cell verdicts, in rank order (lower ranks represent a group).
WIN, PROOF, CLEAN, CANCELLED, FAILED = range(5)


class Cell:
    """One ``(key, backend)`` unit of work and its outcome."""

    __slots__ = ("name", "fn", "args", "kwargs", "result", "failure",
                 "verdict", "task", "group", "index")

    def __init__(self, name: str, fn: Optional[Callable] = None,
                 args: tuple = (), kwargs: Optional[dict] = None,
                 result=None) -> None:
        self.name = name
        self.fn = fn
        self.args = args
        self.kwargs = kwargs or {}
        #: What ``fn`` returned (or the ready-made result).
        self.result = result
        #: Terminal failure (crash/hang/oom/solver_error/interrupted).
        self.failure: Optional[FailureRecord] = None
        #: WIN/PROOF/CLEAN/CANCELLED/FAILED once the cell is accounted
        #: for; None while it waits or runs (or when it never ran).
        self.verdict: Optional[int] = None
        self.task = None
        self.group: Optional["Group"] = None
        self.index = 0


class Group:
    """Cells that race for one key: a period, a loop, a service job.

    ``classify`` maps a cell's result to WIN, PROOF or CLEAN (or FAILED
    for a result that is itself an error report).  ``period`` marks a
    period group: its WIN retires every period group with a larger key.
    """

    def __init__(self, key, cells: List[Cell],
                 classify: Callable[[object], int],
                 period: bool = False) -> None:
        self.key = key
        self.cells = cells
        self.classify = classify
        self.period = period
        for index, cell in enumerate(cells):
            cell.group = self
            cell.index = index
        self.settled = False
        #: The decisive cell that settled the group, if any.
        self.winner: Optional[Cell] = None
        self.killed_running = 0
        self.cancelled_queued = 0

    @property
    def rep(self) -> Optional[Cell]:
        """The decisive cell, else the best-ranked accounted-for one."""
        if self.winner is not None:
            return self.winner
        ranked = [c for c in self.cells if c.verdict is not None]
        return min(ranked, key=lambda c: (c.verdict, c.index),
                   default=None)


class CellRace:
    """Dispatch groups of cells and settle them (see module docstring)."""

    def __init__(
        self,
        workers: int = 0,
        window: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
        deadline="policy",
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        on_cell: Optional[Callable[[Cell], None]] = None,
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.workers = workers
        self.window = window
        self.policy = policy or SupervisionPolicy()
        self.deadline = deadline
        self._initializer = initializer
        self._initargs = initargs
        #: Called for every cell that ran and reported (result or
        #: failure) — the serve breaker's health feed.
        self._on_cell = on_cell
        self._executor: Optional[SupervisedExecutor] = None
        self._feed: Iterator[Group] = iter(())
        self._open: List[Group] = []
        self._queue: Deque[Cell] = deque()
        self._running: Dict[object, Cell] = {}
        self._settled: List[Group] = []
        #: Smallest period key a WIN has settled so far.
        self._best = None
        self.interrupted = False

    # ------------------------------------------------------------------
    # public API

    def add(self, groups: Iterable[Group]) -> None:
        """Queue ``groups`` (in order) behind those already added.

        Period groups come in increasing key order, so the first one
        above a period already won ends ``groups``; with ``window=1``
        they are only pulled, lazily, when reached.
        """
        live = itertools.takewhile(
            lambda group: not (group.period and self._best is not None
                               and group.key > self._best),
            groups,
        )
        if self.window == 1:
            self._feed = itertools.chain(self._feed, live)
        else:
            for group in live:
                self._admit(group)

    def in_flight(self) -> int:
        """Admitted cells not yet reported: queued here or submitted.

        Cells waiting in the race count too, so a caller that admits
        work while ``in_flight()`` is below its worker count stops once
        every worker has a cell, even before the next :meth:`step`
        submits them.
        """
        return len(self._running) + len(self._queue)

    def idle(self) -> bool:
        """No group open, nothing running, nothing left to admit."""
        self._admit_next()
        return not self._open and not self._running

    def step(self, timeout: float = 0.25) -> List[Group]:
        """Advance the race once; returns the groups settled meanwhile.

        In-process this runs one cell; with a pool it dispatches up to
        the window and waits up to ``timeout`` for reports.
        """
        if not self.interrupted and interrupted():
            self._interrupt()
        elif self.workers == 0:
            self._admit_next()
            if self._queue:
                self._execute(self._queue.popleft())
        else:
            self._dispatch()
            if self._running:
                for task in self._executor.poll(timeout=timeout):
                    cell = self._running.pop(task, None)
                    if cell is None:
                        continue
                    if task.failure is not None:
                        self._fail(cell, task.failure)
                    else:
                        self._report(cell, task.result)
        return self._drain()

    def run(self) -> Iterator[Group]:
        """Step until idle, yielding groups as they settle."""
        while not self.idle():
            yield from self.step()
        yield from self._drain()

    def close(self) -> None:
        """Kill the pool's workers (anything still running is lost)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None

    def __enter__(self) -> "CellRace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # admission and dispatch

    def _drain(self) -> List[Group]:
        settled, self._settled = self._settled, []
        return settled

    def _admit_next(self) -> None:
        """``window=1``: admit the next group once none is open."""
        while self.window == 1 and not self._open:
            group = next(self._feed, None)
            if group is None:
                return
            self._admit(group)

    def _admit(self, group: Group) -> None:
        self._open.append(group)
        for cell in group.cells:
            if cell.fn is None:
                self._report(cell, cell.result)
            elif not group.settled:
                self._queue.append(cell)

    def _dispatch(self) -> None:
        self._admit_next()
        while self._queue and (self.window is None
                               or len(self._running) < self.window):
            cell = self._queue.popleft()
            if self._executor is None:
                self._executor = SupervisedExecutor(
                    max_workers=self.workers, policy=self.policy,
                    initializer=self._initializer,
                    initargs=self._initargs,
                )
            cell.task = self._executor.submit(
                cell.fn, *cell.args, tag=cell.group.key,
                deadline=self.deadline, **cell.kwargs,
            )
            self._running[cell.task] = cell

    def _execute(self, cell: Cell) -> None:
        start = time.monotonic()
        try:
            result = cell.fn(*cell.args, **cell.kwargs)
        except Exception as exc:  # noqa: BLE001 - the cell fails alone
            if len(cell.group.cells) == 1:
                raise  # a roster of one: the plain §6 loop's behavior
            self._fail(cell, FailureRecord(
                kind=OOM if isinstance(exc, MemoryError) else SOLVER_ERROR,
                elapsed=time.monotonic() - start,
                detail=f"{type(exc).__name__}: {exc}",
            ))
            return
        self._report(cell, result)

    # ------------------------------------------------------------------
    # settlement

    def _report(self, cell: Cell, result) -> None:
        cell.result = result
        cell.verdict = cell.group.classify(result)
        self._reported(cell)

    def _fail(self, cell: Cell, failure: FailureRecord) -> None:
        cell.failure = failure
        cell.verdict = FAILED
        self._reported(cell)

    def _reported(self, cell: Cell) -> None:
        if cell.fn is not None and self._on_cell is not None:
            self._on_cell(cell)
        group = cell.group
        if group.settled:
            return  # a sibling beat this cell's kill: recorded, moot
        if cell.verdict in (WIN, PROOF):
            group.winner = cell
            self._settle(group)
            if cell.verdict == WIN and group.period:
                if self._best is None or group.key < self._best:
                    self._best = group.key
                for other in list(self._open):
                    if other.period and other.key > group.key:
                        self._settle(other)
        elif all(c.verdict is not None for c in group.cells):
            self._settle(group)

    def _settle(self, group: Group) -> None:
        """Close ``group``: reap its unreported cells, hand it back."""
        group.settled = True
        for cell in group.cells:
            if cell.verdict is not None:
                continue
            if cell.task is None:
                try:
                    self._queue.remove(cell)
                except ValueError:
                    pass
            else:
                was_running = cell.task.state == RUNNING
                if not self._executor.kill_task(cell.task):
                    continue  # finished already: its report is due
                del self._running[cell.task]
                if was_running:
                    group.killed_running += 1
                else:
                    group.cancelled_queued += 1
            cell.verdict = CANCELLED
        self._open.remove(group)
        self._settled.append(group)

    def _interrupt(self) -> None:
        """Abort in-flight cells as ``interrupted``; end the race."""
        self.interrupted = True
        self._feed = iter(())
        self._queue.clear()
        if self._executor is not None:
            for task in self._executor.abort(
                INTERRUPTED, "interrupted (SIGINT/SIGTERM)"
            ):
                cell = self._running.pop(task, None)
                if cell is not None:
                    cell.failure = task.failure
                    cell.verdict = FAILED
        for group in list(self._open):
            group.settled = True
            self._open.remove(group)
            self._settled.append(group)
