"""The cell race: the one dispatch loop behind every driver.

The §6 driver tries ``T = T_lb, T_lb + 1, ...`` until a period is
feasible.  Every way this repository runs that loop — the sequential
sweep, the period race, a corpus batch, the ``repro serve`` dispatcher
— is the same shape: keyed *cells* of work (a period, a loop, a
service job), dispatched in order, each settling on its own report.
:class:`CellRace` runs that shape and owns the only
:meth:`~repro.supervision.SupervisedExecutor.poll` loop outside the
executor itself.

Settlement:

* A cell settles when it reports: its ``classify`` maps the result to
  ``WIN`` (a feasible point for a period, a scheduled entry for a
  loop), ``PROOF`` (an infeasibility proof) or ``CLEAN`` (a time
  limit, an unscheduled entry) — or ``FAILED`` when the result is
  itself an error report.  A cell lost to a crash, hang, OOM or
  solver error settles ``FAILED`` with its
  :class:`~repro.supervision.records.FailureRecord`.
* A ``WIN`` in a *period* cell at ``T`` retires every period cell
  above ``T``: running ones are killed, queued ones dropped, and each
  settles ``CANCELLED``.  Smaller periods are still awaited, because
  rate-optimality is a claim about them.
* An interrupt (SIGINT/SIGTERM via :mod:`repro.supervision.signals`)
  aborts the in-flight cells into ``interrupted`` failure records and
  ends the race; open cells settle from what they have.

Dispatch:

* ``workers=0`` runs cells in-process, one at a time, in order — no
  :class:`~repro.supervision.SupervisedExecutor` at all.  A cell's
  exception propagates, exactly like the plain §6 loop.
* ``workers>=1`` ships cells to a supervised pool (created on the first
  dispatch), at most ``window`` in flight (``None``: unbounded).
* ``window=1`` is the §6 loop itself: the race admits the next cell
  only once the one before it has settled, so a period win ends the
  sweep and cells never admitted leave no record.  With any other
  window every cell is admitted when it is added, and every admitted
  cell ends up settled.

A cell may also carry a ready-made ``result`` (a period settled without
a solve: modulo-infeasible, or the heuristic's own period); it reports
the moment it is admitted.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Callable, Deque, Dict, Iterable, Iterator, List, Optional

from repro.supervision.executor import SupervisedExecutor
from repro.supervision.records import (
    INTERRUPTED,
    FailureRecord,
    SupervisionPolicy,
)
from repro.supervision.signals import interrupted

#: Cell verdicts.
WIN, PROOF, CLEAN, CANCELLED, FAILED = range(5)


class Cell:
    """One keyed unit of work — a period, a loop, a service job.

    ``classify`` maps the cell's result to WIN, PROOF or CLEAN (or
    FAILED for a result that is itself an error report).  ``period``
    marks a period cell: its WIN retires every period cell with a
    larger key.
    """

    __slots__ = ("key", "classify", "fn", "args", "kwargs", "period",
                 "result", "failure", "verdict", "task")

    def __init__(self, key, classify: Callable[[object], int],
                 fn: Optional[Callable] = None, args: tuple = (),
                 kwargs: Optional[dict] = None, result=None,
                 period: bool = False) -> None:
        self.key = key
        self.classify = classify
        self.fn = fn
        self.args = args
        self.kwargs = kwargs or {}
        self.period = period
        #: What ``fn`` returned (or the ready-made result).
        self.result = result
        #: Terminal failure (crash/hang/oom/solver_error/interrupted).
        self.failure: Optional[FailureRecord] = None
        #: WIN/PROOF/CLEAN/CANCELLED/FAILED once the cell is accounted
        #: for; None while it waits or runs (or when it never ran).
        self.verdict: Optional[int] = None
        self.task = None


class CellRace:
    """Dispatch cells and settle them (see module docstring)."""

    def __init__(
        self,
        workers: int = 0,
        window: Optional[int] = None,
        policy: Optional[SupervisionPolicy] = None,
        deadline="policy",
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
    ) -> None:
        if window is not None and window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.workers = workers
        self.window = window
        self.policy = policy or SupervisionPolicy()
        self.deadline = deadline
        self._initializer = initializer
        self._initargs = initargs
        self._executor: Optional[SupervisedExecutor] = None
        self._feed: Iterator[Cell] = iter(())
        self._open: List[Cell] = []
        self._queue: Deque[Cell] = deque()
        self._running: Dict[object, Cell] = {}
        self._settled: List[Cell] = []
        #: Smallest period key a WIN has settled so far.
        self._best = None
        self.interrupted = False

    # ------------------------------------------------------------------
    # public API

    def add(self, cells: Iterable[Cell]) -> None:
        """Queue ``cells`` (in order) behind those already added.

        Period cells come in increasing key order, so the first one
        above a period already won ends ``cells``; with ``window=1``
        they are only pulled, lazily, when reached.
        """
        live = itertools.takewhile(
            lambda cell: not (cell.period and self._best is not None
                              and cell.key > self._best),
            cells,
        )
        if self.window == 1:
            self._feed = itertools.chain(self._feed, live)
        else:
            for cell in live:
                self._admit(cell)

    def in_flight(self) -> int:
        """Admitted cells not yet reported: queued here or submitted.

        Cells waiting in the race count too, so a caller that admits
        work while ``in_flight()`` is below its worker count stops once
        every worker has a cell, even before the next :meth:`step`
        submits them.
        """
        return len(self._running) + len(self._queue)

    def idle(self) -> bool:
        """No cell open, nothing running, nothing left to admit."""
        self._admit_next()
        return not self._open and not self._running

    def step(self, timeout: float = 0.25) -> List[Cell]:
        """Advance the race once; returns the cells settled meanwhile.

        In-process this runs one cell; with a pool it dispatches up to
        the window and waits up to ``timeout`` for reports.
        """
        if not self.interrupted and interrupted():
            self._interrupt()
        elif self.workers == 0:
            self._admit_next()
            if self._queue:
                cell = self._queue.popleft()
                self._report(cell, cell.fn(*cell.args, **cell.kwargs))
        else:
            self._dispatch()
            if self._running:
                for task in self._executor.poll(timeout=timeout):
                    cell = self._running.pop(task, None)
                    if cell is None:
                        continue
                    if task.failure is not None:
                        cell.failure = task.failure
                        self._settle(cell, FAILED)
                    else:
                        self._report(cell, task.result)
        return self._drain()

    def run(self) -> Iterator[Cell]:
        """Step until idle, yielding cells as they settle."""
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

    def _drain(self) -> List[Cell]:
        settled, self._settled = self._settled, []
        return settled

    def _admit_next(self) -> None:
        """``window=1``: admit the next cell once none is open."""
        while self.window == 1 and not self._open:
            cell = next(self._feed, None)
            if cell is None:
                return
            self._admit(cell)

    def _admit(self, cell: Cell) -> None:
        self._open.append(cell)
        if cell.fn is None:
            self._report(cell, cell.result)
        else:
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
                cell.fn, *cell.args, tag=cell.key,
                deadline=self.deadline, **cell.kwargs,
            )
            self._running[cell.task] = cell

    # ------------------------------------------------------------------
    # settlement

    def _report(self, cell: Cell, result) -> None:
        cell.result = result
        verdict = cell.classify(result)
        self._settle(cell, verdict)
        if verdict == WIN and cell.period:
            if self._best is None or cell.key < self._best:
                self._best = cell.key
            for other in list(self._open):
                if other.period and other.key > cell.key:
                    self._retire(other)

    def _settle(self, cell: Cell, verdict: int) -> None:
        cell.verdict = verdict
        self._open.remove(cell)
        self._settled.append(cell)

    def _retire(self, cell: Cell) -> None:
        """Cancel ``cell`` unless its report is already due."""
        if cell.task is None:
            self._queue.remove(cell)
        elif self._executor.kill_task(cell.task):
            del self._running[cell.task]
        else:
            return  # finished already: its report settles it
        self._settle(cell, CANCELLED)

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
        self._settled.extend(self._open)
        self._open.clear()
