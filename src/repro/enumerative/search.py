"""DFS search for fixed-mapping modulo schedules at a given period.

Decision variables per op: the pattern offset ``p_i in [0, T)`` and the
physical FU copy.  Once every offset is fixed, start times are
``t_i = p_i + T * k_i`` and each dependence ``(i -> j, m, sep)`` becomes
an integer difference constraint

    k_j - k_i >= ceil((sep - T*m + p_i - p_j) / T)

whose feasibility (no positive cycle) is checked incrementally on the
assigned subgraph after every assignment — infeasible prefixes are cut
immediately.  Resource legality is maintained exactly with per-unit
modulo reservation tables.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.schedule import Schedule
from repro.core.verify import verify_schedule
from repro.ddg.graph import Ddg
from repro.machine import Machine


@dataclass
class _PeriodOutcome:
    """Result of :func:`search_at_period`."""

    feasible: Optional[bool]  # None = budget exhausted
    schedule: Optional[Schedule]
    nodes: int
    seconds: float


@dataclass
class EnumerationResult:
    """Result of the enumerative driver (mirrors SchedulingResult)."""

    loop_name: str
    t_lb: int
    achieved_t: Optional[int]
    schedule: Optional[Schedule]
    nodes: int
    seconds: float
    proven: bool  # every smaller admissible T exhausted as infeasible

    @property
    def delta_from_lb(self) -> Optional[int]:
        if self.achieved_t is None:
            return None
        return self.achieved_t - self.t_lb


class _Searcher:
    def __init__(self, ddg: Ddg, machine: Machine, t_period: int,
                 deadline: Optional[float]) -> None:
        self.ddg = ddg
        self.machine = machine
        self.t_period = t_period
        self.deadline = deadline
        self.nodes = 0
        self.timed_out = False
        n = ddg.num_ops
        self.offset: List[Optional[int]] = [None] * n
        self.color: List[Optional[int]] = [None] * n
        # occupancy[(fu, copy)] -> set of (stage, slot)
        self.occupancy: Dict[Tuple[str, int], set] = {}
        self.separations = ddg.dep_latencies(machine)
        # Adjacency for the incremental dependence check.
        self.edges = list(zip(ddg.deps, self.separations))
        self.order = self._variable_order()
        self.footprints = [
            machine.reservation_for(op.op_class).usage_offsets()
            for op in ddg.ops
        ]
        self.fu_of = [
            machine.fu_type_of(op.op_class) for op in ddg.ops
        ]
        self.opened: Dict[str, int] = {}  # units opened per type

    def _variable_order(self) -> List[int]:
        """Most-constrained first: heavy resource users, then degree."""
        def weight(i: int) -> Tuple[int, int, int]:
            table = self.machine.reservation_for(self.ddg.ops[i].op_class)
            degree = sum(
                1 for d in self.ddg.deps if d.src == i or d.dst == i
            )
            return (
                -int(table.matrix.sum()),
                -degree,
                i,
            )
        return sorted(range(self.ddg.num_ops), key=weight)

    # -- pruning ------------------------------------------------------------------
    def _dependences_feasible(self) -> bool:
        """Bellman–Ford positive-cycle check on the assigned subgraph."""
        assigned = [i for i in range(self.ddg.num_ops)
                    if self.offset[i] is not None]
        if not assigned:
            return True
        index = {op: pos for pos, op in enumerate(assigned)}
        arcs = []
        t_period = self.t_period
        for dep, sep in self.edges:
            if (self.offset[dep.src] is None
                    or self.offset[dep.dst] is None):
                continue
            numerator = (sep - t_period * dep.distance
                         + self.offset[dep.src] - self.offset[dep.dst])
            bound = math.ceil(numerator / t_period)
            if dep.src == dep.dst:
                if bound > 0:
                    return False
                continue
            arcs.append((index[dep.src], index[dep.dst], bound))
        count = len(assigned)
        dist = [0] * count
        for _ in range(count):
            changed = False
            for u, v, w in arcs:
                if dist[u] + w > dist[v]:
                    dist[v] = dist[u] + w
                    changed = True
            if not changed:
                return True
        return not changed

    def _k_vector(self) -> List[int]:
        """Longest-path potentials = minimal K once all offsets fixed."""
        n = self.ddg.num_ops
        t_period = self.t_period
        dist = [0] * n
        for _ in range(n):
            changed = False
            for dep, sep in self.edges:
                numerator = (sep - t_period * dep.distance
                             + self.offset[dep.src] - self.offset[dep.dst])
                bound = math.ceil(numerator / t_period)
                if dep.src == dep.dst:
                    continue
                if dist[dep.src] + bound > dist[dep.dst]:
                    dist[dep.dst] = dist[dep.src] + bound
                    changed = True
            if not changed:
                break
        base = min(dist)
        return [d - base for d in dist]

    # -- search --------------------------------------------------------------------
    def run(self) -> Optional[Schedule]:
        if self._dfs(0):
            k_vector = self._k_vector()
            starts = [
                self.offset[i] + self.t_period * k_vector[i]
                for i in range(self.ddg.num_ops)
            ]
            colors = {i: self.color[i] for i in range(self.ddg.num_ops)}
            return Schedule(
                ddg=self.ddg, machine=self.machine,
                t_period=self.t_period, starts=starts, colors=colors,
            )
        return None

    def _dfs(self, depth: int) -> bool:
        if self.deadline is not None and self.nodes % 256 == 0:
            if time.monotonic() > self.deadline:
                self.timed_out = True
                return False
        if depth == len(self.order):
            return True
        op_index = self.order[depth]
        fu = self.fu_of[op_index]
        opened = self.opened.get(fu.name, 0)
        color_limit = min(fu.count, opened + 1)
        for offset in range(self.t_period):
            cells = [
                (stage, (offset + cycle) % self.t_period)
                for stage, cycle in self.footprints[op_index]
            ]
            for copy in range(color_limit):
                board = self.occupancy.setdefault((fu.name, copy), set())
                if any(cell in board for cell in cells):
                    continue
                self.nodes += 1
                board.update(cells)
                self.offset[op_index] = offset
                self.color[op_index] = copy
                previous_opened = self.opened.get(fu.name, 0)
                self.opened[fu.name] = max(previous_opened, copy + 1)
                if self._dependences_feasible() and self._dfs(depth + 1):
                    return True
                self.opened[fu.name] = previous_opened
                self.offset[op_index] = None
                self.color[op_index] = None
                board.difference_update(cells)
                if self.timed_out:
                    return False
        return False


def search_at_period(
    ddg: Ddg,
    machine: Machine,
    t_period: int,
    time_limit: Optional[float] = None,
) -> _PeriodOutcome:
    """Exact search at one period; verifies any schedule it returns."""
    start_clock = time.monotonic()
    deadline = None if time_limit is None else start_clock + time_limit
    searcher = _Searcher(ddg, machine, t_period, deadline)
    schedule = searcher.run()
    seconds = time.monotonic() - start_clock
    if schedule is not None:
        verify_schedule(schedule)
        return _PeriodOutcome(True, schedule, searcher.nodes, seconds)
    if searcher.timed_out:
        return _PeriodOutcome(None, None, searcher.nodes, seconds)
    return _PeriodOutcome(False, None, searcher.nodes, seconds)


def enumerative_schedule_loop(
    ddg: Ddg,
    machine: Machine,
    time_limit_per_t: Optional[float] = 30.0,
    max_extra: int = 10,
) -> EnumerationResult:
    """Rate-optimal driver over the exhaustive search (cf. schedule_loop)."""
    ddg.validate_against(machine)
    bounds = lower_bounds(ddg, machine)
    nodes = 0
    seconds = 0.0
    proven = True
    for t_period in range(bounds.t_lb, bounds.t_lb + max_extra + 1):
        if not modulo_feasible_t(ddg, machine, t_period):
            continue
        outcome = search_at_period(
            ddg, machine, t_period, time_limit=time_limit_per_t
        )
        nodes += outcome.nodes
        seconds += outcome.seconds
        if outcome.feasible:
            return EnumerationResult(
                loop_name=ddg.name,
                t_lb=bounds.t_lb,
                achieved_t=t_period,
                schedule=outcome.schedule,
                nodes=nodes,
                seconds=seconds,
                proven=proven,
            )
        if outcome.feasible is None:
            proven = False  # budget ran out; larger T may still work
    return EnumerationResult(
        loop_name=ddg.name,
        t_lb=bounds.t_lb,
        achieved_t=None,
        schedule=None,
        nodes=nodes,
        seconds=seconds,
        proven=False,
    )
