"""Dependence analysis: the recurrence bound ``T_dep`` and critical cycles.

The loop-carried dependences bound the initiation interval from below
(Reiter [23]):

    T_dep = max over cycles C of ceil( sum(d_i for i in C) / sum(m_ij) )

Instead of enumerating cycles (exponential) we binary-search the smallest
integer ``T`` for which the dependence constraint system
``t_j - t_i >= d_i - T * m_ij`` admits a solution — i.e. the constraint
graph has no positive-weight cycle, checked with Bellman–Ford.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, TYPE_CHECKING

from repro.ddg.errors import DdgError
from repro.ddg.graph import Ddg

if TYPE_CHECKING:
    from repro.machine import Machine

#: Sentinel distance sum guaranteeing feasibility (see :func:`t_dep`).
_INF = float("inf")


def _edge_weights(ddg: Ddg, machine: "Machine", t_period: int):
    """Constraint-graph edges ``(src, dst, weight)`` for a candidate T."""
    separations = ddg.dep_latencies(machine)
    return [
        (dep.src, dep.dst, sep - t_period * dep.distance)
        for dep, sep in zip(ddg.deps, separations)
    ]


def _positive_cycle(
    num_ops: int, edges: List[Tuple[int, int, int]]
) -> Optional[List[int]]:
    """Find a positive-weight cycle via Bellman–Ford, or None.

    Runs longest-path relaxation from a virtual source connected to every
    node with weight 0; a relaxation succeeding on pass ``n`` exposes a
    positive cycle, which is recovered by walking predecessors.
    """
    if not edges:
        return None
    dist = [0.0] * num_ops
    pred: List[Optional[int]] = [None] * num_ops
    updated_node = None
    for _ in range(num_ops):
        updated_node = None
        for src, dst, weight in edges:
            if dist[src] + weight > dist[dst] + 1e-12:
                dist[dst] = dist[src] + weight
                pred[dst] = src
                updated_node = dst
        if updated_node is None:
            return None
    # Walk back num_ops steps to land inside the cycle, then peel it off.
    node = updated_node
    for _ in range(num_ops):
        node = pred[node]  # type: ignore[assignment]
    cycle = [node]
    walker = pred[node]
    while walker != node:
        cycle.append(walker)  # type: ignore[arg-type]
        walker = pred[walker]  # type: ignore[index]
    cycle.reverse()
    return cycle


def dependence_feasible(ddg: Ddg, machine: "Machine", t_period: int) -> bool:
    """Whether ``T`` satisfies every loop-carried recurrence."""
    if t_period < 1:
        return False
    edges = _edge_weights(ddg, machine, t_period)
    return _positive_cycle(ddg.num_ops, edges) is None


def t_dep(ddg: Ddg, machine: "Machine") -> int:
    """Smallest integer T admitting a legal periodic schedule w.r.t.
    dependences alone (resources ignored)."""
    if ddg.num_ops == 0:
        raise DdgError("empty DDG has no schedule")
    zero_distance_cycle = _positive_cycle(
        ddg.num_ops,
        [
            (d.src, d.dst, 1 if d.distance == 0 else -ddg.num_ops * 10**6)
            for d in ddg.deps
        ],
    )
    if zero_distance_cycle is not None:
        raise DdgError(
            "DDG has a dependence cycle with total distance 0; "
            "no periodic schedule exists"
        )
    hi = sum(ddg.latencies(machine)) + 1
    lo = 1
    if dependence_feasible(ddg, machine, lo):
        return lo
    # Invariant: lo infeasible, hi feasible.
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if dependence_feasible(ddg, machine, mid):
            hi = mid
        else:
            lo = mid
    return hi


def critical_cycle(ddg: Ddg, machine: "Machine") -> Optional[List[int]]:
    """A cycle achieving T_dep (op indices in order), or None if acyclic.

    Found as a positive cycle of the constraint graph at ``T_dep - 1``;
    by construction its latency/distance ratio exceeds ``T_dep - 1``,
    i.e. rounds up to ``T_dep``.
    """
    bound = t_dep(ddg, machine)
    if bound <= 1:
        # Any recurrence is "critical" only vacuously: report some cycle.
        return _any_cycle(ddg)
    return _positive_cycle(ddg.num_ops, _edge_weights(ddg, machine, bound - 1))


def _any_cycle(ddg: Ddg) -> Optional[List[int]]:
    """Some dependence cycle (op indices in order), or None if acyclic.

    With every edge weighted 1, every cycle is a positive cycle.
    """
    return _positive_cycle(ddg.num_ops, [(d.src, d.dst, 1) for d in ddg.deps])


def has_recurrence(ddg: Ddg) -> bool:
    """True when the DDG contains at least one dependence cycle."""
    return _any_cycle(ddg) is not None


def cycle_ratio(ddg: Ddg, machine: "Machine", cycle: List[int]) -> Tuple[int, int]:
    """(sum of latencies, sum of distances) along an op-index cycle.

    The cycle is given as a node sequence; edges are looked up between
    consecutive nodes (choosing, among parallel edges, the one with the
    best latency-minus-distance trade-off is unnecessary here — we pick
    the minimum distance, which maximizes the ratio).
    """
    lat = ddg.latencies(machine)
    total_latency = 0
    total_distance = 0
    n = len(cycle)
    for pos, src in enumerate(cycle):
        dst = cycle[(pos + 1) % n]
        candidates = [d for d in ddg.deps if d.src == src and d.dst == dst]
        if not candidates:
            raise DdgError(f"no dependence {src}->{dst} along claimed cycle")
        best = min(candidates, key=lambda d: d.distance)
        total_latency += lat[src]
        total_distance += best.distance
    return total_latency, total_distance
