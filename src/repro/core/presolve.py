"""Dependence-implied presolve for the unified ILP.

Shrinks the (ddg, machine, T) model before :class:`~repro.core.formulation.
Formulation` emits a single row, using only facts implied by the
dependence constraints ``t_j - t_i >= sep_e - T * m_e`` and the modulo
structure ``t_i = T*k_i + s_i``:

**Infeasibility.**  A period with no schedule is ruled out with a reason:
a positive dependence cycle, the resource floor, copy packing (the
paper's §2 argument: a colored type's ops must split over its copies
with no copy's stage used more than T times) or an empty slot window.

**Slot windows.**  Longest paths over the dependence graph give each op an
``asap`` lower bound (implied by the constraints, so valid for every
objective) and — via the componentwise-*minimal* solution of the
difference-constraint system, which preserves all slot residues and
therefore all resource/coloring structure — a ``latest`` upper bound
(rounds every edge up to ``w + T - 1``).  The minimal solution also
minimizes ``sum t_i``, so the upper bounds are valid for ``feasibility``,
``min_sum_t`` and ``min_fu``; they are *not* valid for ``min_buffers`` /
``min_lifetimes`` (shrinking starts can grow differences), where only the
horizon bound is used.

**Anchoring.**  Every constraint except the variable boxes is invariant
under a uniform shift ``t_i += delta``, and all objectives except
``min_sum_t`` are too.  For those objectives one op ``r`` (in the largest
strongly-coupled component) is anchored to pattern slot 0; ops with
finite longest paths both to and from ``r`` then get absolute slot
residue sets.  Any feasible schedule can be shifted up (< T cycles) to
anchor ``r`` and, when the minimal-solution bound applies, re-minimized
back under ``latest`` — so feasibility and the optimal values of the
shift-invariant objectives are preserved exactly.

**Pair interference.**  For each pair of ops mapped by coloring, the
all-pairs longest paths bound ``t_j - t_i`` to an interval; if the
interval (or the slot windows) pins the *relative* residue ``(s_j - s_i)
mod T`` to a set disjoint from the pair's stage-offset set, the two ops
can **never** overlap (all ``o/w/hu/ov`` rows vanish); if every
realizable residue forces an overlap they **always** do (``o == 1`` is
folded into the Hu rows and all ``ov`` rows vanish).  For the remaining
*maybe* pairs, a covering subset of stages suffices: a stage whose
offset set covers all realizable overlapping residues forces ``o = 1``
whenever any stage overlaps, so ``ov`` rows are emitted for the cover
only.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.bounds import per_type_t_res
from repro.ddg.graph import Ddg
from repro.machine import Machine

#: Pair interference classifications.
NEVER, ALWAYS, MAYBE = "never", "always", "maybe"

#: Objectives for which the minimal-solution ``latest`` bounds are sound.
_UB_OBJECTIVES = ("feasibility", "min_sum_t", "min_fu")

#: Nodes the copy-packing search may visit before it gives up; also
#: bounds its recursion depth.
_PACK_NODE_CAP = 500

#: Objectives invariant under a uniform schedule shift (anchorable).
_SHIFT_INVARIANT = (
    "feasibility", "min_fu", "min_buffers", "min_lifetimes",
)


@dataclass
class PairInterference:
    """Static interference verdict for one colored op pair."""

    kind: str  # NEVER | ALWAYS | MAYBE
    #: Stages whose ``ov`` rows must be emitted (MAYBE pairs only).
    cover_stages: Tuple[int, ...] = ()


@dataclass
class PresolveInfo:
    """Everything :class:`Formulation` needs to build a pruned model."""

    t_period: int
    objective: str
    #: Why no schedule exists at this T, or "" if presolve found no
    #: reason: ``dependence_cycle``, ``resource_floor``, ``copy_packing``
    #: or ``empty_window``.
    reason: str = ""
    #: The FU type a ``resource_floor`` or ``copy_packing`` reason names
    #: (the busiest type, or the one whose ops do not pack), else "".
    fu_type: str = ""
    #: Op anchored to pattern slot 0, or None (min_sum_t, or disabled).
    anchor: Optional[int] = None
    #: Effective stage-count bound (may exceed the caller's k_max by one
    #: to leave shift-up headroom when anchoring without upper bounds).
    k_max: int = 1
    asap: List[int] = field(default_factory=list)
    latest: List[int] = field(default_factory=list)
    #: Allowed pattern slots per op; ``None`` means all of ``0..T-1``.
    slot_windows: List[Optional[FrozenSet[int]]] = field(default_factory=list)
    #: ``(k_lo, k_hi)`` per op.
    k_bounds: List[Tuple[int, int]] = field(default_factory=list)
    #: Interference verdicts keyed by ``(i, j)`` with ``i < j``, covering
    #: exactly the pairs of ops that share a stage on a colored FU type.
    pairs: Dict[Tuple[int, int], PairInterference] = field(
        default_factory=dict
    )
    seconds: float = 0.0

    @property
    def infeasible(self) -> bool:
        return bool(self.reason)

    def slot_allowed(self, op: int, slot: int) -> bool:
        window = self.slot_windows[op]
        return window is None or slot in window


def _collapsed_edges(
    ddg: Ddg, machine: Machine, t_period: int
) -> List[Tuple[int, int, float]]:
    """Dependence edges as ``(src, dst, weight)`` with parallel edges
    collapsed to their strongest (maximum) separation ``sep - T*m``."""
    separations = ddg.dep_latencies(machine)
    best: Dict[Tuple[int, int], float] = {}
    for e, dep in enumerate(ddg.deps):
        weight = float(separations[e] - t_period * dep.distance)
        key = (dep.src, dep.dst)
        if key not in best or weight > best[key]:
            best[key] = weight
    return [(s, d, w) for (s, d), w in best.items()]


def _longest_paths(n: int, edges: List[Tuple[int, int, float]]) -> np.ndarray:
    """All-pairs longest path matrix (``-inf`` where unreachable)."""
    dist = np.full((n, n), -np.inf)
    np.fill_diagonal(dist, 0.0)
    for src, dst, weight in edges:
        if src == dst:
            continue  # self-loops only matter for cycle detection
        if weight > dist[src, dst]:
            dist[src, dst] = weight
    for k in range(n):
        np.maximum(dist, dist[:, k:k + 1] + dist[k:k + 1, :], out=dist)
    return dist


def _residues(lo: float, hi: float, t_period: int) -> Optional[FrozenSet[int]]:
    """Residues mod T of the integers in ``[lo, hi]``; None if all."""
    width = hi - lo + 1
    if width >= t_period:
        return None
    base = int(math.ceil(lo))
    return frozenset(
        (base + d) % t_period for d in range(int(hi) - base + 1)
    )


def _intersect(
    a: Optional[FrozenSet[int]], b: Optional[FrozenSet[int]]
) -> Optional[FrozenSet[int]]:
    if a is None:
        return b
    if b is None:
        return a
    return a & b


def _stage_offsets(
    cycles_i: Sequence[int], cycles_j: Sequence[int], t_period: int
) -> FrozenSet[int]:
    """Relative residues ``(s_j - s_i) mod T`` at which i and j collide on
    a stage i occupies at offsets ``cycles_i`` and j at ``cycles_j``."""
    return frozenset(
        (l1 - l2) % t_period for l1 in cycles_i for l2 in cycles_j
    )


def _packs(
    vectors: Sequence[Tuple[int, ...]], bins: int, capacity: int
) -> bool:
    """Whether ``vectors`` pack into ``bins`` bins holding at most
    ``capacity`` on every component.

    Exact depth-first search, largest vectors first, skipping a bin
    whose load equals one already tried and any (next vector, load
    multiset) state already refuted.  Past :data:`_PACK_NODE_CAP` nodes
    it answers True ("may pack"), so False is always a proof.
    """
    order = sorted(vectors, key=lambda v: (sum(v), v), reverse=True)
    refuted = set()
    nodes = 0

    def place(idx: int, loads: Tuple[Tuple[int, ...], ...]) -> bool:
        nonlocal nodes
        if idx == len(order):
            return True
        key = (idx, tuple(sorted(loads)))
        if key in refuted:
            return False
        nodes += 1
        if nodes > _PACK_NODE_CAP:
            return True
        tried = set()
        for b, load in enumerate(loads):
            if load in tried:
                continue
            tried.add(load)
            grown = tuple(x + y for x, y in zip(load, order[idx]))
            if max(grown) <= capacity and place(
                idx + 1, loads[:b] + (grown,) + loads[b + 1:]
            ):
                return True
        refuted.add(key)
        return False

    return place(0, ((0,) * len(order[0]),) * bins)


def _ruled_out(info: PresolveInfo, reason: str, start: float) -> PresolveInfo:
    info.reason = reason
    info.seconds = time.monotonic() - start
    return info


def presolve(
    ddg: Ddg,
    machine: Machine,
    t_period: int,
    objective: str = "feasibility",
    k_max: int = 1,
    colored: Optional[Dict[str, List[int]]] = None,
) -> PresolveInfo:
    """Analyze one (ddg, machine, T) instance; see the module docstring.

    ``colored`` maps FU-type names to the op indices whose mapping the
    formulation decides by coloring — pair interference is classified for
    exactly those groups.
    """
    start = time.monotonic()
    n = ddg.num_ops
    info = PresolveInfo(t_period=t_period, objective=objective, k_max=k_max)
    info.slot_windows = [None] * n
    info.asap = [0] * n
    info.latest = [t_period * k_max + t_period - 1] * n
    info.k_bounds = [(0, k_max)] * n
    if n == 0:
        info.seconds = time.monotonic() - start
        return info

    edges = _collapsed_edges(ddg, machine, t_period)
    dist = _longest_paths(n, edges)
    # A positive cycle (including a positive self-loop) means no schedule
    # exists at this period regardless of resources.
    positive_self = any(
        src == dst and weight > 0 for src, dst, weight in edges
    )
    if positive_self or float(np.max(np.diag(dist))) > 0:
        return _ruled_out(info, "dependence_cycle", start)

    # Resource floor: each use of a reservation stage occupies exactly
    # one of the R_r * T modulo slot-copies, so T below the busiest
    # stage's ceil(uses / count) admits no schedule (the emitted
    # capacity rows are LP-infeasible by the same counting argument).
    per_type = per_type_t_res(ddg, machine)
    if t_period < max(per_type.values(), default=1):
        info.fu_type = max(per_type, key=per_type.get)
        return _ruled_out(info, "resource_floor", start)

    # Copy packing: a colored op runs on one copy of its type, and one
    # copy's stage takes at most T uses mod T, so the ops' stage-use
    # vectors must pack into fu.count bins of capacity T per stage.
    for fu_name, op_indices in (colored or {}).items():
        stages = machine.stage_count(fu_name)
        tables = [machine.reservation_for(ddg.ops[i].op_class)
                  for i in op_indices]
        vectors = [tuple(t.stage_usage_counts())
                   + (0,) * (stages - t.num_stages) for t in tables]
        if not _packs(vectors, machine.fu_type(fu_name).count, t_period):
            info.fu_type = fu_name
            return _ruled_out(info, "copy_packing", start)

    allow_ub = objective in _UB_OBJECTIVES
    allow_anchor = objective in _SHIFT_INVARIANT
    if allow_anchor and not allow_ub:
        # Shift-up headroom: anchoring may push every start up by < T.
        k_max = k_max + 1
        info.k_max = k_max
    horizon = t_period * k_max + t_period - 1

    finite = dist > -np.inf
    asap = np.maximum(np.where(finite, dist, -np.inf).max(axis=0), 0.0)
    tail = np.maximum(np.where(finite, dist, -np.inf).max(axis=1), 0.0)
    latest = np.full(n, float(horizon)) - tail
    if allow_ub:
        # Bellman-Ford on the rounded-up system: the minimal solution
        # with any fixed residues satisfies t_i <= ub_i.
        ub = np.full(n, float(t_period - 1))
        slack = float(t_period - 1)
        for _ in range(max(1, n - 1)):
            changed = False
            for src, dst, weight in edges:
                if src == dst:
                    continue
                candidate = min(ub[src] + weight + slack, float(horizon))
                if candidate > ub[dst]:
                    ub[dst] = candidate
                    changed = True
            if not changed:
                break
        latest = np.minimum(latest, ub)
    latest = np.maximum(latest, asap)

    info.asap = [int(v) for v in asap]
    info.latest = [int(v) for v in latest]

    # Anchor: largest strongly-coupled component (finite paths both ways);
    # singleton fallback still kills T-1 assignment variables.
    anchor: Optional[int] = None
    if allow_anchor:
        coupled = finite & finite.T
        best_size, best_member = 0, 0
        seen = np.zeros(n, dtype=bool)
        for i in range(n):
            if seen[i]:
                continue
            members = np.where(coupled[i])[0]
            seen[members] = True
            if len(members) > best_size:
                best_size = len(members)
                best_member = int(members[0])
        anchor = best_member
        info.anchor = anchor

    windows: List[Optional[FrozenSet[int]]] = [None] * n
    for i in range(n):
        windows[i] = _residues(asap[i], latest[i], t_period)
    if anchor is not None:
        windows[anchor] = _intersect(windows[anchor], frozenset({0}))
        for i in range(n):
            if i == anchor:
                continue
            if finite[anchor, i] and finite[i, anchor]:
                lo = dist[anchor, i]
                hi = -dist[i, anchor]
                windows[i] = _intersect(
                    windows[i], _residues(lo, hi, t_period)
                )
    if any(w is not None and not w for w in windows):
        return _ruled_out(info, "empty_window", start)
    info.slot_windows = windows

    k_bounds: List[Tuple[int, int]] = []
    for i in range(n):
        k_lo = max(0, math.ceil((asap[i] - (t_period - 1)) / t_period))
        k_hi = min(k_max, math.floor(latest[i] / t_period))
        if k_hi < k_lo:
            return _ruled_out(info, "empty_window", start)
        k_bounds.append((int(k_lo), int(k_hi)))
    info.k_bounds = k_bounds

    if colored:
        info.pairs = _classify_pairs(
            ddg, machine, t_period, colored, dist, finite, windows,
        )
    info.seconds = time.monotonic() - start
    return info


def _pair_delta(
    i: int,
    j: int,
    t_period: int,
    dist: np.ndarray,
    finite: np.ndarray,
    windows: List[Optional[FrozenSet[int]]],
) -> Optional[FrozenSet[int]]:
    """Realizable relative residues ``(s_j - s_i) mod T``; None if all."""
    delta: Optional[FrozenSet[int]] = None
    if finite[i, j] and finite[j, i]:
        delta = _residues(dist[i, j], -dist[j, i], t_period)
    wi, wj = windows[i], windows[j]
    if wi is not None and wj is not None:
        from_windows = frozenset(
            (b - a) % t_period for a in wi for b in wj
        )
        delta = _intersect(delta, from_windows)
    return delta


def _classify_pairs(
    ddg: Ddg,
    machine: Machine,
    t_period: int,
    colored: Dict[str, List[int]],
    dist: np.ndarray,
    finite: np.ndarray,
    windows: List[Optional[FrozenSet[int]]],
) -> Dict[Tuple[int, int], PairInterference]:
    pairs: Dict[Tuple[int, int], PairInterference] = {}
    all_residues = frozenset(range(t_period))
    for fu_name, op_indices in colored.items():
        stages = machine.stage_count(fu_name)
        cycles = {
            i: machine.reservation_for(ddg.ops[i].op_class)
            for i in op_indices
        }
        for pos, i in enumerate(op_indices):
            for j in op_indices[pos + 1:]:
                offsets_by_stage: Dict[int, FrozenSet[int]] = {}
                # Per-class tables may have fewer stages than the FU's
                # widest table; past-the-end stages are simply unused
                # (the formulation applies the same rule).
                for s in range(stages):
                    ci = (cycles[i].stage_cycles(s)
                          if s < cycles[i].num_stages else [])
                    cj = (cycles[j].stage_cycles(s)
                          if s < cycles[j].num_stages else [])
                    if ci and cj:
                        offsets_by_stage[s] = _stage_offsets(
                            ci, cj, t_period
                        )
                if not offsets_by_stage:
                    continue  # no shared stage: formulation skips too
                overlap_set = frozenset().union(*offsets_by_stage.values())
                delta = _pair_delta(i, j, t_period, dist, finite, windows)
                realizable = (
                    overlap_set if delta is None else delta & overlap_set
                )
                if not realizable:
                    pairs[(i, j)] = PairInterference(NEVER)
                    continue
                possible = all_residues if delta is None else delta
                if possible <= overlap_set:
                    pairs[(i, j)] = PairInterference(ALWAYS)
                    continue
                # Greedy cover: pick stages until every realizable
                # overlapping residue is witnessed by some emitted stage.
                remaining = set(realizable)
                cover: List[int] = []
                while remaining:
                    best_stage = max(
                        offsets_by_stage,
                        key=lambda s: (len(offsets_by_stage[s]
                                           & remaining), -s),
                    )
                    gained = offsets_by_stage[best_stage] & remaining
                    if not gained:  # pragma: no cover - defensive
                        cover = sorted(offsets_by_stage)
                        break
                    cover.append(best_stage)
                    remaining -= gained
                pairs[(i, j)] = PairInterference(
                    MAYBE, cover_stages=tuple(sorted(cover))
                )
    return pairs
