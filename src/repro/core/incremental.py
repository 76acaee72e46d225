"""Incremental solver core: state shared across a T-sweep.

The §6 driver solves a *sequence* of near-identical instances — the same
(ddg, machine) at T, T+1, … — yet the cold path re-derives everything
per attempt.  This module holds the three kinds of state that survive a
period bump, each with an explicit validity rule:

**LoopAnalysis** — products of the (ddg, machine) pair alone, valid for
every T: dependence separations, parallel-edge Pareto frontiers (so the
per-T collapsed edge weights are a cheap ``max`` instead of a dep scan),
op grouping by FU type, coloring-need per type, reservation stage
cycles, raw pair stage-offset difference sets (the per-T interference
sets are their residues mod T), and the per-type resource floors.
Consumers (:func:`repro.core.presolve.presolve`,
:class:`repro.core.formulation.Formulation`) are written so that the
analysis-fed path reproduces the cold path's output *exactly* — reuse
must never change a model, only skip recomputation.

**CutPool** — infeasibility certificates that outlive the T that
produced them, each tagged with a validity predicate:

* *cycle floor* (``T < floor`` infeasible): a positive dependence cycle
  at T stays positive for every smaller T; the tight floor is ``T_dep``
  of the attempt machine.  Valid for exactly ``T' < floor``.
* *capacity floor* (``T < floor`` infeasible): the busiest reservation
  stage of some FU type needs ``ceil(uses / count)`` slot-copies; a
  counting argument over the capacity rows (each use occupies exactly
  one modulo slot-copy) makes every smaller T LP-infeasible.  Valid for
  ``T' < floor``.
* *window memo* (exact-T replay): a (machine, T, objective, k_max,
  mapping) tuple whose model was *proven* infeasible — by presolve's
  empty-window / k-range check or by a completed solver run — is
  infeasible forever; the memo replays the verdict on any retry of the
  same tuple (supervision retries, duplicate corpus loops, repeated
  sweeps).

Cuts are only consulted where the cold path reaches the same verdict
deterministically (see :meth:`CutPool.consult`), which is what keeps the
incremental-on/off differential byte-identical.

**SweepContext** — one loop's bundle of the above plus reuse counters.
Contexts live in a per-process registry keyed by exact content digests
(:func:`ddg_digest`, :func:`machine_digest`), so the sequential sweep,
every race worker, and every supervised worker each self-serve their
own context without anything crossing a pickle boundary.  The digests
are exact, not canonical: :class:`LoopAnalysis` indexes ops and FU types
by name and order, so only a byte-identical loop on a machine with the
same FU-type and op-class names may share one.  (The schedule store
keys on canonical digests instead and remaps every hit; see
:mod:`repro.store.keys`.)
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.ddg.builders import serialize_ddg
from repro.ddg.graph import Ddg
from repro.machine import Machine

#: Cut kinds (the ``model_stats["cut_skip"]`` marker values).
CYCLE_FLOOR, CAPACITY_FLOOR, WINDOW_MEMO = (
    "cycle_floor", "capacity_floor", "window_memo",
)


class LoopAnalysis:
    """T-independent products of one (ddg, machine) pair.

    Everything here is derived once and read by every attempt of the
    sweep; nothing depends on the candidate period.
    """

    def __init__(self, ddg: Ddg, machine: Machine) -> None:
        import time

        start = time.monotonic()
        self.ddg = ddg
        self.machine = machine
        #: Per-dep-edge separations (latency overrides applied).
        self.dep_latencies: List[int] = list(ddg.dep_latencies(machine))
        #: Pareto frontier of parallel edges per (src, dst), in first-
        #: occurrence order: the per-T collapsed weight is
        #: ``max(sep - T*dist)`` over the frontier, which equals the max
        #: over *all* parallel edges for every T >= 0 (a dominated edge
        #: — smaller sep, larger dist — can never win).
        self.edge_frontiers: "OrderedDict[Tuple[int, int], List[Tuple[int, int]]]" = OrderedDict()
        for e, dep in enumerate(ddg.deps):
            key = (dep.src, dep.dst)
            frontier = self.edge_frontiers.setdefault(key, [])
            sep, dist = int(self.dep_latencies[e]), int(dep.distance)
            if any(s >= sep and d <= dist for s, d in frontier):
                continue  # dominated: some kept edge is at least as strong
            frontier[:] = [
                (s, d) for s, d in frontier if not (s <= sep and d >= dist)
            ]
            frontier.append((sep, dist))
        #: Op indices per FU-type name (first-occurrence order, matching
        #: ``Formulation._ops_by_type``).
        self.ops_by_type: Dict[str, List[int]] = {}
        for op in ddg.ops:
            fu = machine.op_class(op.op_class).fu_type
            self.ops_by_type.setdefault(fu, []).append(op.index)
        #: FU types whose mapping the ILP must decide under automatic
        #: mapping resolution (``FormulationOptions.mapping=None``) and
        #: under forced mapping (``mapping=True``).
        self.coloring_auto: FrozenSet[str] = frozenset(
            fu for fu in self.ops_by_type
            if self._needs_coloring(fu, forced=False)
        )
        self.coloring_forced: FrozenSet[str] = frozenset(
            fu for fu in self.ops_by_type
            if self._needs_coloring(fu, forced=True)
        )
        #: Reservation stage cycles per (op index, stage); past-the-end
        #: stages are empty, matching ``Formulation._stage_cycles``.
        self.stage_cycles: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self.stage_count: Dict[str, int] = {
            fu: machine.stage_count(fu) for fu in self.ops_by_type
        }
        #: Per-op (stage, cycles) pairs with nonempty cycles, ascending
        #: stage order — the iteration ``Formulation._usage_terms`` runs.
        self.op_stages: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]] = {}
        for fu, op_indices in self.ops_by_type.items():
            for i in op_indices:
                table = machine.reservation_for(ddg.ops[i].op_class)
                used: List[Tuple[int, Tuple[int, ...]]] = []
                for s in range(self.stage_count[fu]):
                    cycles = (
                        tuple(table.stage_cycles(s))
                        if s < table.num_stages else ()
                    )
                    self.stage_cycles[(i, s)] = cycles
                    if cycles:
                        used.append((s, cycles))
                self.op_stages[i] = tuple(used)
        #: Sum of op latencies (the ``_default_k_max`` ingredient).
        self.total_latency: int = int(sum(ddg.latencies(machine)))
        #: Per-FU-type resource floor (capacity-cut source; also the
        #: presolve resource-infeasibility check).
        from repro.core.bounds import per_type_t_res

        self.per_type_t_res: Dict[str, int] = per_type_t_res(ddg, machine)
        self.t_res_floor: int = max(
            self.per_type_t_res.values(), default=1
        )
        #: Raw stage-offset difference multiset supports per colored
        #: pair+stage: the per-T offset set is ``{d % T}`` over these.
        self._pair_diffs: Dict[Tuple[int, int, int], Tuple[int, ...]] = {}
        #: Lazily computed T_dep of this machine (cycle-floor source).
        self._t_dep: Optional[int] = None
        #: Previous attempt's pair interference verdicts per mapping
        #: option — the delta baseline for reused-row accounting.
        self.last_pair_verdicts: Dict[Optional[bool], Tuple[int, dict]] = {}
        self.seconds = time.monotonic() - start

    def _needs_coloring(self, fu_name: str, forced: bool) -> bool:
        """Mirror of ``Formulation._needs_coloring`` for mapping None/True."""
        fu = self.machine.fu_type(fu_name)
        ops_on = self.ops_by_type.get(fu_name, [])
        if len(ops_on) < 2 or fu.count < 2:
            return False
        if forced:
            return True
        return any(
            not self.machine.reservation_for(
                self.ddg.ops[i].op_class
            ).is_clean
            for i in ops_on
        )

    def collapsed_edges(self, t_period: int) -> List[Tuple[int, int, float]]:
        """Collapsed dependence edges at ``t_period``; identical output
        (values *and* order) to ``presolve._collapsed_edges``."""
        return [
            (src, dst, float(max(
                sep - t_period * dist for sep, dist in frontier
            )))
            for (src, dst), frontier in self.edge_frontiers.items()
        ]

    def pair_stage_diffs(self, i: int, j: int, stage: int) -> Tuple[int, ...]:
        """Raw ``l_i - l_j`` differences for a shared stage (cached)."""
        key = (i, j, stage)
        diffs = self._pair_diffs.get(key)
        if diffs is None:
            ci = self.stage_cycles.get((i, stage), ())
            cj = self.stage_cycles.get((j, stage), ())
            diffs = tuple(l1 - l2 for l1 in ci for l2 in cj)
            self._pair_diffs[key] = diffs
        return diffs

    def t_dep(self) -> int:
        """``T_dep`` of the analysis machine (computed once, on demand)."""
        if self._t_dep is None:
            from repro.ddg.analysis import t_dep as compute_t_dep

            self._t_dep = int(compute_t_dep(self.ddg, self.machine))
        return self._t_dep


@dataclass
class CutStats:
    """Counters for cut-pool activity in one context."""

    harvested: int = 0
    skips: Dict[str, int] = field(default_factory=dict)

    def count_skip(self, kind: str) -> None:
        self.skips[kind] = self.skips.get(kind, 0) + 1


class CutPool:
    """Infeasibility certificates with explicit validity predicates.

    Floors are per attempt-machine digest (a repaired machine is a
    different machine); memo entries additionally pin the exact model
    semantics (T, objective, k_max option, mapping).
    """

    def __init__(self) -> None:
        #: machine digest -> T floor: every T' < floor is infeasible
        #: because some dependence cycle stays positive.
        self.cycle_floors: Dict[str, int] = {}
        #: machine digest -> T floor: every T' < floor is infeasible
        #: because some reservation stage cannot fit its uses.
        self.capacity_floors: Dict[str, int] = {}
        #: Proven-infeasible exact tuples (machine digest, T, objective,
        #: k_max option, mapping) -> source ("presolve" | "solver").
        self.window_memo: Dict[tuple, str] = {}
        self.stats = CutStats()

    @staticmethod
    def _memo_key(
        machine_key: str, t_period: int, objective: str,
        k_max: Optional[int], mapping: Optional[bool],
    ) -> tuple:
        return (machine_key, t_period, objective, k_max, mapping)

    def consult(
        self,
        machine_key: str,
        t_period: int,
        objective: str,
        k_max: Optional[int],
        mapping: Optional[bool],
    ) -> Optional[str]:
        """Return the cut kind proving this attempt infeasible, or None.

        Every kind returned here corresponds to a verdict the cold path
        reaches deterministically: floors are re-detected by presolve
        (cycle check / resource-floor check) which stamps the model with
        the trivially-unsatisfiable ``presolve_infeasible`` row, and memo
        entries replay a verdict that was itself proven.  Callers gate
        consultation on ``presolve`` being enabled.
        """
        floor = self.cycle_floors.get(machine_key)
        if floor is not None and t_period < floor:
            self.stats.count_skip(CYCLE_FLOOR)
            return CYCLE_FLOOR
        floor = self.capacity_floors.get(machine_key)
        if floor is not None and t_period < floor:
            self.stats.count_skip(CAPACITY_FLOOR)
            return CAPACITY_FLOOR
        key = self._memo_key(machine_key, t_period, objective, k_max, mapping)
        if key in self.window_memo:
            self.stats.count_skip(WINDOW_MEMO)
            return WINDOW_MEMO
        return None

    def assert_floor(self, kind: str, machine_key: str, floor: int) -> None:
        """Record (or raise) a floor certificate for a machine."""
        table = (
            self.cycle_floors if kind == CYCLE_FLOOR else self.capacity_floors
        )
        if floor > table.get(machine_key, 0):
            table[machine_key] = floor
            self.stats.harvested += 1

    def memoize_infeasible(
        self,
        machine_key: str,
        t_period: int,
        objective: str,
        k_max: Optional[int],
        mapping: Optional[bool],
        source: str,
    ) -> None:
        key = self._memo_key(machine_key, t_period, objective, k_max, mapping)
        if key not in self.window_memo:
            self.window_memo[key] = source
            self.stats.harvested += 1


@dataclass
class ContextStats:
    """Reuse counters for one sweep context (diagnostics / tests)."""

    analyses_built: int = 0
    analysis_hits: int = 0
    analysis_seconds: float = 0.0


class SweepContext:
    """Persistent per-loop state threaded through a T-sweep.

    Holds one :class:`LoopAnalysis` per attempt machine (the base
    machine plus any delay-repaired variants, keyed by content digest)
    and one :class:`CutPool`.  A context is created per (ddg, machine)
    content pair and lives in the per-process registry, so repeated
    sweeps over identical loops — common in synthetic corpora — reuse
    it wholesale.
    """

    #: Distinct attempt machines to keep analyses for (base + repairs).
    MAX_ANALYSES = 8

    def __init__(self, ddg: Ddg, base_machine_key: str) -> None:
        self.ddg = ddg
        self.base_machine_key = base_machine_key
        self.cuts = CutPool()
        self.stats = ContextStats()
        self._analyses: "OrderedDict[str, LoopAnalysis]" = OrderedDict()

    def analysis_for(self, machine: Machine) -> LoopAnalysis:
        """The :class:`LoopAnalysis` for an attempt machine (cached)."""
        machine_key = machine_digest(machine)
        analysis = self._analyses.get(machine_key)
        if analysis is None:
            analysis = LoopAnalysis(self.ddg, machine)
            self._analyses[machine_key] = analysis
            self.stats.analyses_built += 1
            self.stats.analysis_seconds += analysis.seconds
            while len(self._analyses) > self.MAX_ANALYSES:
                self._analyses.popitem(last=False)
        else:
            self._analyses.move_to_end(machine_key)
            self.stats.analysis_hits += 1
        return analysis


def ddg_digest(ddg: Ddg) -> str:
    """Exact content digest of a DDG (its text serialization)."""
    return hashlib.sha256(serialize_ddg(ddg).encode("utf-8")).hexdigest()


def machine_digest(machine: Machine) -> str:
    """Content digest of a machine description.

    Built from every field that affects scheduling — FU types (count,
    cost, reservation rows) and op classes (FU binding, latency, table
    override) — and *only* those: the display ``name`` is deliberately
    excluded, so two machines differing only in what they are called
    share contexts (and batch journals).
    """
    parts = []
    for name in sorted(machine.fu_types):
        fu = machine.fu_types[name]
        parts.append(f"fu {name} {fu.count} {fu.cost} {fu.table!r}")
    for name in sorted(machine.op_classes):
        cls = machine.op_classes[name]
        parts.append(f"class {name} {cls.fu_type} {cls.latency} {cls.table!r}")
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


#: Per-process context registry, LRU-bounded; worker processes each
#: warm their own copy.
_MAX_CONTEXTS = 64
_CONTEXTS: "OrderedDict[Tuple[str, str], SweepContext]" = OrderedDict()
_REGISTRY_HITS = 0
_REGISTRY_MISSES = 0


def context_for(ddg: Ddg, machine: Machine) -> SweepContext:
    """The process-wide :class:`SweepContext` for a (ddg, machine) pair.

    Keyed by content digests so structurally identical loops — distinct
    objects, repeated corpus entries, re-unpickled worker arguments —
    share one context.  The machine key is the *base* machine's; delay-
    repaired variants nest inside the context via :meth:`analysis_for`.
    """
    global _REGISTRY_HITS, _REGISTRY_MISSES
    machine_key = machine_digest(machine)
    key = (ddg_digest(ddg), machine_key)
    context = _CONTEXTS.get(key)
    if context is None:
        context = SweepContext(ddg, machine_key)
        _CONTEXTS[key] = context
        _REGISTRY_MISSES += 1
        while len(_CONTEXTS) > _MAX_CONTEXTS:
            _CONTEXTS.popitem(last=False)
    else:
        _CONTEXTS.move_to_end(key)
        _REGISTRY_HITS += 1
    return context


def incremental_stats() -> dict:
    """Aggregate context/cut counters for this process (diagnostics)."""
    skips: Dict[str, int] = {}
    harvested = 0
    analyses_built = 0
    analysis_hits = 0
    for context in _CONTEXTS.values():
        harvested += context.cuts.stats.harvested
        for kind, count in context.cuts.stats.skips.items():
            skips[kind] = skips.get(kind, 0) + count
        analyses_built += context.stats.analyses_built
        analysis_hits += context.stats.analysis_hits
    return {
        "contexts": len(_CONTEXTS),
        "registry_hits": _REGISTRY_HITS,
        "registry_misses": _REGISTRY_MISSES,
        "analyses_built": analyses_built,
        "analysis_hits": analysis_hits,
        "cuts_harvested": harvested,
        "attempts_skipped": sum(skips.values()),
        "cut_skips": skips,
    }


def clear_contexts() -> None:
    """Drop every context (tests, or to bound memory in long runs)."""
    global _REGISTRY_HITS, _REGISTRY_MISSES
    _CONTEXTS.clear()
    _REGISTRY_HITS = 0
    _REGISTRY_MISSES = 0
