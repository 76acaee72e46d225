"""A self-contained CDCL SAT solver.

Pure python, no dependencies, deterministic.  Implements the standard
modern kernel:

* **two-watched literals** — each clause is watched on its first two
  positions; a literal's falsification visits only the clauses watching
  it (MiniSat's invariant and relocation discipline);
* **1-UIP conflict analysis** — resolve backwards along the trail until
  one literal of the current decision level remains, learn the
  asserting clause, backjump to its second-highest level;
* **VSIDS** — exponentially decayed activity with a lazy max-heap that
  holds one live entry per unassigned variable (see below);
* **phase saving** — decisions reuse the last value a variable held;
* **Luby restarts** — universal-sequence restart intervals, with the
  learned-clause database reduced (by LBD) at restart time, when the
  trail is at the root level and watches can be rebuilt safely;
* **assumptions** — forced first decisions, so a caller can pin part of
  an assignment; a conflicting assumption reports
  ``assumption_conflict`` instead of global UNSAT.

Layout.  Values and watch lists are indexed by the signed literal
itself: both lists have ``2n + 1`` slots, ``value[v]``/``watches[v]``
serve literal ``v`` and Python's negative indexing sends ``-v`` to the
top half, so ``value[lit]`` is 1 (true), -1 (false) or 0 (unassigned)
with no sign flip, and assigning a variable writes both of its slots.
Input clauses load in order.  Binary and ternary ones of distinct,
non-complementary, in-range literals (99% of a scheduling CNF) are
checked and attached inline with plain comparisons; every other clause
(units, empty and longer clauses, repeated or complementary literals)
takes the general path, whose sets drop tautologies and collapse
repeats.

Decision heap.  ``order`` holds ``(-activity, -var)`` entries and
``queued[var]`` says that an entry with the variable's current activity
is in it.  A bump only raises the activity and clears ``queued`` (a
bumped variable is always assigned); unassigning pushes a variable whose
``queued`` is clear; popping the entry that matches the current activity
clears it again.  Every unassigned variable therefore has its live entry
in the heap, older entries are skipped on pop, and a decision picks the
unassigned variable with the greatest ``(activity, var)``.  When the
activities are rescaled the heap is rebuilt from the unassigned
variables, so stale keys never steer a decision.  Every variable starts
at activity 0 with saved phase ``False``, unless the caller ranks some
literals in ``prefer``: the literal of rank ``r`` of ``n`` starts at
activity ``1e-3 * (n - r) / n`` with its own sign as the phase, so the
first decisions take them in order, and the first conflict's bump
(1.0) outweighs every seed from then on.

The kernel's search — decisions, conflicts, propagations, learned
clauses and models — is pinned by ``tests/sat/test_search_golden.py``;
a change meant only to make it faster must reproduce that record,
both with and without a ``prefer`` order.

Satisfying assignments are re-checked against every input clause, as
given, before being returned: the solver never hands back a model it
cannot verify in linear time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from operator import neg
from typing import Dict, Iterable, List, Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

#: Conflicts per Luby unit (the sequence multiplies this base).
_RESTART_BASE = 128
#: Wall-clock is polled every this many conflicts or decisions.
_BUDGET_CHECK_EVERY = 256
#: Learned-clause DB reduction trigger: first at this many learned
#: clauses, growing by the same amount after each reduction.
_REDUCE_BASE = 2000
#: Activities are scaled down by 1e-100 once one passes this.
_RESCALE_AT = 1e100


@dataclass
class SatStats:
    """Search counters (reported up through ``Solution.stats``)."""

    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    learned_literals: int = 0
    deleted_clauses: int = 0
    solve_seconds: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "decisions": self.decisions,
            "conflicts": self.conflicts,
            "propagations": self.propagations,
            "restarts": self.restarts,
            "learned_clauses": self.learned_clauses,
            "learned_literals": self.learned_literals,
            "deleted_clauses": self.deleted_clauses,
            "solve_seconds": self.solve_seconds,
        }


@dataclass
class SatResult:
    """Outcome of one :meth:`CdclSolver.solve` call."""

    status: str
    #: ``model[v]`` is the truth value of variable ``v`` (1-based);
    #: present only when ``status == "sat"``.
    model: Optional[List[bool]] = None
    #: True when UNSAT was caused by the assumptions, not the formula.
    assumption_conflict: bool = False
    stats: SatStats = field(default_factory=SatStats)

    def __bool__(self) -> bool:
        return self.status == SAT


def _luby(i: int) -> int:
    """The i-th term (1-based) of the Luby restart sequence."""
    size, seq = 1, 0
    while size < i + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != i:
        size = (size - 1) // 2
        seq -= 1
        i %= size
    return 1 << seq


class CdclSolver:
    """Conflict-driven clause learning over a fixed clause set."""

    def __init__(
        self,
        num_vars: int,
        clauses: Iterable[Sequence[int]],
        prefer: Sequence[int] = (),
    ) -> None:
        self.nvars = num_vars
        # value[lit]: 1 true, -1 false, 0 unassigned (-v wraps to the top)
        self.value = [0] * (2 * num_vars + 1)
        self.level = [0] * (num_vars + 1)
        self.reason: List[Optional[List[int]]] = [None] * (num_vars + 1)
        self.trail: List[int] = []
        self.trail_lim: List[int] = []
        self.qhead = 0
        # watches[lit] = clauses currently watching ``lit``
        self.watches: List[List[List[int]]] = [
            [] for _ in range(2 * num_vars + 1)
        ]
        self.activity = [0.0] * (num_vars + 1)
        self.var_inc = 1.0
        self.var_decay = 1.0 / 0.95
        self.queued = [True] * (num_vars + 1)
        self.phase = [False] * (num_vars + 1)
        self.clauses: List[List[int]] = []
        self.learned: List[List[int]] = []
        self.lbd: Dict[int, int] = {}
        self.stats = SatStats()
        self.ok = True
        # The input clauses as given, kept for the final model audit.
        self._audit: List[Sequence[int]] = []
        nv = num_vars
        for rank, lit in enumerate(prefer):
            if not (lit and -nv <= lit <= nv):
                raise ValueError(
                    f"literal {lit} out of range for {num_vars} vars"
                )
            var = abs(lit)
            self.activity[var] = 1e-3 * (len(prefer) - rank) / len(prefer)
            self.phase[var] = lit > 0
        self.order: List = [
            (-self.activity[v], -v) for v in range(num_vars, 0, -1)
        ]
        heapify(self.order)
        # Plain binary and ternary clauses load inline, as
        # _add_input_clause would load them; the rest take that path.
        watches = self.watches
        for raw in clauses:
            size = len(raw)
            if size == 2:
                a, b = raw
                plain = (a and b and -nv <= a <= nv and -nv <= b <= nv
                         and a != b and a != -b)
            elif size == 3:
                a, b, c = raw
                plain = (a and b and c and -nv <= a <= nv
                         and -nv <= b <= nv and -nv <= c <= nv
                         and a != b and a != -b and a != c and a != -c
                         and b != c and b != -c)
            else:
                plain = False
            if not plain:
                self._add_input_clause(raw)
                continue
            self._audit.append(raw)
            if self.ok:
                clause = list(raw)
                self.clauses.append(clause)
                watches[a].append(clause)
                watches[b].append(clause)

    # -- construction --------------------------------------------------------
    def _add_input_clause(self, raw: Sequence[int]) -> None:
        """Load one clause of any length (the general path)."""
        nv = self.nvars
        for lit in raw:
            if not (lit and -nv <= lit <= nv):
                raise ValueError(f"literal {lit} out of range for {nv} vars")
        lits = set(raw)
        if not lits.isdisjoint(map(neg, raw)):
            return  # tautology
        self._audit.append(raw)
        if not self.ok:
            return
        # Repeated literals are dropped, keeping first occurrences.
        clause = (list(raw) if len(lits) == len(raw)
                  else list(dict.fromkeys(raw)))
        if not clause:
            self.ok = False
            return
        if len(clause) == 1:
            lit = clause[0]
            value = self.value[lit]
            if value == -1:
                self.ok = False
            elif value == 0:
                self._enqueue(lit, None)
            return
        self.clauses.append(clause)
        self._attach(clause)

    def _attach(self, clause: List[int]) -> None:
        self.watches[clause[0]].append(clause)
        self.watches[clause[1]].append(clause)

    # -- trail ---------------------------------------------------------------
    def _enqueue(self, lit: int, reason: Optional[List[int]]) -> None:
        var = abs(lit)
        self.value[lit] = 1
        self.value[-lit] = -1
        self.level[var] = len(self.trail_lim)
        self.reason[var] = reason
        self.trail.append(lit)

    def _cancel_until(self, target: int) -> None:
        if len(self.trail_lim) <= target:
            return
        bound = self.trail_lim[target]
        value = self.value
        phase = self.phase
        reason = self.reason
        queued = self.queued
        activity = self.activity
        order = self.order
        for lit in self.trail[bound:]:
            var = lit if lit > 0 else -lit
            phase[var] = lit > 0
            value[lit] = value[-lit] = 0
            reason[var] = None
            if not queued[var]:
                queued[var] = True
                heappush(order, (-activity[var], -var))
        del self.trail[bound:]
        del self.trail_lim[target:]
        self.qhead = len(self.trail)

    # -- propagation ---------------------------------------------------------
    def _propagate(self) -> Optional[List[int]]:
        value = self.value
        watches = self.watches
        trail = self.trail
        level = self.level
        reason = self.reason
        level_now = len(self.trail_lim)
        qhead = start = self.qhead
        while qhead < len(trail):
            falsified = -trail[qhead]
            qhead += 1
            wl = watches[falsified]
            i = j = 0
            n = len(wl)
            while i < n:
                clause = wl[i]
                i += 1
                if clause[0] == falsified:
                    clause[0] = clause[1]
                    clause[1] = falsified
                first = clause[0]
                first_value = value[first]
                if first_value == 1:
                    wl[j] = clause
                    j += 1
                    continue
                size = len(clause)
                if size == 3:
                    lit = clause[2]
                    if value[lit] != -1:
                        clause[1] = lit
                        clause[2] = falsified
                        watches[lit].append(clause)
                        continue
                elif size > 3:
                    for k in range(2, size):
                        lit = clause[k]
                        if value[lit] != -1:
                            clause[1] = lit
                            clause[k] = falsified
                            watches[lit].append(clause)
                            break
                    else:
                        k = 0  # no literal to watch instead
                    if k:
                        continue
                wl[j] = clause
                j += 1
                if first_value == -1:
                    del wl[j:i]
                    self.qhead = len(trail)
                    self.stats.propagations += qhead - start
                    return clause
                var = first if first > 0 else -first
                value[first] = 1
                value[-first] = -1
                level[var] = level_now
                reason[var] = clause
                trail.append(first)
            del wl[j:]
        self.qhead = qhead
        self.stats.propagations += qhead - start
        return None

    # -- conflict analysis ---------------------------------------------------
    def _rescale(self) -> None:
        """Scale every activity down and rebuild the decision heap."""
        activity = self.activity
        value = self.value
        queued = self.queued
        for v in range(1, self.nvars + 1):
            activity[v] *= 1e-100
            queued[v] = value[v] == 0
        self.var_inc *= 1e-100
        self.order[:] = [
            (-activity[v], -v) for v in range(1, self.nvars + 1)
            if value[v] == 0
        ]
        heapify(self.order)

    def _analyze(self, conflict: List[int]) -> List[int]:
        """Derive the 1-UIP clause; returns [asserting_lit, rest...]."""
        learnt: List[int] = []
        seen = bytearray(self.nvars + 1)
        level = self.level
        activity = self.activity
        queued = self.queued
        trail = self.trail
        var_inc = self.var_inc
        counter = 0
        index = len(trail) - 1
        current = len(self.trail_lim)
        clause = conflict
        while True:
            # A reason clause's first literal is the one it implied,
            # whose variable is already seen.
            for q in clause:
                var = q if q > 0 else -q
                if not seen[var] and level[var] > 0:
                    seen[var] = 1
                    activity[var] += var_inc
                    queued[var] = False
                    if activity[var] > _RESCALE_AT:
                        self._rescale()
                        var_inc = self.var_inc
                    if level[var] >= current:
                        counter += 1
                    else:
                        learnt.append(q)
            p = trail[index]
            while not seen[p if p > 0 else -p]:
                index -= 1
                p = trail[index]
            index -= 1
            counter -= 1
            if counter == 0:
                break
            clause = self.reason[p if p > 0 else -p]
        learnt.insert(0, -p)
        return learnt

    def _backjump_level(self, learnt: List[int]) -> int:
        if len(learnt) == 1:
            return 0
        # Put the second-highest-level literal at position 1 so the
        # watch invariant holds immediately after backjumping.
        level = self.level
        best = 1
        best_level = level[abs(learnt[1])]
        for i in range(2, len(learnt)):
            lit_level = level[abs(learnt[i])]
            if lit_level > best_level:
                best, best_level = i, lit_level
        learnt[1], learnt[best] = learnt[best], learnt[1]
        return best_level

    def _record_learnt(self, learnt: List[int]) -> None:
        self.stats.learned_clauses += 1
        self.stats.learned_literals += len(learnt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        self.learned.append(learnt)
        self.lbd[id(learnt)] = len(
            {self.level[abs(lit)] for lit in learnt}
        )
        self._attach(learnt)
        self._enqueue(learnt[0], learnt)

    # -- clause DB maintenance (root level only) -----------------------------
    def _reduce_db(self) -> None:
        keep_always = []
        candidates = []
        for clause in self.learned:
            if (len(clause) <= 2
                    or self.lbd.get(id(clause), 9) <= 2
                    or self.reason[abs(clause[0])] is clause):
                keep_always.append(clause)
            else:
                candidates.append(clause)
        candidates.sort(key=lambda c: (self.lbd.get(id(c), 9), len(c)))
        kept = candidates[: len(candidates) // 2]
        dropped = len(candidates) - len(kept)
        self.stats.deleted_clauses += dropped
        self.learned = keep_always + kept
        surviving = {id(c) for c in self.learned}
        self.lbd = {
            key: val for key, val in self.lbd.items() if key in surviving
        }
        self._rebuild_watches()

    def _rebuild_watches(self) -> None:
        """Re-attach every clause; callable only with the trail at root.

        At the root level after a clean propagation fixpoint every
        clause is either satisfied or has two non-false literals, so a
        fresh watch assignment is always available.
        """
        for wl in self.watches:
            wl.clear()
        for clause in self.clauses:
            self._rewatch(clause)
        for clause in self.learned:
            self._rewatch(clause)

    def _rewatch(self, clause: List[int]) -> None:
        value = self.value
        free = []
        sat_at = -1
        for i, lit in enumerate(clause):
            if value[lit] == 1:
                sat_at = i
                break
            if value[lit] == 0:
                free.append(i)
                if len(free) == 2:
                    break
        if sat_at >= 0:
            clause[0], clause[sat_at] = clause[sat_at], clause[0]
            for i in range(1, len(clause)):
                if value[clause[i]] != -1:
                    clause[1], clause[i] = clause[i], clause[1]
                    break
        else:
            clause[0], clause[free[0]] = clause[free[0]], clause[0]
            # free positions may have moved if free[1] was position 0
            second = free[1] if free[1] != 0 else free[0]
            clause[1], clause[second] = clause[second], clause[1]
        self._attach(clause)

    # -- decisions -----------------------------------------------------------
    def _pick_branch_var(self) -> int:
        order = self.order
        activity = self.activity
        value = self.value
        while order:
            key, negvar = heappop(order)
            var = -negvar
            if key == -activity[var]:
                self.queued[var] = False
            if value[var] == 0:
                return var
        return 0

    # -- main search ---------------------------------------------------------
    def solve(
        self,
        assumptions: Sequence[int] = (),
        time_limit: Optional[float] = None,
        conflict_limit: Optional[int] = None,
    ) -> SatResult:
        start = time.monotonic()
        deadline = None if time_limit is None else start + time_limit
        stats = self.stats

        def done(status: str, **kw) -> SatResult:
            stats.solve_seconds += time.monotonic() - start
            return SatResult(status=status, stats=stats, **kw)

        if not self.ok:
            return done(UNSAT)
        if self._propagate() is not None:
            self.ok = False
            return done(UNSAT)
        for lit in assumptions:
            if not 1 <= abs(lit) <= self.nvars:
                raise ValueError(f"assumption {lit} out of range")

        assume = list(assumptions)
        restarts = 0
        conflicts_this_restart = 0
        budget = _luby(restarts + 1) * _RESTART_BASE
        reduce_at = _REDUCE_BASE
        ticks = 0

        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts_this_restart += 1
                if not self.trail_lim:
                    self.ok = False
                    return done(UNSAT)
                learnt = self._analyze(conflict)
                target = self._backjump_level(learnt)
                self._cancel_until(target)
                self._record_learnt(learnt)
                self.var_inc *= self.var_decay
                if conflict_limit is not None and (
                        stats.conflicts >= conflict_limit):
                    self._cancel_until(0)
                    return done(UNKNOWN)
                if stats.conflicts % _BUDGET_CHECK_EVERY == 0:
                    if deadline is not None and (
                            time.monotonic() > deadline):
                        self._cancel_until(0)
                        return done(UNKNOWN)
                continue

            if conflicts_this_restart >= budget:
                stats.restarts += 1
                restarts += 1
                conflicts_this_restart = 0
                budget = _luby(restarts + 1) * _RESTART_BASE
                self._cancel_until(0)
                if self.stats.learned_clauses and (
                        len(self.learned) >= reduce_at):
                    self._reduce_db()
                    reduce_at += _REDUCE_BASE
                continue

            ticks += 1
            if ticks % _BUDGET_CHECK_EVERY == 0:
                if deadline is not None and time.monotonic() > deadline:
                    self._cancel_until(0)
                    return done(UNKNOWN)

            decision_level = len(self.trail_lim)
            if decision_level < len(assume):
                lit = assume[decision_level]
                value = self.value[lit]
                if value == -1:
                    self._cancel_until(0)
                    return done(UNSAT, assumption_conflict=True)
                self.trail_lim.append(len(self.trail))
                if value == 0:
                    self._enqueue(lit, None)
                continue

            var = self._pick_branch_var()
            if var == 0:
                model = [x == 1 for x in self.value[: self.nvars + 1]]
                self._audit_model(model)
                self._cancel_until(0)
                return done(SAT, model=model)
            stats.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(var if self.phase[var] else -var, None)

    def _audit_model(self, model: List[bool]) -> None:
        true = {v if model[v] else -v for v in range(1, self.nvars + 1)}
        for clause in self._audit:
            if true.isdisjoint(clause):
                raise RuntimeError(
                    "internal error: CDCL model violates clause "
                    f"{list(clause)!r}"
                )
