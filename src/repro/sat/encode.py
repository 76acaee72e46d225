"""CNF lowering of the presolved scheduling formulation.

Translates the structure of a :class:`repro.core.formulation.Formulation`
(the unified Eq. 22-25 model, post-presolve) into propositional clauses,
without building its ILP rows:

* **slots** — one literal per surviving ``a[t][i]`` variable, an
  exactly-one row per op (the windowed assignment constraint);
* **stages** — each ``k_i`` is order-encoded over its presolved bounds
  (``g_j`` reads "k_i >= lb+j+1", chained so the encoding is monotone);
* **residues** — each op's slot ``v_i`` is also order-encoded over its
  surviving slots (``r_j`` reads "v_i >= w_j" for the j-th slot past
  the first), channelled to the slot literals;
* **dependences** — ``T*(k_dst - k_src) + v_dst - v_src >= rho`` splits
  on the stage difference ``D``: values too small for any residue pair
  become one unconditional ladder over the ``k`` order literals, values
  every residue pair satisfies vanish, and each of the (at most two)
  values in between gets a gate ``g`` with ``!g -> D >= d+1`` (a
  ladder) and ``g -> v_dst - v_src >= rho - T*d`` (one ternary clause
  per source slot), so the clause count is linear in T and K;
* **capacities** — per (FU type, stage, slot) occupancy literals
  bounded by the FU count through a sequential-counter or totalizer
  cardinality encoding (:mod:`repro.sat.cardinality`), over the cells
  :meth:`~repro.core.formulation.Formulation.capacity_cells` says can
  bind, each distinct occupancy once — the rule the ILP rows follow;
* **mapping** — direct-encoded colors with the formulation's own
  symmetry caps as unit clauses; pair interference follows the
  verdicts of :meth:`~repro.core.formulation.Formulation.coloring_pairs`
  (NEVER pairs vanish, ALWAYS pairs get per-color conflict clauses,
  MAYBE pairs get a reservation-table collision indicator over exactly
  the colliding slot pairs).

Only the feasibility objective is supported — the sweep's hot path;
any other raises :class:`repro.sat.errors.SatEncodeError` so the
dispatcher can fail fast with a clear message.  Periods are always
modulo-feasible (:class:`repro.core.Formulation` refuses the rest), so
every usage expression is 0-1, and never ruled out by presolve
(``Formulation.solve`` answers those before any backend).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.presolve import ALWAYS, NEVER
from repro.ilp.model import Variable
from repro.sat.cardinality import at_most_k, exactly_one
from repro.sat.cnf import Cnf
from repro.sat.errors import SatEncodeError


@dataclass
class SatEncoding:
    """A lowered formulation plus the maps needed to decode models."""

    cnf: Cnf = field(default_factory=Cnf)
    #: Per op: surviving slot -> slot literal.
    slot_lits: List[Dict[int, int]] = field(default_factory=list)
    #: Per op: k lower bound and order literals (g_j <=> k >= lb+j+1).
    k_lb: List[int] = field(default_factory=list)
    k_lits: List[List[int]] = field(default_factory=list)
    #: Per op: surviving slots ascending, and order literals
    #: (r_j <=> v >= slots[j+1]).
    v_slots: List[List[int]] = field(default_factory=list)
    v_lits: List[List[int]] = field(default_factory=list)
    #: Per colored op: one literal per color 1..R.
    color_lits: Dict[int, List[int]] = field(default_factory=dict)
    #: Cardinality encoding(s) actually used for capacity rows.
    card_encodings: Tuple[str, ...] = ()
    encode_seconds: float = 0.0

    def k_ge(self, op_index: int, bound: int) -> Optional[int]:
        """Literal for ``k_op >= bound``; None = constant true, 0 = false."""
        lb = self.k_lb[op_index]
        if bound <= lb:
            return None
        j = bound - lb - 1
        lits = self.k_lits[op_index]
        if j >= len(lits):
            return 0
        return lits[j]

    def v_ge(self, op_index: int, bound: int) -> Optional[int]:
        """Literal for ``v_op >= bound``; None = constant true, 0 = false."""
        slots = self.v_slots[op_index]
        j = bisect_left(slots, bound)
        if j == 0:
            return None
        if j == len(slots):
            return 0
        return self.v_lits[op_index][j - 1]


def encode_formulation(formulation) -> SatEncoding:
    """Lower ``formulation`` to CNF; raises SatEncodeError if unsupported
    and CoreError if presolve ruled its period out."""
    start = time.monotonic()
    if formulation.options.objective != "feasibility":
        raise SatEncodeError(
            "the sat backend is feasibility-only; objective "
            f"{formulation.options.objective!r} needs an ILP backend "
            "(highs)"
        )
    formulation.require_open()

    encoding = SatEncoding()
    cnf = encoding.cnf
    ddg = formulation.ddg
    machine = formulation.machine
    t_period = formulation.t_period
    n = ddg.num_ops
    append = cnf.clauses.append

    # -- slots ---------------------------------------------------------------
    # Slot literals by the ``index`` of their ``a`` variable.
    sat_of: Dict[int, int] = {}
    for i in range(n):
        column = [(t, row[i]) for t, row in enumerate(formulation.a)
                  if row[i] is not None]
        lits: Dict[int, int] = {}
        for (t, var), lit in zip(column, cnf.new_vars(len(column))):
            lits[t] = lit
            sat_of[var.index] = lit
        encoding.slot_lits.append(lits)
        exactly_one(cnf, list(lits.values()))

    # -- stage counters (order encoding) -------------------------------------
    for var in formulation.k:
        lb = int(var.lb)
        lits = cnf.new_vars(int(var.ub) - lb)
        for j in range(1, len(lits)):
            append([-lits[j], lits[j - 1]])
        encoding.k_lb.append(lb)
        encoding.k_lits.append(lits)

    # -- slot residues (order encoding) --------------------------------------
    for lits in encoding.slot_lits:
        slots = list(lits)  # ascending: filled in slot order
        order = cnf.new_vars(len(slots) - 1)
        for j in range(1, len(order)):
            append([-order[j], order[j - 1]])
        # Slot w_j holds exactly when r_{j-1} and not r_j (r_{-1} is
        # true and r_last false).
        for j, v in enumerate(slots if order else ()):
            clause = [lits[v]]
            if j > 0:
                append([-lits[v], order[j - 1]])
                clause.append(-order[j - 1])
            if j < len(order):
                append([-lits[v], -order[j]])
                clause.append(order[j])
            append(clause)
        encoding.v_slots.append(slots)
        encoding.v_lits.append(order)

    # -- dependences ---------------------------------------------------------
    separations = ddg.dep_latencies(machine)
    for e, dep in enumerate(ddg.deps):
        rhs = separations[e] - t_period * dep.distance
        src, dst = dep.src, dep.dst
        if src == dst:
            if rhs > 0:
                cnf.add_clause([])
            continue
        _encode_dependence(encoding, src, dst, rhs, t_period)

    # -- capacities ----------------------------------------------------------
    seen_rows: set = set()
    occupancy_aux: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    cards_used: set = set()
    for fu_name, _stage, _users, slots in formulation.capacity_cells():
        capacity = formulation.capacity_floor(fu_name)
        for occupants in slots:
            if len(occupants) <= capacity:
                continue
            key = formulation.occupancy_key(occupants)
            if key in seen_rows:
                continue
            seen_rows.add(key)
            occ_lits = []
            for i, part in occupants:
                lits = tuple(sorted(sat_of[var.index] for var in part))
                if len(lits) == 1:
                    occ_lits.append(lits[0])
                    continue
                aux_key = (i, lits)
                aux = occupancy_aux.get(aux_key)
                if aux is None:
                    aux = cnf.new_var()
                    occupancy_aux[aux_key] = aux
                    for lit in lits:
                        cnf.add(-lit, aux)
                occ_lits.append(aux)
            cards_used.add(at_most_k(cnf, occ_lits, capacity))
    encoding.card_encodings = tuple(sorted(cards_used))

    # -- mapping (circular-arc coloring) -------------------------------------
    for fu_name in formulation.colored_types:
        count = machine.fu_type(fu_name).count
        for i in formulation.ops_by_type[fu_name]:
            lits = cnf.new_vars(count)
            encoding.color_lits[i] = lits
            exactly_one(cnf, lits)
        for rank, i in enumerate(formulation.symmetry_caps(fu_name)):
            for r in range(rank + 1, count):
                cnf.add(-encoding.color_lits[i][r])
        for i, j, shared, kind, _cover in formulation.coloring_pairs(
            fu_name
        ):
            _encode_pair_conflict(
                formulation, encoding, i, j, shared, kind, count
            )

    encoding.encode_seconds = time.monotonic() - start
    return encoding


def _encode_dependence(
    encoding: SatEncoding, src: int, dst: int, rhs: int, t_period: int
) -> None:
    """Clauses for ``T*(k_dst - k_src) + v_dst - v_src >= rhs``.

    At most two gated residue chains plus three stage ladders: O(T + K)
    clauses, whatever the slot windows.
    """
    cnf = encoding.cnf
    src_slots, dst_slots = encoding.v_slots[src], encoding.v_slots[dst]
    v_src, v_dst = partial(encoding.v_ge, src), partial(encoding.v_ge, dst)
    k_src, k_dst = partial(encoding.k_ge, src), partial(encoding.k_ge, dst)
    src_lb = encoding.k_lb[src]
    stages = range(src_lb, src_lb + len(encoding.k_lits[src]) + 1)
    diff_lb = encoding.k_lb[dst] - stages[-1]
    diff_ub = encoding.k_lb[dst] + len(encoding.k_lits[dst]) - src_lb
    # D >= need for some residue pair to fit; every pair fits from
    # D >= settled on (ceil divisions).
    need = -((dst_slots[-1] - src_slots[0] - rhs) // t_period)
    settled = -((dst_slots[0] - src_slots[-1] - rhs) // t_period)
    if need > diff_lb:
        _emit_difference(cnf, [], stages, k_src, k_dst, need)
    for level in range(max(need, diff_lb), min(settled, diff_ub + 1)):
        gate = cnf.new_var()
        _emit_difference(cnf, [gate], stages, k_src, k_dst, level + 1)
        _emit_difference(cnf, [-gate], src_slots, v_src, v_dst,
                         rhs - t_period * level)


def _emit_difference(
    cnf: Cnf,
    premise: List[int],
    points: Sequence[int],
    src_ge: Callable[[int], Optional[int]],
    dst_ge: Callable[[int], Optional[int]],
    gap: int,
) -> None:
    """Clauses ``premise | (x_dst - x_src >= gap)`` over order literals.

    ``points`` is ``x_src``'s domain, ascending; ``*_ge(b)`` is the
    literal for ``x >= b`` (None = constant true, 0 = false).  For each
    point ``a``: ``(x_src >= a) -> (x_dst >= a + gap)``.  Constant-true
    conclusions are skipped; the first constant-false conclusion
    subsumes all later ones (the order encoding is monotone), so the
    chain stops there.
    """
    for a in points:
        conclusion = dst_ge(a + gap)
        if conclusion is None:
            continue
        clause = list(premise)
        prem_lit = src_ge(a)
        if prem_lit is not None:
            clause.append(-prem_lit)
        if conclusion == 0:
            cnf.add_clause(clause)
            break
        clause.append(conclusion)
        cnf.add_clause(clause)


def _encode_pair_conflict(
    formulation,
    encoding: SatEncoding,
    i: int,
    j: int,
    shared: List[int],
    kind: str,
    count: int,
) -> None:
    """Different-color clauses for one same-FU-type op pair.

    NEVER pairs get none and ALWAYS pairs a conflict per color.  A
    MAYBE pair conflicts when its slots collide on a shared stage (the
    slot-pair analog of the ILP's ``ov`` rows).
    """
    if kind == NEVER:
        return
    cnf = encoding.cnf
    ci, cj = encoding.color_lits[i], encoding.color_lits[j]
    if kind == ALWAYS:
        for r in range(count):
            cnf.add(-ci[r], -cj[r])
        return
    t_period = formulation.t_period
    residues = set()
    for s in shared:
        cycles_j = formulation.stage_cycles(j, s)
        for l_i in formulation.stage_cycles(i, s):
            for l_j in cycles_j:
                residues.add((l_i - l_j) % t_period)
    colliding: List[Tuple[int, int]] = []
    total = 0
    for v_i, s_i in encoding.slot_lits[i].items():
        for v_j, s_j in encoding.slot_lits[j].items():
            total += 1
            if (v_j - v_i) % t_period in residues:
                colliding.append((s_i, s_j))
    if not colliding:
        return
    if len(colliding) == total:
        for r in range(count):
            cnf.add(-ci[r], -cj[r])
        return
    overlap = cnf.new_var()
    for s_i, s_j in colliding:
        cnf.add(-s_i, -s_j, overlap)
    for r in range(count):
        cnf.add(-overlap, -ci[r], -cj[r])


def decode_model(
    formulation, encoding: SatEncoding, model: Sequence[bool]
) -> Dict[Variable, float]:
    """The formulation's ``a``, ``k`` and ``c`` values in a CDCL model.

    These are all :meth:`~repro.core.formulation.Formulation.extract`
    reads; the caller checks the extracted schedule before trusting it.
    """
    values: Dict[Variable, float] = {}
    for i, lits in enumerate(encoding.slot_lits):
        for t, lit in lits.items():
            values[formulation.a[t][i]] = 1.0 if model[lit] else 0.0
    for i, var in enumerate(formulation.k):
        count = sum(1 for lit in encoding.k_lits[i] if model[lit])
        values[var] = float(encoding.k_lb[i] + count)
    for i, var in formulation.color.items():
        lits = encoding.color_lits[i]
        color = next(r for r, lit in enumerate(lits) if model[lit])
        values[var] = float(color + 1)
    return values
