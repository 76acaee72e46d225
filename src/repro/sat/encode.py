"""CNF lowering of the presolved scheduling formulation.

Translates the structure of a :class:`repro.core.formulation.Formulation`
(the unified Eq. 22-25 model, post-presolve) into propositional clauses,
without building its ILP rows:

* **slots** — one literal per surviving ``a[t][i]`` variable, an
  exactly-one row per op (the windowed assignment constraint);
* **stages** — each ``k_i`` is order-encoded over its presolved bounds
  (``g_j`` reads "k_i >= lb+j+1", chained so the encoding is monotone);
* **dependences** — ``t_dst - t_src >= rho`` decomposes per slot pair
  into a stage-difference bound ``k_dst - k_src >= L`` with
  ``L = ceil((rho + v_src - v_dst) / T)``: always-true pairs vanish,
  impossible pairs become binary conflict clauses, the rest share an
  implication ladder over the order literals (grouped by ``L`` behind
  one activation literal when several slot pairs agree);
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
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.presolve import ALWAYS, NEVER
from repro.ilp.model import Variable
from repro.sat.cardinality import at_most_k, exactly_one
from repro.sat.cnf import Cnf
from repro.sat.errors import SatEncodeError

#: Slot-pair buckets at least this large share one activation literal.
_LADDER_GROUP_MIN = 2


@dataclass
class SatEncoding:
    """A lowered formulation plus the maps needed to decode models."""

    cnf: Cnf = field(default_factory=Cnf)
    #: Per op: surviving slot -> slot literal.
    slot_lits: List[Dict[int, int]] = field(default_factory=list)
    #: Per op: k lower bound and order literals (g_j <=> k >= lb+j+1).
    k_lb: List[int] = field(default_factory=list)
    k_lits: List[List[int]] = field(default_factory=list)
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

    # -- slots ---------------------------------------------------------------
    sat_of: Dict[Variable, int] = {}
    for i in range(n):
        lits: Dict[int, int] = {}
        for t in range(t_period):
            var = formulation.a[t][i]
            if var is not None:
                lit = cnf.new_var()
                lits[t] = lit
                sat_of[var] = lit
        encoding.slot_lits.append(lits)
        exactly_one(cnf, list(lits.values()))

    # -- stage counters (order encoding) -------------------------------------
    for var in formulation.k:
        lb, ub = int(var.lb), int(var.ub)
        lits = [cnf.new_var() for _ in range(ub - lb)]
        for j in range(1, len(lits)):
            cnf.add(-lits[j], lits[j - 1])
        encoding.k_lb.append(lb)
        encoding.k_lits.append(lits)

    # -- dependences ---------------------------------------------------------
    separations = ddg.dep_latencies(machine)
    for e, dep in enumerate(ddg.deps):
        rhs = separations[e] - t_period * dep.distance
        src, dst = dep.src, dep.dst
        if src == dst:
            if rhs > 0:
                cnf.add_clause([])
            continue
        src_lb, src_ub = encoding.k_lb[src], (
            encoding.k_lb[src] + len(encoding.k_lits[src])
        )
        dst_lb, dst_ub = encoding.k_lb[dst], (
            encoding.k_lb[dst] + len(encoding.k_lits[dst])
        )
        buckets: Dict[int, List[Tuple[int, int]]] = {}
        for v_src, s_src in encoding.slot_lits[src].items():
            for v_dst, s_dst in encoding.slot_lits[dst].items():
                bound = rhs + v_src - v_dst
                level = -((-bound) // t_period)  # ceil(bound / T)
                if level <= dst_lb - src_ub:
                    continue  # satisfied for every stage choice
                if level > dst_ub - src_lb:
                    cnf.add(-s_src, -s_dst)
                    continue
                buckets.setdefault(level, []).append((s_src, s_dst))
        for level in sorted(buckets):
            pairs = buckets[level]
            if len(pairs) >= _LADDER_GROUP_MIN:
                trigger = cnf.new_var()
                for s_src, s_dst in pairs:
                    cnf.add(-s_src, -s_dst, trigger)
                _emit_ladder(encoding, src, dst, level, [-trigger])
            else:
                for s_src, s_dst in pairs:
                    _emit_ladder(
                        encoding, src, dst, level, [-s_src, -s_dst]
                    )

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
                lits = tuple(sorted(sat_of[var] for var in part))
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
            lits = [cnf.new_var() for _ in range(count)]
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


def _emit_ladder(
    encoding: SatEncoding,
    src: int,
    dst: int,
    level: int,
    premise: List[int],
) -> None:
    """Clauses for ``premise -> (k_dst - k_src >= level)``.

    Uses the order-literal ladder: for each admissible ``a``,
    ``(k_src >= a) -> (k_dst >= a + level)``.  Constant-true
    conclusions are skipped; the first constant-false conclusion
    subsumes all later ones (the order encoding is monotone), so the
    ladder stops there.
    """
    src_lb = encoding.k_lb[src]
    src_ub = src_lb + len(encoding.k_lits[src])
    dst_lb = encoding.k_lb[dst]
    start = max(src_lb, dst_lb - level + 1)
    for a in range(start, src_ub + 1):
        conclusion = encoding.k_ge(dst, a + level)
        if conclusion is None:
            continue
        clause = list(premise)
        prem_lit = encoding.k_ge(src, a)
        if prem_lit is not None and prem_lit != 0:
            clause.append(-prem_lit)
        if conclusion == 0:
            encoding.cnf.add_clause(clause)
            break
        clause.append(conclusion)
        encoding.cnf.add_clause(clause)


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
