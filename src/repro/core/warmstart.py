"""Heuristic-primal warm starts for the unified ILP (§6 + Rau [22]).

Rau's iterative modulo scheduler (:mod:`repro.baselines.modulo`) solves
the *same* schedule-and-map problem as the exact formulation, just
approximately: it returns a verified :class:`~repro.core.schedule.
Schedule` at some initiation interval ``II >= T_lb``.  That schedule is
worth a lot to the exact sweep:

* when ``II == T_lb`` the heuristic *is* rate-optimal (the lower bound
  proves it) and no ILP needs to be solved at all;
* otherwise ``II`` is an upper bound that brackets the §6 sweep —
  periods above ``II`` never need to be tried — and the schedule itself
  converts into a complete ILP variable assignment that seeds the
  solver's incumbent at ``T = II`` (HiGHS takes it as an objective
  cutoff: the heuristic/exact interplay of SAT-MapIt and Roorda's
  bounded SMT runs).  Under the feasibility objective, the only one the
  SAT backend solves, the heuristic's period needs no solve at all.

The conversion is the delicate part.  The presolved model
(:mod:`repro.core.presolve`) anchors one op to pattern slot 0 and
narrows slot windows / ``k`` ranges, so a raw heuristic schedule is not
necessarily a point of the *presolved* polytope even though it is a
valid schedule.  :func:`warmstart_assignment` therefore normalizes
first — shift the whole schedule so the anchor lands on slot 0, then
re-minimize the stage indices by a Bellman pass over the dependence
difference constraints with the slot residues held fixed (the same
shift-then-re-minimize argument presolve uses to preserve feasibility)
— and then *validates the assignment row by row* against the built
model.  Anything that does not check out returns ``None`` and the
solver simply runs cold: warm starts are an optimization, never a
semantic input.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.baselines.modulo import iterative_modulo_schedule
from repro.core.errors import VerificationError
from repro.core.formulation import Formulation
from repro.core.schedule import Schedule
from repro.core.verify import verify_schedule
from repro.ddg.graph import Ddg
from repro.ilp.model import Variable
from repro.machine import Machine

#: Tolerance when checking an assignment against the model's rows.
ROW_TOL = 1e-6


@dataclass
class WarmStart:
    """Outcome of one heuristic pre-pass over a loop.

    ``schedule`` is ``None`` when the heuristic exhausted its II budget
    (or produced something that failed independent verification, which
    is treated identically — a broken heuristic must never poison the
    exact path).  Picklable, so it can cross worker-process boundaries.
    """

    loop_name: str
    mii: int
    ii: Optional[int]
    schedule: Optional[Schedule]
    seconds: float
    placements: int


def compute_warmstart(
    ddg: Ddg, machine: Machine, max_extra: int = 10
) -> WarmStart:
    """Run the iterative modulo scheduler as a primal pre-pass.

    The heuristic gets the same ``max_extra`` period budget as the exact
    sweep so the two search the same II range.  The returned schedule
    (if any) has passed :func:`repro.core.verify.verify_schedule` with
    mapping checks on.
    """
    start_clock = time.monotonic()
    result = iterative_modulo_schedule(ddg, machine, max_extra=max_extra)
    schedule = result.schedule
    ii = result.achieved_ii
    if schedule is not None:
        try:
            verify_schedule(schedule, check_mapping=True)
        except VerificationError:
            schedule = None
            ii = None
    return WarmStart(
        loop_name=ddg.name,
        mii=result.mii,
        ii=ii,
        schedule=schedule,
        seconds=time.monotonic() - start_clock,
        placements=result.placements,
    )


# -- schedule -> ILP point ---------------------------------------------------------


def _normalized_point(
    formulation: Formulation, schedule: Schedule
) -> Optional[Tuple[List[int], List[int]]]:
    """Slot residues and stage indices compatible with the built model.

    Without presolve the heuristic start times are used as-is.  With
    presolve, the schedule is shifted so the anchor op sits on pattern
    slot 0, checked against every op's slot window, and the stage
    indices are re-minimized by Bellman relaxation of the dependence
    difference constraints with residues fixed (initialised at the
    presolve ``k`` lower bounds).  Returns ``None`` when the schedule
    cannot be normalized into the model's variable ranges.
    """
    ddg = formulation.ddg
    t_period = formulation.t_period
    n = ddg.num_ops
    starts = schedule.starts
    info = formulation.presolve_info
    active = info is not None

    if not active:
        slots = [s % t_period for s in starts]
        stages = [s // t_period for s in starts]
        for i, var in enumerate(formulation.k):
            if not var.lb <= stages[i] <= var.ub:
                return None
        return slots, stages

    delta = 0
    if info.anchor is not None:
        delta = (-starts[info.anchor]) % t_period
    slots = [(s + delta) % t_period for s in starts]
    for i in range(n):
        if not info.slot_allowed(i, slots[i]):
            return None

    # Componentwise-minimal stage indices with the residues held fixed:
    # k_j - k_i >= ceil((sep_e - T*m_e - s_j + s_i) / T) for every edge.
    separations = ddg.dep_latencies(formulation.machine)
    stages = [info.k_bounds[i][0] for i in range(n)]
    for _ in range(n + 1):
        changed = False
        for dep, sep in zip(ddg.deps, separations):
            lift = math.ceil(
                (sep - t_period * dep.distance
                 - slots[dep.dst] + slots[dep.src]) / t_period
            )
            need = stages[dep.src] + lift
            if need > stages[dep.dst]:
                stages[dep.dst] = need
                changed = True
        if not changed:
            break
    else:  # pragma: no cover - no positive cycle at a feasible period
        return None
    for i in range(n):
        if stages[i] > info.k_bounds[i][1]:
            return None
    return slots, stages


def _relabeled_colors(
    formulation: Formulation, schedule: Schedule
) -> Dict[int, int]:
    """Heuristic colors relabeled to satisfy the symmetry-breaking rows.

    Physical copies of an FU type are interchangeable, so any coloring
    can be renamed by first appearance along the exact order the
    formulation used for its ``sym`` caps (``color[order[r]] <= r + 1``).
    Returns 1-based colors for exactly the ops that own color variables.
    """
    colors: Dict[int, int] = {}
    for fu_name, ordered in formulation.color_order.items():
        remap: Dict[int, int] = {}
        for i in ordered:
            original = schedule.colors[i]
            if original not in remap:
                remap[original] = len(remap) + 1
            colors[i] = remap[original]
    return colors


def _footprint(
    formulation: Formulation, op_index: int, slot: int
) -> frozenset:
    """(stage, pattern-slot) cells op ``op_index`` occupies from ``slot``."""
    table = formulation.machine.reservation_for(
        formulation.ddg.ops[op_index].op_class
    )
    t_period = formulation.t_period
    return frozenset(
        (stage, (slot + cycle) % t_period)
        for stage, cycle in table.usage_offsets()
    )


def warmstart_assignment(
    formulation: Formulation,
    schedule: Schedule,
    validate: bool = True,
) -> Optional[Dict[Variable, float]]:
    """Convert a verified schedule into a full ILP variable assignment.

    Covers every variable the formulation may have created: the ``a``
    matrix and ``k`` vector, coloring variables ``c``/``w``/``o``,
    ``min_fu`` count variables and ``min_buffers`` buffer variables.
    The point is checked row-by-row against the built model (unless
    ``validate=False``); any mismatch returns ``None`` so callers fall
    back to a cold solve.
    """
    if schedule.t_period != formulation.t_period:
        return None
    if not schedule.has_complete_mapping:
        return None
    formulation.build()
    point = _normalized_point(formulation, schedule)
    if point is None:
        return None
    slots, stages = point
    ddg = formulation.ddg
    machine = formulation.machine
    t_period = formulation.t_period
    values: Dict[Variable, float] = {}

    for t in range(t_period):
        for i in range(ddg.num_ops):
            var = formulation.a[t][i]
            if var is not None:
                values[var] = 1.0 if slots[i] == t else 0.0
    for i, var in enumerate(formulation.k):
        values[var] = float(stages[i])

    colors = _relabeled_colors(formulation, schedule)
    for i, var in formulation.color.items():
        values[var] = float(colors[i])

    footprints = {
        i: _footprint(formulation, i, slots[i])
        for i in set(formulation.color)
        | {i for pair in formulation.sign_var for i in pair}
    }
    for (i, j), var in formulation.overlap_var.items():
        overlaps = bool(footprints[i] & footprints[j])
        values[var] = 1.0 if overlaps else 0.0
    for (i, j), var in formulation.sign_var.items():
        overlap_var = formulation.overlap_var.get((i, j))
        folded_always = overlap_var is None  # ALWAYS pair: o == 1 folded in
        overlapping = folded_always or values[overlap_var] == 1.0
        if overlapping:
            values[var] = 1.0 if colors[i] > colors[j] else 0.0
        else:
            values[var] = 0.0

    if formulation.fu_count_var:
        for fu_name, var in formulation.fu_count_var.items():
            colored = [
                colors[i] for i in formulation.color
                if machine.op_class(ddg.ops[i].op_class).fu_type == fu_name
            ]
            if colored:
                used = max(colored)
            else:
                shifted = Schedule(
                    ddg=ddg, machine=machine, t_period=t_period,
                    starts=[slots[i] + t_period * stages[i]
                            for i in range(ddg.num_ops)],
                    colors=dict(schedule.colors),
                )
                used = int(shifted.stage_usage_table(fu_name).max())
            values[var] = float(min(max(1, used), int(var.ub)))

    for e, var in formulation.buffer_var.items():
        dep = ddg.deps[e]
        lifetime = (
            slots[dep.dst] + t_period * stages[dep.dst]
            - slots[dep.src] - t_period * stages[dep.src]
            + t_period * dep.distance
        )
        values[var] = float(max(0, math.ceil(lifetime / t_period)))

    if validate and violated_rows(formulation, values):
        return None
    return values


def violated_rows(
    formulation: Formulation,
    values: Dict[Variable, float],
    tol: float = ROW_TOL,
) -> List[str]:
    """Names of model rows / variable boxes the assignment violates.

    An empty list means ``values`` is a feasible integer point of the
    built model — the property the differential test suite asserts for
    every heuristic-derived warm start.  Missing variables are reported
    as ``missing[<name>]`` entries.
    """
    formulation.build()
    bad: List[str] = []
    for var in formulation.model.variables:
        if var not in values:
            bad.append(f"missing[{var.name}]")
            continue
        value = values[var]
        if value < var.lb - tol or value > var.ub + tol:
            bad.append(f"bounds[{var.name}]")
        elif var.integer and abs(value - round(value)) > tol:
            bad.append(f"integrality[{var.name}]")
    if any(entry.startswith("missing") for entry in bad):
        return bad
    for con in formulation.model.iter_rows():
        if con.violation(values) > tol:
            bad.append(con.name)
    return bad
