"""The unified formulation (paper §4–§5).

Given a loop DDG, a machine and a candidate period ``T``, states one
model whose feasible points are exactly the valid software-pipelined
schedules *with a fixed instruction-to-FU mapping*.  Its structure —
slot windows, stage bounds, Eq. 25 usage, colors and the pair verdicts
that gate them — is built on construction and read by both backends:
HiGHS through the integer linear program :meth:`Formulation.build`
emits, the SAT backend through its CNF lowering (:mod:`repro.sat`).
The ILP:

Variables
    * ``a[t][i]``  (0-1)  — instruction ``i`` starts at pattern slot ``t``
      (the A matrix of Eq. 1; captures the modulo reservation table).
    * ``k[i]``     (int)  — the stage index of Eq. 1; the start time is
      the *expression* ``t_i = T*k_i + sum_t t * a[t][i]`` (Eq. 7/22
      substituted directly, which saves one variable per op).
    * ``c[i]``     (int in [1, R_r]) — the color/physical FU of ``i``
      (§4.2), created only for FU types where mapping is non-trivial.
    * ``w[i][j]``  (0-1) — Hu's [12] sign variables linearizing
      ``|c_i - c_j| >= 1``.
    * ``o[i][j]``  (0-1) — overlap indicators derived from stage usage.

Constraints
    * assignment:      ``sum_t a[t][i] == 1``                      (Eq. 9/23)
    * dependences:     ``t_j - t_i >= d_i - T*m_ij``               (Eq. 4/8)
    * stage capacity:  ``sum_i U_s[t][i] <= R_r``                  (Eq. 5/24)
      where ``U_s[t][i] = sum_l rho_r[s][l] * a[(t-l) mod T][i]``  (Eq. 25)
      — §4.1's cyclic usage for non-pipelined units is the special case
      of a single-stage all-ones reservation table.
    * coloring (§4.2/§5): overlap on any stage of a shared FU type forces
      different colors::

          o_ij >= U_s[t][i] + U_s[t][j] - 1        for all s, t
          c_i - c_j >= 1 - R*(1 - w_ij) - R*(1 - o_ij)
          c_j - c_i >= 1 - R*w_ij       - R*(1 - o_ij)

      (Theorem 4.1: two ops get distinct colors iff they overlap — here
      "iff" is relaxed to "if", which preserves exactly the same feasible
      schedules since extra distinctness never helps the solver.)

Objectives (selectable)
    * ``feasibility``  — pure satisfiability (rate-optimality comes from
      the driver sweeping T upward from T_lb);
    * ``min_sum_t``    — compact schedules (short prologs), the guiding
      heuristic mentioned in the paper;
    * ``min_fu``       — ``min sum_r C_r * R_r`` with FU counts as
      decision variables (Eq. 5 context);
    * ``min_buffers``  — Ning–Gao [18]-style buffer minimization.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core.bounds import modulo_feasible_t
from repro.core.errors import CoreError, MappingError, ModuloInfeasibleError
from repro.core.presolve import ALWAYS, MAYBE, NEVER, PresolveInfo, presolve
from repro.core.schedule import Schedule, greedy_mapping
from repro.ddg.graph import Ddg
from repro.ilp import (
    LinExpr, Model, Solution, SolveStatus, SolverError, Variable, lin_sum,
)
from repro.ilp.model import GE, LE, EQ, ModelStats, RowSpec
from repro.ilp.solve import ILP_BACKENDS, _validate_time_limit
from repro.ilp.solve import solve as solve_ilp
from repro.machine import Machine

OBJECTIVES = (
    "feasibility", "min_sum_t", "min_fu", "min_buffers", "min_lifetimes",
)

#: Every accepted ``backend`` of :meth:`Formulation.solve`; ``auto`` is
#: HiGHS.
BACKENDS = ILP_BACKENDS + ("sat",)


@dataclass
class FormulationOptions:
    """Knobs for :class:`Formulation`.

    ``mapping=None`` resolves automatically: coloring constraints are
    emitted only for FU types that need them (count >= 2 and at least one
    unclean reservation table in use).  Setting ``mapping=False`` forces
    the *counting-only* relaxation of §4.1 (used by experiment E11 to
    demonstrate that aggregate feasibility does not imply mappability);
    ``mapping=True`` forces coloring for every multi-copy type.
    """

    mapping: Optional[bool] = None
    objective: str = "feasibility"
    #: Run the dependence-implied presolve (:mod:`repro.core.presolve`)
    #: before emitting the model: slot-window variable elimination, pair
    #: interference pruning, capacity row dedup.  Preserves feasibility
    #: and every objective's optimum exactly; disable to get the plain
    #: paper encoding (useful for differential testing and profiling).
    presolve: bool = True

    def __post_init__(self) -> None:
        if self.objective not in OBJECTIVES:
            raise CoreError(
                f"unknown objective {self.objective!r}; pick from {OBJECTIVES}"
            )


class Formulation:
    """The §4–§5 model of one (ddg, machine, T) triple.

    Construction builds the structure both backends read: the presolve
    verdict, the windowed ``a`` slot variables, the bounded ``k`` stage
    variables, the ``c`` colors of the FU types that need mapping, the
    Eq. 25 usage terms and the op order of the symmetry caps.
    :meth:`build` emits the ILP rows over that structure, which only
    HiGHS reads; :meth:`solve` is the one backend dispatch.
    """

    def __init__(
        self,
        ddg: Ddg,
        machine: Machine,
        t_period: int,
        options: Optional[FormulationOptions] = None,
    ) -> None:
        if t_period < 1:
            raise CoreError(f"period must be >= 1, got {t_period}")
        self.ddg = ddg
        self.machine = machine
        self.t_period = t_period
        self.options = options or FormulationOptions()
        ddg.validate_against(machine)
        if not modulo_feasible_t(ddg, machine, t_period):
            raise ModuloInfeasibleError(
                f"T={t_period} violates the modulo scheduling constraint "
                f"for loop {ddg.name!r}"
            )
        start = time.monotonic()
        self._built = False
        self.model: Model = Model(f"{ddg.name}@T={t_period}")
        self.fu_count_var: Dict[str, Variable] = {}
        # Coloring side variables, keyed so a warm start can assign them:
        # w[i,j] sign binaries, o[i,j] overlap binaries (absent for pairs
        # where presolve folded the indicator) and b[e] buffer counts.
        self.sign_var: Dict[Tuple[int, int], Variable] = {}
        self.overlap_var: Dict[Tuple[int, int], Variable] = {}
        self.buffer_var: Dict[int, Variable] = {}
        self._elim_vars = 0
        self._elim_rows = 0
        self._elim_nnz = 0

        #: Op indices grouped by FU type, in first-occurrence order.
        self.ops_by_type: Dict[str, List[int]] = {}
        for op in ddg.ops:
            fu = machine.op_class(op.op_class).fu_type
            self.ops_by_type.setdefault(fu, []).append(op.index)
        colored = {
            fu: ops for fu, ops in self.ops_by_type.items()
            if self._needs_coloring(fu, ops)
        }
        k_max = self._default_k_max()
        info: Optional[PresolveInfo] = None
        if self.options.presolve:
            info = presolve(
                ddg, machine, t_period,
                objective=self.options.objective,
                k_max=k_max,
                colored=colored,
            )
        #: None only under ``presolve=False``.  When presolve rules T
        #: out, construction stops here: nothing to build or encode.
        self.presolve_info = info
        presolve_seconds = info.seconds if info is not None else 0.0
        self.model_stats = ModelStats(presolve_seconds=presolve_seconds)
        if self.ruled_out:
            return
        n = ddg.num_ops

        # Variables: A matrix (windowed) and K vector (bounded).
        self.a: List[List[Optional[Variable]]] = []   # a[t][i]; None = pruned
        for t in range(t_period):
            row: List[Optional[Variable]] = []
            for i in range(n):
                if info is not None and not info.slot_allowed(i, t):
                    row.append(None)
                    self._elim_vars += 1
                else:
                    row.append(self.model.add_binary(f"a[{t},{i}]"))
            self.a.append(row)
        k_bounds = (
            info.k_bounds if info is not None else [(0, k_max)] * n
        )
        self.k: List[Variable] = [
            self.model.add_var(f"k[{i}]", lb=lo, ub=hi, integer=True)
            for i, (lo, hi) in enumerate(k_bounds)
        ]
        # Start-time expressions t_i = T*k_i + sum_t t*a[t][i]   (Eq. 7/22)
        self.t_expr: List[LinExpr] = [
            lin_sum(
                [self.k[i] * t_period]
                + [self.a[t][i] * t for t in range(1, t_period)
                   if self.a[t][i] is not None]
            )
            for i in range(n)
        ]
        if self.options.objective == "min_fu":
            # FU counts as variables (HiGHS only; they bound the colors).
            for fu_name in self.ops_by_type:
                self.fu_count_var[fu_name] = self.model.add_var(
                    f"R[{fu_name}]", lb=1,
                    ub=machine.fu_type(fu_name).count, integer=True,
                )

        # Colors of the FU types whose mapping the model decides.  Colors
        # are interchangeable, so any coloring can be relabeled by first
        # appearance along a fixed op order; ordering by earliest
        # possible start slot makes the symmetry caps bite where search
        # branches first.
        self.colored_types: List[str] = list(colored)
        self.color: Dict[int, Variable] = {}
        self.color_order: Dict[str, List[int]] = {}
        for fu_name, op_indices in colored.items():
            count = machine.fu_type(fu_name).count
            for i in op_indices:
                self.color[i] = self.model.add_var(
                    f"c[{i}]", lb=1, ub=count, integer=True
                )
            self.color_order[fu_name] = (
                sorted(op_indices, key=lambda i: (info.asap[i], i))
                if info is not None else list(op_indices)
            )

        #: ``U_s[t][i]`` per Eq. 25, keyed (op, stage, slot).
        self.usage = self._usage_terms()
        self.model_stats.build_seconds = (
            time.monotonic() - start - presolve_seconds
        )

    # -- structure ----------------------------------------------------------------
    @property
    def ruled_out(self) -> str:
        """Presolve's reason that no schedule exists at this T, or ""."""
        return self.presolve_info.reason if self.presolve_info else ""

    def require_open(self) -> None:
        """Refuse to lower a period presolve ruled out."""
        if self.ruled_out:
            raise CoreError(f"presolve ruled out T={self.t_period} for "
                            f"{self.ddg.name!r} ({self.ruled_out})")

    def _needs_coloring(self, fu_name: str, ops_on: List[int]) -> bool:
        """Whether mapping must be decided by the model for this FU type."""
        if self.options.mapping is False:
            return False
        if len(ops_on) < 2 or self.machine.fu_type(fu_name).count < 2:
            # count == 1: aggregate capacity 1 already forbids any overlap,
            # which *is* the mapping constraint.
            return False
        if self.options.mapping is True:
            return True
        return any(
            not self.machine.reservation_for(
                self.ddg.ops[i].op_class
            ).is_clean
            for i in ops_on
        )

    def _default_k_max(self) -> int:
        total_latency = sum(self.ddg.latencies(self.machine))
        n = self.ddg.num_ops
        horizon = (self.t_period - 1) + total_latency + (n - 1) * (self.t_period - 1)
        return max(1, math.ceil(horizon / self.t_period) + 1)

    def stage_cycles(self, op_index: int, stage: int) -> List[int]:
        """Reservation-table cycles op ``op_index`` holds ``stage``."""
        table = self.machine.reservation_for(
            self.ddg.ops[op_index].op_class
        )
        if stage >= table.num_stages:
            return []
        return table.stage_cycles(stage)

    def _usage_terms(self) -> Dict[Tuple[int, int, int], Dict[Variable, float]]:
        """``U_s[t][i]`` per Eq. 25 as raw coefficient dicts.

        Keyed by (op, stage, slot); entries exist only where at least one
        surviving ``a`` variable contributes.
        """
        t_period = self.t_period
        usage: Dict[Tuple[int, int, int], Dict[Variable, float]] = {}
        for op in self.ddg.ops:
            table = self.machine.reservation_for(op.op_class)
            op_stages = [
                (stage, table.stage_cycles(stage))
                for stage in range(table.num_stages)
                if table.stage_cycles(stage)
            ]
            for stage, cycles in op_stages:
                for t in range(t_period):
                    terms: Dict[Variable, float] = {}
                    for latency in cycles:
                        var = self.a[(t - latency) % t_period][op.index]
                        if var is not None:
                            terms[var] = terms.get(var, 0.0) + 1.0
                    if terms:
                        usage[(op.index, stage, t)] = terms
        return usage

    def capacity_floor(self, fu_name: str) -> int:
        """Users a stage slot of ``fu_name`` always has room for.

        The FU count, or 1 under ``min_fu``, where the count is a
        variable with lower bound 1.
        """
        if self.options.objective == "min_fu":
            return 1
        return self.machine.fu_type(fu_name).count

    def capacity_cells(self) -> Iterator[tuple]:
        """The Eq. 24 capacity cells of every stage that can overflow.

        Yields ``(fu_name, stage, users, slots)`` for each stage used by
        more ops than :meth:`capacity_floor`; ``slots[t]`` lists
        ``(op, usage terms)`` for the ops able to hold the stage at
        slot ``t``.  A slot with at most the floor's occupants cannot
        bind, since each op holds a cell from one slot at most.
        """
        for fu_name, op_indices in self.ops_by_type.items():
            floor = self.capacity_floor(fu_name)
            for stage in range(self.machine.stage_count(fu_name)):
                users = [
                    i for i in op_indices if self.stage_cycles(i, stage)
                ]
                if len(users) <= floor:
                    continue
                slots = []
                for t in range(self.t_period):
                    occupants = []
                    for i in users:
                        part = self.usage.get((i, stage, t))
                        if part:
                            occupants.append((i, part))
                    slots.append(occupants)
                yield fu_name, stage, users, slots

    @staticmethod
    def occupancy_key(
        occupants: List[Tuple[int, Dict[Variable, float]]],
    ) -> tuple:
        """Identity of a capacity cell's occupancy.

        Clean pipeline stages are shifted copies of each other, so many
        cells repeat one occupancy; both backends emit each key once.
        """
        return tuple(sorted(
            (var.index, coef)
            for _, part in occupants for var, coef in part.items()
        ))

    def symmetry_caps(self, fu_name: str) -> List[int]:
        """Ops whose color is capped by rank: ``c[ops[r]] <= r + 1``.

        Caps at or above the FU count are vacuous; the plain encoding
        (no presolve) caps the first op only.
        """
        ordered = self.color_order[fu_name]
        if self.presolve_info is None:
            return ordered[:1]
        return ordered[:self.machine.fu_type(fu_name).count - 1]

    def coloring_pairs(
        self, fu_name: str,
    ) -> Iterator[Tuple[int, int, List[int], str, List[int]]]:
        """Same-type op pairs that share a stage, with their verdict.

        Yields ``(i, j, shared, kind, cover)``.  ``kind`` gates the
        different-color conflict: NEVER pairs cannot co-occupy a stage
        slot (no conflict), ALWAYS pairs always do (an unconditional
        conflict), MAYBE pairs conflict only when their slots overlap,
        which is decided on the ``cover`` stages (a residue that
        overlaps anywhere overlaps on a cover stage).  Without presolve
        every pair is MAYBE over all of ``shared``.
        """
        op_indices = self.ops_by_type[fu_name]
        stages = self.machine.stage_count(fu_name)
        pruning = self.presolve_info
        for pos, i in enumerate(op_indices):
            for j in op_indices[pos + 1:]:
                shared = [
                    s for s in range(stages)
                    if self.stage_cycles(i, s) and self.stage_cycles(j, s)
                ]
                if not shared:
                    continue
                verdict = (
                    pruning.pairs.get((i, j)) if pruning is not None
                    else None
                )
                if verdict is None:
                    yield i, j, shared, MAYBE, shared
                else:
                    yield (i, j, shared, verdict.kind,
                           list(verdict.cover_stages))

    # -- ILP rows -------------------------------------------------------------------
    def build(self) -> Model:
        """Emit the ILP rows over the structure (idempotent; HiGHS only)."""
        if self._built:
            return self.model
        self.require_open()
        self._built = True
        build_start = time.monotonic()
        t_period = self.t_period
        model = self.model

        # Assignment: each op starts at exactly one slot.   (Eq. 9/23)
        assign_rows: List[RowSpec] = []
        for i in range(self.ddg.num_ops):
            terms: Dict[Variable, float] = {
                self.a[t][i]: 1.0 for t in range(t_period)
                if self.a[t][i] is not None
            }
            self._elim_nnz += t_period - len(terms)
            assign_rows.append((terms, EQ, 1.0, f"assign[{i}]"))
        model.add_rows(assign_rows)

        # Dependences: t_j - t_i >= d_i - T*m_ij.            (Eq. 4/8)
        separations = self.ddg.dep_latencies(self.machine)
        for e, dep in enumerate(self.ddg.deps):
            rhs = separations[e] - t_period * dep.distance
            model.add(
                self.t_expr[dep.dst] - self.t_expr[dep.src] >= rhs,
                name=f"dep[{e}]",
            )

        self._add_capacity_rows()
        self._add_coloring()
        self._set_objective()

        sizes = model.stats()
        self.model_stats = ModelStats(
            variables=sizes["variables"],
            integer_variables=sizes["integer_variables"],
            constraints=sizes["constraints"],
            nonzeros=sizes["nonzeros"],
            eliminated_variables=self._elim_vars,
            eliminated_constraints=self._elim_rows,
            eliminated_nonzeros=self._elim_nnz,
            presolve_seconds=self.model_stats.presolve_seconds,
            build_seconds=(
                self.model_stats.build_seconds
                + time.monotonic() - build_start
            ),
        )
        return model

    def _add_capacity_rows(self) -> None:
        """Aggregate stage-capacity constraints (Eq. 5 / 24).

        A stage whose user count cannot exceed the FU count emits no rows
        — including under ``min_fu``, where the count variable's lower
        bound of 1 plays the role of the constant capacity.  With
        presolve active, per-slot rows whose surviving contributors fit
        under the capacity floor are dropped, and rows identical to an
        earlier one are emitted once.
        """
        active = self.presolve_info is not None
        rows: List[RowSpec] = []
        seen: set = set()
        for fu_name, stage, users, slots in self.capacity_cells():
            capacity: object = self.machine.fu_type(fu_name).count
            if self.options.objective == "min_fu":
                capacity = self.fu_count_var[fu_name]
            cap_floor = self.capacity_floor(fu_name)
            base_nnz = sum(
                len(self.stage_cycles(i, stage)) for i in users
            ) + (0 if isinstance(capacity, int) else 1)
            for t, occupants in enumerate(slots):
                if active and len(occupants) <= cap_floor:
                    self._elim_rows += 1
                    self._elim_nnz += base_nnz
                    continue
                terms: Dict[Variable, float] = {}
                for _, part in occupants:
                    for var, coef in part.items():
                        terms[var] = terms.get(var, 0.0) + coef
                if isinstance(capacity, int):
                    rhs = float(capacity)
                else:
                    terms[capacity] = terms.get(capacity, 0.0) - 1.0
                    rhs = 0.0
                if active:
                    key = self.occupancy_key(occupants)
                    if key in seen:
                        self._elim_rows += 1
                        self._elim_nnz += len(terms)
                        continue
                    seen.add(key)
                    self._elim_nnz += base_nnz - len(terms)
                rows.append(
                    (terms, LE, rhs, f"cap[{fu_name},s{stage},t{t}]")
                )
        self.model.add_rows(rows)

    def _add_coloring(self) -> None:
        """§4.2 / §5 mapping constraints via circular-arc coloring.

        The pair verdicts of :meth:`coloring_pairs` gate what gets
        emitted: NEVER pairs vanish entirely, ALWAYS pairs keep only the
        Hu rows with the overlap indicator folded to 1, and MAYBE pairs
        emit ``ov`` rows only on their cover stages and, with presolve
        active, only at slots both ops can occupy.
        """
        t_period = self.t_period
        model = self.model
        active = self.presolve_info is not None
        for fu_name in self.colored_types:
            big_m = self.machine.fu_type(fu_name).count
            if self.options.objective == "min_fu":
                color_cap = self.fu_count_var[fu_name]
                for i in self.ops_by_type[fu_name]:
                    model.add(self.color[i] <= color_cap, name=f"cub[{i}]")
            for rank, i in enumerate(self.symmetry_caps(fu_name)):
                model.add(
                    self.color[i] <= rank + 1,
                    name=(f"sym[{fu_name},{rank}]" if active
                          else f"sym[{fu_name}]"),
                )

            for i, j, shared, kind, cover in self.coloring_pairs(fu_name):
                base_row_nnz = {
                    s: 1 + len(self.stage_cycles(i, s))
                    + len(self.stage_cycles(j, s))
                    for s in shared
                }
                ci, cj = self.color[i], self.color[j]
                if kind == NEVER:
                    # The pair can never co-occupy a stage slot: no
                    # overlap indicator, no Hu rows.
                    self._elim_vars += 2
                    self._elim_rows += len(shared) * t_period + 2
                    self._elim_nnz += sum(
                        base_row_nnz[s] * t_period for s in shared
                    ) + 8
                    continue
                if kind == ALWAYS:
                    # Overlap is certain: fold o == 1 into the Hu rows
                    # and drop every ov row.
                    self._elim_vars += 1
                    self._elim_rows += len(shared) * t_period
                    self._elim_nnz += sum(
                        base_row_nnz[s] * t_period for s in shared
                    ) + 2
                    sign = model.add_binary(f"w[{i},{j}]")
                    self.sign_var[(i, j)] = sign
                    model.add(
                        ci - cj >= 1 - big_m * (1 - sign),
                        name=f"hu1[{i},{j}]",
                    )
                    model.add(
                        cj - ci >= 1 - big_m * sign,
                        name=f"hu2[{i},{j}]",
                    )
                    continue
                overlap = model.add_binary(f"o[{i},{j}]")
                self.overlap_var[(i, j)] = overlap
                skipped = [s for s in shared if s not in cover]
                self._elim_rows += len(skipped) * t_period
                self._elim_nnz += sum(
                    base_row_nnz[s] * t_period for s in skipped
                )
                ov_rows: List[RowSpec] = []
                for s in cover:
                    for t in range(t_period):
                        u_i = self.usage.get((i, s, t))
                        u_j = self.usage.get((j, s, t))
                        if active and (u_i is None or u_j is None):
                            # One op can't occupy (s, t) at all: the row
                            # is o >= U - 1 <= 0, vacuous.
                            self._elim_rows += 1
                            self._elim_nnz += base_row_nnz[s]
                            continue
                        terms: Dict[Variable, float] = {overlap: 1.0}
                        for part in (u_i, u_j):
                            if not part:
                                continue
                            for var, coef in part.items():
                                terms[var] = terms.get(var, 0.0) - coef
                        if active:
                            self._elim_nnz += base_row_nnz[s] - len(terms)
                        ov_rows.append((
                            terms, GE, -1.0, f"ov[{i},{j},s{s},t{t}]",
                        ))
                model.add_rows(ov_rows)
                sign = model.add_binary(f"w[{i},{j}]")
                self.sign_var[(i, j)] = sign
                model.add(
                    ci - cj
                    >= 1 - big_m * (1 - sign) - big_m * (1 - overlap),
                    name=f"hu1[{i},{j}]",
                )
                model.add(
                    cj - ci >= 1 - big_m * sign - big_m * (1 - overlap),
                    name=f"hu2[{i},{j}]",
                )

    def _set_objective(self) -> None:
        objective = self.options.objective
        model = self.model
        if objective == "feasibility":
            model.minimize(LinExpr())
        elif objective == "min_sum_t":
            model.minimize(lin_sum(self.t_expr))
        elif objective == "min_fu":
            model.minimize(lin_sum(
                var * self.machine.fu_type(fu_name).cost
                for fu_name, var in self.fu_count_var.items()
            ))
        elif objective == "min_buffers":
            buffers = []
            for e, dep in enumerate(self.ddg.deps):
                buf = model.add_var(
                    f"b[{e}]", lb=0, ub=None, integer=True
                )
                self.buffer_var[e] = buf
                lifetime = (
                    self.t_expr[dep.dst]
                    - self.t_expr[dep.src]
                    + self.t_period * dep.distance
                )
                model.add(buf * self.t_period >= lifetime, name=f"buf[{e}]")
                buffers.append(buf)
            model.minimize(lin_sum(buffers))
        elif objective == "min_lifetimes":
            # Sum of issue-to-use spans — the linear (un-ceiled) cousin
            # of min_buffers; average register pressure, exactly.
            model.minimize(lin_sum(
                self.t_expr[dep.dst] - self.t_expr[dep.src]
                + self.t_period * dep.distance
                for dep in self.ddg.deps
            ))

    # -- solve / extract ----------------------------------------------------------------
    def solve(
        self,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        mip_start: Optional[Dict[Variable, float]] = None,
    ) -> Solution:
        """Solve with ``backend``; the one backend dispatch.

        A period presolve ruled out is answered INFEASIBLE here, with
        ``backend=""``.  Otherwise ``sat`` lowers the structure to CNF
        and never builds the ILP rows (:mod:`repro.sat.backend`);
        ``auto`` and ``highs`` build them and hand them to
        :func:`repro.ilp.solve.solve`, with ``mip_start`` as HiGHS's
        starting incumbent (SAT search takes no start).  Both return an
        unverified :class:`Solution` that :meth:`extract` reads.
        """
        if backend not in BACKENDS:
            raise SolverError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        if time_limit is not None:
            _validate_time_limit(time_limit)
        if self.ruled_out:
            return Solution(status=SolveStatus.INFEASIBLE)
        if backend == "sat":
            from repro.sat.backend import solve_formulation

            solution = solve_formulation(self, time_limit=time_limit)
        else:
            solution = solve_ilp(self.build(), backend=backend,
                                 time_limit=time_limit, mip_start=mip_start)
        return _checked(solution)

    def extract(self, solution: Solution, require_mapping: bool = True) -> Schedule:
        """Turn a feasible solution into a :class:`Schedule`.

        Ops whose FU types needed no coloring variables get a greedy
        first-fit mapping (always possible for those types).  Under the
        counting-only relaxation (``mapping=False``) the greedy mapper
        may fail on unclean types; pass ``require_mapping=False`` to get
        back a schedule with a partial mapping instead of the
        :class:`MappingError` (experiment E11 relies on observing both).
        """
        if not solution.status.has_solution:
            raise CoreError(
                f"cannot extract a schedule from status {solution.status}"
            )
        starts = [
            int(round(solution.value(self.t_expr[i])))
            for i in range(self.ddg.num_ops)
        ]
        colors: Dict[int, int] = {
            i: solution.int_value(var) - 1 for i, var in self.color.items()
        }
        try:
            colors = greedy_mapping(
                self.ddg, self.machine, starts, self.t_period, partial=colors
            )
        except MappingError:
            if require_mapping:
                raise
        fu_counts = None
        if self.fu_count_var:
            fu_counts = {
                name: solution.int_value(var)
                for name, var in self.fu_count_var.items()
            }
        return Schedule(
            ddg=self.ddg,
            machine=self.machine,
            t_period=self.t_period,
            starts=starts,
            colors=colors,
            fu_counts_used=fu_counts,
        )


def _checked(solution: Solution) -> Solution:
    """Fault-injection seam: optionally corrupt a backend's solution.

    With a ``malformed@solve`` fault armed (see
    :mod:`repro.supervision.faults`) the returned solution is mangled —
    missing variables, fractional values — so tests can prove the
    downstream extraction/verification layers reject garbage instead of
    silently scheduling from it.  A no-op unless the fault env var is
    set.
    """
    from repro.supervision import faults

    if solution.values and faults.should_corrupt("solve"):
        return faults.corrupt_solution(solution)
    return solution
