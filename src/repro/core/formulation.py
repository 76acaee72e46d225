"""The unified ILP formulation (paper §4–§5).

Given a loop DDG, a machine and a candidate period ``T``, builds one
integer linear program whose feasible points are exactly the valid
software-pipelined schedules *with a fixed instruction-to-FU mapping*:

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
from typing import Dict, List, Optional, Tuple

from repro.core.bounds import modulo_feasible_t
from repro.core.errors import CoreError, MappingError, ModuloInfeasibleError
from repro.core.presolve import ALWAYS, NEVER, PresolveInfo, presolve
from repro.core.schedule import Schedule, greedy_mapping
from repro.ddg.graph import Ddg
from repro.ilp import LinExpr, Model, Solution, Variable, lin_sum
from repro.ilp.model import GE, LE, EQ, ModelStats, RowSpec
from repro.machine import Machine

OBJECTIVES = (
    "feasibility", "min_sum_t", "min_fu", "min_buffers", "min_lifetimes",
)


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
    """One ILP instance for a (ddg, machine, T) triple."""

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
        self._built = False
        self.model: Model = Model(f"{ddg.name}@T={t_period}")
        # Backref for backends that need formulation structure rather
        # than bare rows (the SAT lowering reads slot windows, pair
        # verdicts and reservation shapes straight from here).
        self.model._formulation = self
        self.a: List[List[Optional[Variable]]] = []   # a[t][i]; None = pruned
        self.k: List[Variable] = []
        self.t_expr: List[LinExpr] = []
        self.color: Dict[int, Variable] = {}
        self.fu_count_var: Dict[str, Variable] = {}
        self.colored_types: List[str] = []
        # Coloring side variables, keyed so a warm start can assign them:
        # w[i,j] sign binaries, o[i,j] overlap binaries (absent for pairs
        # where presolve folded the indicator), b[e] buffer counts, and
        # the per-type op order the sym[...] caps were emitted along.
        self.sign_var: Dict[Tuple[int, int], Variable] = {}
        self.overlap_var: Dict[Tuple[int, int], Variable] = {}
        self.buffer_var: Dict[int, Variable] = {}
        self.color_order: Dict[str, List[int]] = {}
        self.presolve_info: Optional[PresolveInfo] = None
        self.model_stats: Optional[ModelStats] = None
        self._elim_vars = 0
        self._elim_rows = 0
        self._elim_nnz = 0
        self._usage: Optional[
            Dict[Tuple[int, int, int], Dict[Variable, float]]
        ] = None

    # -- structure helpers --------------------------------------------------------
    def _needs_coloring(self, fu_name: str) -> bool:
        """Whether mapping must be decided by the ILP for this FU type."""
        if self.options.mapping is False:
            return False
        fu = self.machine.fu_type(fu_name)
        ops_on = [
            op for op in self.ddg.ops
            if self.machine.op_class(op.op_class).fu_type == fu_name
        ]
        if len(ops_on) < 2 or fu.count < 2:
            # count == 1: aggregate capacity 1 already forbids any overlap,
            # which *is* the mapping constraint.
            return False
        if self.options.mapping is True:
            return True
        return any(
            not self.machine.reservation_for(op.op_class).is_clean
            for op in ops_on
        )

    def _ops_by_type(self) -> Dict[str, List[int]]:
        groups: Dict[str, List[int]] = {}
        for op in self.ddg.ops:
            fu = self.machine.op_class(op.op_class).fu_type
            groups.setdefault(fu, []).append(op.index)
        return groups

    def _default_k_max(self) -> int:
        total_latency = sum(self.ddg.latencies(self.machine))
        n = self.ddg.num_ops
        horizon = (self.t_period - 1) + total_latency + (n - 1) * (self.t_period - 1)
        return max(1, math.ceil(horizon / self.t_period) + 1)

    def _stage_cycles(self, op_index: int, stage: int) -> List[int]:
        table = self.machine.reservation_for(
            self.ddg.ops[op_index].op_class
        )
        if stage >= table.num_stages:
            return []
        return table.stage_cycles(stage)

    # -- build ----------------------------------------------------------------------
    def build(self) -> Model:
        """Construct the model (idempotent)."""
        if self._built:
            return self.model
        self._built = True
        build_start = time.monotonic()
        t_period = self.t_period
        machine = self.machine
        ddg = self.ddg
        model = self.model
        n = ddg.num_ops
        k_max = self._default_k_max()

        colored = {
            fu: ops for fu, ops in self._ops_by_type().items()
            if self._needs_coloring(fu)
        }
        info: Optional[PresolveInfo] = None
        if self.options.presolve:
            info = presolve(
                ddg, machine, t_period,
                objective=self.options.objective,
                k_max=k_max,
                colored=colored,
            )
            self.presolve_info = info
        active = info is not None and not info.infeasible
        if active:
            k_max = info.k_max
        if info is not None and info.infeasible:
            # No schedule at this T (see ``info.reason``): record the
            # verdict as a trivially unsatisfiable row (0 == 1) so every
            # backend returns INFEASIBLE without search, then fall
            # through to the plain encoding for introspection.
            model.add(LinExpr() == 1, name="presolve_infeasible")

        # Variables: A matrix (windowed) and K vector (bounded).
        self.a = []
        for t in range(t_period):
            row: List[Optional[Variable]] = []
            for i in range(n):
                if active and not info.slot_allowed(i, t):
                    row.append(None)
                    self._elim_vars += 1
                else:
                    row.append(model.add_binary(f"a[{t},{i}]"))
            self.a.append(row)
        if active:
            self.k = [
                model.add_var(
                    f"k[{i}]", lb=info.k_bounds[i][0],
                    ub=info.k_bounds[i][1], integer=True,
                )
                for i in range(n)
            ]
        else:
            self.k = [
                model.add_var(f"k[{i}]", lb=0, ub=k_max, integer=True)
                for i in range(n)
            ]
        # Start-time expressions t_i = T*k_i + sum_t t*a[t][i]   (Eq. 7/22)
        self.t_expr = [
            lin_sum(
                [self.k[i] * t_period]
                + [self.a[t][i] * t for t in range(1, t_period)
                   if self.a[t][i] is not None]
            )
            for i in range(n)
        ]

        # Assignment: each op starts at exactly one slot.   (Eq. 9/23)
        assign_rows: List[RowSpec] = []
        for i in range(n):
            terms: Dict[Variable, float] = {
                self.a[t][i]: 1.0 for t in range(t_period)
                if self.a[t][i] is not None
            }
            self._elim_nnz += t_period - len(terms)
            assign_rows.append((terms, EQ, 1.0, f"assign[{i}]"))
        model.add_rows(assign_rows)

        # Dependences: t_j - t_i >= d_i - T*m_ij.            (Eq. 4/8)
        separations = ddg.dep_latencies(machine)
        for e, dep in enumerate(ddg.deps):
            rhs = separations[e] - t_period * dep.distance
            model.add(
                self.t_expr[dep.dst] - self.t_expr[dep.src] >= rhs,
                name=f"dep[{e}]",
            )

        usage = self._usage_terms()
        self._usage = usage
        self._add_capacity_rows(usage, active)
        self._add_coloring(usage, info if active else None)
        self._set_objective()

        presolve_seconds = info.seconds if info is not None else 0.0
        sizes = model.stats()
        self.model_stats = ModelStats(
            variables=sizes["variables"],
            integer_variables=sizes["integer_variables"],
            constraints=sizes["constraints"],
            nonzeros=sizes["nonzeros"],
            eliminated_variables=self._elim_vars,
            eliminated_constraints=self._elim_rows,
            eliminated_nonzeros=self._elim_nnz,
            presolve_seconds=presolve_seconds,
            build_seconds=(
                time.monotonic() - build_start - presolve_seconds
            ),
        )
        return model

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

    def _add_capacity_rows(
        self,
        usage: Dict[Tuple[int, int, int], Dict[Variable, float]],
        active: bool,
    ) -> None:
        """Aggregate stage-capacity constraints (Eq. 5 / 24).

        A stage whose user count cannot exceed the FU count emits no rows
        — including under ``min_fu``, where the count variable's lower
        bound of 1 plays the role of the constant capacity.  With
        presolve active, rows that lost all contributors to slot windows
        are dropped, per-slot rows whose surviving contributors fit under
        the capacity floor are dropped, and rows identical to an earlier
        one (clean pipeline stages are shifted copies of each other) are
        emitted once.
        """
        t_period = self.t_period
        rows: List[RowSpec] = []
        seen: Dict[tuple, bool] = {}
        for fu_name, op_indices in self._ops_by_type().items():
            fu = self.machine.fu_type(fu_name)
            capacity: object = fu.count
            if self.options.objective == "min_fu":
                capacity = self._count_var(fu_name)
            cap_floor = (
                capacity if isinstance(capacity, int)
                else int(capacity.lb)
            )
            stages = self.machine.stage_count(fu_name)
            for stage in range(stages):
                users = [
                    i for i in op_indices if self._stage_cycles(i, stage)
                ]
                if len(users) <= cap_floor:
                    continue  # no slot can ever exceed the capacity
                base_nnz = sum(
                    len(self._stage_cycles(i, stage)) for i in users
                ) + (0 if isinstance(capacity, int) else 1)
                for t in range(t_period):
                    terms: Dict[Variable, float] = {}
                    contributors = 0
                    for i in users:
                        part = usage.get((i, stage, t))
                        if not part:
                            continue
                        contributors += 1
                        for var, coef in part.items():
                            terms[var] = terms.get(var, 0.0) + coef
                    if active and not terms:
                        self._elim_rows += 1
                        self._elim_nnz += base_nnz
                        continue
                    if active and contributors <= cap_floor:
                        self._elim_rows += 1
                        self._elim_nnz += base_nnz
                        continue
                    if isinstance(capacity, int):
                        rhs = float(capacity)
                    else:
                        terms[capacity] = terms.get(capacity, 0.0) - 1.0
                        rhs = 0.0
                    if active:
                        key = (
                            tuple(sorted(
                                (var.index, coef)
                                for var, coef in terms.items()
                            )),
                            rhs,
                        )
                        if key in seen:
                            self._elim_rows += 1
                            self._elim_nnz += len(terms)
                            continue
                        seen[key] = True
                        self._elim_nnz += base_nnz - len(terms)
                    rows.append(
                        (terms, LE, rhs, f"cap[{fu_name},s{stage},t{t}]")
                    )
        self.model.add_rows(rows)

    def _count_var(self, fu_name: str) -> Variable:
        if fu_name not in self.fu_count_var:
            fu = self.machine.fu_type(fu_name)
            self.fu_count_var[fu_name] = self.model.add_var(
                f"R[{fu_name}]", lb=1, ub=fu.count, integer=True
            )
        return self.fu_count_var[fu_name]

    def _add_coloring(
        self,
        usage: Dict[Tuple[int, int, int], Dict[Variable, float]],
        info: Optional[PresolveInfo],
    ) -> None:
        """§4.2 / §5 mapping constraints via circular-arc coloring.

        With presolve info available, the static interference relation
        gates what gets emitted per pair: NEVER pairs vanish entirely,
        ALWAYS pairs keep only the Hu rows with the overlap indicator
        folded to 1, and MAYBE pairs emit ``ov`` rows only on a covering
        stage subset (a residue that overlaps anywhere overlaps on a
        cover stage) and only at slots both ops can occupy.
        """
        t_period = self.t_period
        model = self.model
        for fu_name, op_indices in self._ops_by_type().items():
            if not self._needs_coloring(fu_name):
                continue
            self.colored_types.append(fu_name)
            fu = self.machine.fu_type(fu_name)
            big_m = fu.count
            color_cap: object = fu.count
            if self.options.objective == "min_fu":
                color_cap = self._count_var(fu_name)
            for i in op_indices:
                self.color[i] = model.add_var(
                    f"c[{i}]", lb=1, ub=fu.count, integer=True
                )
                if not isinstance(color_cap, int):
                    model.add(self.color[i] <= color_cap,
                              name=f"cub[{i}]")
            if info is not None:
                # Colors are interchangeable, so any coloring can be
                # relabeled by first appearance along a fixed op
                # order; ordering by earliest possible start slot
                # makes the caps bite where the solver branches
                # first.  Caps at or above the FU count are vacuous.
                ordered = sorted(
                    op_indices, key=lambda i: (info.asap[i], i)
                )
            else:
                ordered = list(op_indices)
            self.color_order[fu_name] = ordered
            if info is not None:
                for rank in range(min(len(ordered), fu.count - 1)):
                    model.add(
                        self.color[ordered[rank]] <= rank + 1,
                        name=f"sym[{fu_name},{rank}]",
                    )
            else:
                first = op_indices[0]
                model.add(self.color[first] <= 1, name=f"sym[{fu_name}]")

            stages = self.machine.stage_count(fu_name)
            for pos, i in enumerate(op_indices):
                for j in op_indices[pos + 1:]:
                    shared = [
                        s for s in range(stages)
                        if self._stage_cycles(i, s)
                        and self._stage_cycles(j, s)
                    ]
                    if not shared:
                        continue
                    base_row_nnz = {
                        s: 1 + len(self._stage_cycles(i, s))
                        + len(self._stage_cycles(j, s))
                        for s in shared
                    }
                    verdict = info.pairs.get((i, j)) if info else None
                    ci, cj = self.color[i], self.color[j]
                    if verdict is not None and verdict.kind == NEVER:
                        # The pair can never co-occupy a stage slot: no
                        # overlap indicator, no Hu rows.
                        self._elim_vars += 2
                        self._elim_rows += (
                            len(shared) * t_period + 2
                        )
                        self._elim_nnz += sum(
                            base_row_nnz[s] * t_period for s in shared
                        ) + 8
                        continue
                    if verdict is not None and verdict.kind == ALWAYS:
                        # Overlap is certain: fold o == 1 into the Hu
                        # rows and drop every ov row.
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
                    emit_stages = (
                        list(verdict.cover_stages)
                        if verdict is not None else shared
                    )
                    skipped = [s for s in shared if s not in emit_stages]
                    self._elim_rows += len(skipped) * t_period
                    self._elim_nnz += sum(
                        base_row_nnz[s] * t_period for s in skipped
                    )
                    ov_rows: List[RowSpec] = []
                    for s in emit_stages:
                        for t in range(t_period):
                            u_i = usage.get((i, s, t))
                            u_j = usage.get((j, s, t))
                            if (info is not None
                                    and (u_i is None or u_j is None)):
                                # One op can't occupy (s, t) at all: the
                                # row is o >= U - 1 <= 0, vacuous.
                                self._elim_rows += 1
                                self._elim_nnz += base_row_nnz[s]
                                continue
                            terms: Dict[Variable, float] = {overlap: 1.0}
                            for part in (u_i, u_j):
                                if not part:
                                    continue
                                for var, coef in part.items():
                                    terms[var] = (
                                        terms.get(var, 0.0) - coef
                                    )
                            if info is not None:
                                self._elim_nnz += (
                                    base_row_nnz[s] - len(terms)
                                )
                            ov_rows.append((
                                terms, GE, -1.0,
                                f"ov[{i},{j},s{s},t{t}]",
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
            terms = []
            for fu_name, op_indices in self._ops_by_type().items():
                if not op_indices:
                    continue
                var = self._count_var(fu_name)
                terms.append(var * self.machine.fu_type(fu_name).cost)
            model.minimize(lin_sum(terms))
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

    # -- public structure accessors (used by the SAT lowering) -------------------
    def usage_terms(
        self,
    ) -> Dict[Tuple[int, int, int], Dict[Variable, float]]:
        """The built Eq. 25 usage structure, keyed (op, stage, slot)."""
        self.build()
        assert self._usage is not None
        return self._usage

    def stage_cycles(self, op_index: int, stage: int) -> List[int]:
        """Reservation-table cycles op ``op_index`` holds ``stage``."""
        return self._stage_cycles(op_index, stage)

    def ops_by_type(self) -> Dict[str, List[int]]:
        """Op indices grouped by FU type, in first-occurrence order."""
        return self._ops_by_type()

    # -- solve / extract ----------------------------------------------------------------
    def solve(
        self,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        mip_start: Optional[Dict[Variable, float]] = None,
    ) -> Solution:
        self.build()
        return self.model.solve(
            backend=backend, time_limit=time_limit, mip_start=mip_start
        )

    def extract(self, solution: Solution, require_mapping: bool = True) -> Schedule:
        """Turn a feasible solution into a :class:`Schedule`.

        Ops whose FU types needed no coloring variables get a greedy
        first-fit mapping (always possible for those types).  Under the
        counting-only relaxation (``mapping=False``) the greedy mapper
        may fail on unclean types; pass ``require_mapping=False`` to get
        back a schedule with a partial mapping instead of the
        :class:`MappingError` (experiment E11 relies on observing both).
        """
        if not self._built:
            raise CoreError("build() (or solve()) must run before extract()")
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
