"""Design ablations (experiments E11, E12).

E11 — *counting vs coloring*: §4.1's aggregate capacity constraints admit
schedules that no fixed FU assignment can realize; §4.2's coloring closes
the gap.  The harness counts, over a corpus, how often the counting-only
relaxation claims a smaller T than the full formulation achieves, and
verifies every gap by exhibiting the greedy mapper's failure.

E12 — *hazard model on/off*: the same loops scheduled on the unclean
machine vs an idealized variant whose reservation tables are replaced by
clean pipelines of equal span.  The delta isolates how many cycles per
iteration the structural hazards themselves cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core import MappingError, schedule_loop
from repro.core.schedule import greedy_mapping
from repro.ddg.graph import Ddg
from repro.machine import Machine, ReservationTable


def cleaned_variant(machine: Machine) -> Machine:
    """The machine with every reservation table idealized to a clean
    pipeline of the same span (same latencies, same FU counts)."""
    clean = Machine(f"{machine.name}-idealized")
    for fu in machine.fu_types.values():
        clean.add_fu_type(
            fu.name, fu.count, ReservationTable.clean(fu.table.length),
            cost=fu.cost,
        )
    for cls in machine.op_classes.values():
        table = None
        if cls.table is not None:
            table = ReservationTable.clean(cls.table.length)
        clean.add_op_class(cls.name, cls.fu_type, cls.latency, table)
    return clean


@dataclass
class CountingVsColoring:
    """E11 outcome for one loop."""

    loop_name: str
    t_counting: Optional[int]
    t_full: Optional[int]
    gap_witnessed: bool  # counting schedule exists but is unmappable

    @property
    def has_gap(self) -> bool:
        return (
            self.t_counting is not None
            and self.t_full is not None
            and self.t_full > self.t_counting
        )


def counting_vs_coloring(
    loops: List[Ddg],
    machine: Machine,
    backend: str = "auto",
    time_limit_per_t: Optional[float] = 10.0,
    max_extra: int = 8,
) -> List[CountingVsColoring]:
    """Run E11 over a corpus."""
    rows = []
    for ddg in loops:
        counting = schedule_loop(
            ddg, machine, backend=backend, mapping=False,
            time_limit_per_t=time_limit_per_t, max_extra=max_extra,
        )
        full = schedule_loop(
            ddg, machine, backend=backend, mapping=None,
            time_limit_per_t=time_limit_per_t, max_extra=max_extra,
        )
        witnessed = False
        if (
            counting.schedule is not None
            and full.achieved_t is not None
            and counting.schedule.t_period < full.achieved_t
        ):
            # The counting-only schedule at the smaller T must be
            # unmappable, otherwise the full ILP would have found it.
            try:
                greedy_mapping(
                    ddg, machine,
                    counting.schedule.starts, counting.schedule.t_period,
                )
            except MappingError:
                witnessed = True
        rows.append(
            CountingVsColoring(
                loop_name=ddg.name,
                t_counting=counting.achieved_t,
                t_full=full.achieved_t,
                gap_witnessed=witnessed,
            )
        )
    return rows


@dataclass
class HazardAblation:
    """E12 outcome for one loop."""

    loop_name: str
    t_lb_unclean: int
    t_lb_clean: int
    t_unclean: Optional[int]
    t_clean: Optional[int]

    @property
    def hazard_cost(self) -> Optional[int]:
        """Cycles per iteration attributable to structural hazards."""
        if self.t_unclean is None or self.t_clean is None:
            return None
        return self.t_unclean - self.t_clean


@dataclass
class HazardAblationSummary:
    rows: List[HazardAblation] = field(default_factory=list)

    @property
    def completed(self) -> List[HazardAblation]:
        return [r for r in self.rows if r.hazard_cost is not None]

    @property
    def mean_cost(self) -> float:
        done = self.completed
        if not done:
            return 0.0
        return sum(r.hazard_cost for r in done) / len(done)

    @property
    def never_negative(self) -> bool:
        """Hazards can only hurt: T_unclean >= T_clean on every loop."""
        return all(r.hazard_cost >= 0 for r in self.completed)

    def render(self) -> str:
        done = self.completed
        worst = max((r.hazard_cost for r in done), default=0)
        return "\n".join([
            "E12 — structural-hazard ablation",
            f"loops compared: {len(done)} / {len(self.rows)}",
            f"mean hazard cost: {self.mean_cost:.2f} cycles/iteration",
            f"max hazard cost: {worst}",
            f"hazards never helped (sanity): {self.never_negative}",
        ])


def hazard_ablation(
    loops: List[Ddg],
    machine: Machine,
    backend: str = "auto",
    time_limit_per_t: Optional[float] = 10.0,
    max_extra: int = 8,
) -> HazardAblationSummary:
    """Run E12 over a corpus."""
    idealized = cleaned_variant(machine)
    summary = HazardAblationSummary()
    for ddg in loops:
        unclean = schedule_loop(
            ddg, machine, backend=backend,
            time_limit_per_t=time_limit_per_t, max_extra=max_extra,
        )
        clean = schedule_loop(
            ddg, idealized, backend=backend,
            time_limit_per_t=time_limit_per_t, max_extra=max_extra,
        )
        summary.rows.append(
            HazardAblation(
                loop_name=ddg.name,
                t_lb_unclean=unclean.bounds.t_lb,
                t_lb_clean=clean.bounds.t_lb,
                t_unclean=unclean.achieved_t,
                t_clean=clean.achieved_t,
            )
        )
    return summary
