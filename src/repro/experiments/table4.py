"""Table 4: scheduling performance over a loop corpus (experiment E8).

The paper reports, for the loops whose ILP completed within budget, how
many achieved ``T = T_lb``, ``T = T_lb + 2``, ``T = T_lb + 4`` and the
mean DDG size per bucket:

    ===========  ==================  ================
    # of loops   initiation interval  mean nodes/DDG
    735          T = T_lb             6
    20           T = T_lb + 2         16
    11           T = T_lb + 4         17
    ===========  ==================  ================

(the remaining loops of the 1066 did not finish within the time budget).
:func:`run_table4` computes the same buckets for any corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core import schedule_loop
from repro.core.scheduler import SchedulingResult
from repro.ddg.graph import Ddg
from repro.machine import Machine

#: The published Table 4 rows (delta-from-T_lb -> (#loops, mean nodes)).
PAPER_TABLE4: Dict[int, tuple] = {0: (735, 6), 2: (20, 16), 4: (11, 17)}

#: Periods tried above T_lb; the paper's largest bucket is T_lb + 4.
MAX_EXTRA = 8


@dataclass
class Bucket:
    """One Table 4 row."""

    delta: int
    loops: int = 0
    total_nodes: int = 0

    @property
    def mean_nodes(self) -> float:
        return self.total_nodes / self.loops if self.loops else 0.0


@dataclass
class Table4:
    """Bucketed scheduling performance for a corpus."""

    buckets: Dict[int, Bucket] = field(default_factory=dict)
    unscheduled: int = 0
    unscheduled_nodes: int = 0
    results: List[SchedulingResult] = field(default_factory=list)

    @property
    def scheduled(self) -> int:
        return sum(b.loops for b in self.buckets.values())

    @property
    def fraction_at_t_lb(self) -> float:
        if not self.scheduled:
            return 0.0
        at_lb = self.buckets.get(0, Bucket(0)).loops
        return at_lb / self.scheduled

    def add(self, result: SchedulingResult, num_nodes: int) -> None:
        self.results.append(result)
        delta = result.delta_from_lb
        if delta is None:
            self.unscheduled += 1
            self.unscheduled_nodes += num_nodes
            return
        bucket = self.buckets.setdefault(delta, Bucket(delta))
        bucket.loops += 1
        bucket.total_nodes += num_nodes

    def render(self) -> str:
        lines = [
            "Table 4 — scheduling performance",
            f"{'# loops':>8}  {'initiation interval':<22}  mean nodes/DDG",
        ]
        for delta in sorted(self.buckets):
            bucket = self.buckets[delta]
            label = "T = T_lb" if delta == 0 else f"T = T_lb + {delta}"
            lines.append(
                f"{bucket.loops:>8}  {label:<22}  {bucket.mean_nodes:.1f}"
            )
        if self.unscheduled:
            mean = self.unscheduled_nodes / self.unscheduled
            lines.append(
                f"{self.unscheduled:>8}  {'(not within budget)':<22}  {mean:.1f}"
            )
        lines.append(
            f"scheduled loops at T_lb: {100 * self.fraction_at_t_lb:.1f}% "
            f"(paper: {100 * 735 / 766:.1f}%)"
        )
        return "\n".join(lines)


def run_table4(
    loops: List[Ddg],
    machine: Machine,
    time_limit_per_t: Optional[float] = 10.0,
) -> Table4:
    """Schedule every loop and bucket the outcomes."""
    table = Table4()
    for ddg in loops:
        result = schedule_loop(
            ddg, machine, time_limit_per_t=time_limit_per_t,
            max_extra=MAX_EXTRA,
        )
        table.add(result, ddg.num_ops)
    return table
