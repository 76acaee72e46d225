"""Table 5: solver-effort distribution (experiment E9).

The paper gave its commercial ILP solver 10 s, then 30 s per loop (the
"10/30" budgets) and reported how many loops were solved within them.
This harness buckets total per-loop solve time into the same bands plus a
fine-grained histogram, from the attempt records of a Table 4 run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.core.scheduler import SchedulingResult

#: The paper's per-loop budgets (seconds).
PAPER_BUDGETS = (10.0, 30.0)

#: Fine histogram bucket edges (seconds).
HISTOGRAM_EDGES = (0.01, 0.1, 1.0, 10.0, 30.0)


@dataclass
class Table5:
    """Solver-effort summary."""

    total_loops: int = 0
    scheduled: int = 0
    solved_within: dict = field(default_factory=dict)   # budget -> count
    histogram: dict = field(default_factory=dict)        # edge -> count
    slowest: float = 0.0
    total_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.total_loops if self.total_loops else 0.0

    def render(self) -> str:
        lines = [
            "Table 5 — solver effort",
            f"loops: {self.total_loops}  scheduled: {self.scheduled}  "
            f"mean {self.mean_seconds * 1000:.1f} ms  "
            f"slowest {self.slowest:.2f} s",
        ]
        for budget in PAPER_BUDGETS:
            count = self.solved_within.get(budget, 0)
            pct = 100 * count / self.total_loops if self.total_loops else 0
            lines.append(
                f"  solved within {budget:>5.0f} s: {count:>5} ({pct:.1f}%)"
            )
        lines.append("  histogram of per-loop solve time:")
        previous = 0.0
        for edge in HISTOGRAM_EDGES:
            count = self.histogram.get(edge, 0)
            lines.append(f"    ({previous:g}, {edge:g}] s: {count}")
            previous = edge
        overflow = self.histogram.get(float("inf"), 0)
        lines.append(f"    > {HISTOGRAM_EDGES[-1]:g} s: {overflow}")
        return "\n".join(lines)


def run_table5(results: Iterable[SchedulingResult]) -> Table5:
    """Summarize solver effort from per-loop scheduling results."""
    table = Table5()
    for result in results:
        seconds = sum(a.seconds for a in result.attempts)
        _tally(table, seconds, result.schedule is not None)
    return table


def _tally(table: Table5, seconds: float, scheduled: bool) -> None:
    table.total_loops += 1
    if scheduled:
        table.scheduled += 1
        for budget in PAPER_BUDGETS:
            if seconds <= budget:
                table.solved_within[budget] = (
                    table.solved_within.get(budget, 0) + 1
                )
    for edge in HISTOGRAM_EDGES:
        if seconds <= edge:
            table.histogram[edge] = table.histogram.get(edge, 0) + 1
            break
    else:
        table.histogram[float("inf")] = (
            table.histogram.get(float("inf"), 0) + 1
        )
    table.slowest = max(table.slowest, seconds)
    table.total_seconds += seconds
