"""Four-way cross-validation of the whole stack.

For each loop, four independent paths compute or bound the optimal
initiation interval:

1. the ILP on HiGHS,
2. the formulation lowered to CNF on the CDCL SAT backend,
3. the exhaustive enumeration (:mod:`repro.enumerative`),
4. the heuristics (upper bounds only).

The invariant lattice asserted per loop:

    T_lb <= T(1) = T(2) = T(3) <= II(heuristics) <= II(sequential)

plus every produced schedule passing the static verifier *and* the
replay simulator.  One failing loop is a bug somewhere in the stack; the
report names the disagreeing pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.baselines import (
    iterative_modulo_schedule,
    list_schedule,
    slack_modulo_schedule,
)
from repro.core import schedule_loop, verify_schedule
from repro.ddg.graph import Ddg
from repro.enumerative import enumerative_schedule_loop
from repro.machine import Machine
from repro.sim import simulate


@dataclass
class CrossCheckRow:
    loop_name: str
    t_lb: int
    highs_t: Optional[int]
    sat_t: Optional[int]
    enum_t: Optional[int]
    ims_ii: Optional[int]
    slack_ii: Optional[int]
    sequential_ii: int
    problems: List[str] = field(default_factory=list)

    @property
    def consistent(self) -> bool:
        return not self.problems


@dataclass
class CrossCheckReport:
    rows: List[CrossCheckRow] = field(default_factory=list)

    @property
    def all_consistent(self) -> bool:
        return all(row.consistent for row in self.rows)

    def problems(self) -> List[str]:
        out = []
        for row in self.rows:
            out.extend(f"{row.loop_name}: {p}" for p in row.problems)
        return out

    def render(self) -> str:
        lines = [
            f"cross-check: {len(self.rows)} loops, "
            f"{'ALL CONSISTENT' if self.all_consistent else 'PROBLEMS'}",
        ]
        lines.extend("  " + p for p in self.problems())
        return "\n".join(lines)


def cross_check(
    loops: List[Ddg],
    machine: Machine,
    time_limit_per_t: Optional[float] = 10.0,
    max_extra: int = 8,
) -> CrossCheckReport:
    """Run the four paths on every loop and collect inconsistencies."""
    report = CrossCheckReport()
    for ddg in loops:
        problems: List[str] = []
        results = {}
        for backend in ("highs", "sat"):
            outcome = schedule_loop(
                ddg, machine, backend=backend,
                time_limit_per_t=time_limit_per_t, max_extra=max_extra,
            )
            results[backend] = outcome
            if outcome.schedule is not None:
                try:
                    verify_schedule(outcome.schedule)
                except Exception as exc:  # pragma: no cover - stack bug
                    problems.append(f"{backend} schedule invalid: {exc}")
                sim = simulate(outcome.schedule, iterations=6)
                if not sim.ok:
                    problems.append(
                        f"{backend} schedule fails replay: "
                        f"{sim.first_violation()}"
                    )
        enumerated = enumerative_schedule_loop(
            ddg, machine, time_limit_per_t=time_limit_per_t,
            max_extra=max_extra,
        )
        ims = iterative_modulo_schedule(ddg, machine)
        slack = slack_modulo_schedule(ddg, machine)
        sequential = list_schedule(ddg, machine)

        highs_t = results["highs"].achieved_t
        sat_t = results["sat"].achieved_t
        t_lb = results["highs"].bounds.t_lb
        exact = [t for t in (highs_t, sat_t, enumerated.achieved_t)
                 if t is not None]
        if len(set(exact)) > 1:
            problems.append(
                f"exact methods disagree: highs={highs_t} sat={sat_t} "
                f"enum={enumerated.achieved_t}"
            )
        if exact:
            best = exact[0]
            if best < t_lb:
                problems.append(f"achieved T {best} below T_lb {t_lb}")
            for label, ii in (("ims", ims.achieved_ii),
                              ("slack", slack.achieved_ii)):
                if ii is not None and ii < best:
                    problems.append(
                        f"heuristic {label} beat the optimum: {ii} < {best}"
                    )
            if sequential.effective_ii < best:
                problems.append(
                    f"sequential II {sequential.effective_ii} below "
                    f"optimum {best}"
                )
        report.rows.append(CrossCheckRow(
            loop_name=ddg.name,
            t_lb=t_lb,
            highs_t=highs_t,
            sat_t=sat_t,
            enum_t=enumerated.achieved_t,
            ims_ii=ims.achieved_ii,
            slack_ii=slack.achieved_ii,
            sequential_ii=sequential.effective_ii,
            problems=problems,
        ))
    return report
