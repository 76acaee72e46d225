"""Correctness checks run on every benchmark run.

* Every returned schedule is replayed with ``repro.sim.executor.simulate``
  under its fixed FU mapping (``serve`` schedules are first rebuilt from
  their JSON against the DDG that was submitted).
* Achieved T and proof flags are compared with ``reference.json``: the
  per-loop verdicts of the SAT ``sweep`` and the HiGHS ``batch`` on the
  pinned slice, which ``make_reference.py`` only writes when the two
  agree on every loop both proved.  A run agrees with the reference when
  its bounds match, every T it proved equals the reference's proven T,
  and no T it found undercuts a proven one.  When the run's slice is the
  one the reference was made from, every loop must have a verdict there.
* In ``serve``, every repeat's T equals that of its first-seen request.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REFERENCE = Path(__file__).resolve().parent / "reference.json"
SIM_ITERATIONS = 8


def reference_key(result) -> str:
    return f"{result.loop.machine_name}/{result.loop.sha256}"


def _schedule_of(result):
    from repro.core.schedule import Schedule

    schedule = result.schedule
    if isinstance(schedule, dict):
        schedule = Schedule.from_dict(schedule, result.ddg,
                                      result.loop.machine)
    return schedule


def replay(result) -> Optional[str]:
    """None when the schedule replays clean, else what went wrong."""
    from repro.sim.executor import simulate

    try:
        schedule = _schedule_of(result)
    except Exception as exc:  # noqa: BLE001 - reported as a failure
        return f"schedule does not rebuild: {type(exc).__name__}: {exc}"
    if schedule.t_period != result.achieved_t:
        return (f"schedule T={schedule.t_period} but reported "
                f"T={result.achieved_t}")
    report = simulate(schedule, iterations=SIM_ITERATIONS,
                      dynamic_mapping=False, stop_at_first=True)
    if not report.ok:
        return f"replay: {report.first_violation()}"
    return None


def against_reference(result, reference: Dict[str, dict],
                      complete: bool) -> Optional[str]:
    ref = reference.get(reference_key(result))
    if ref is None:
        return "no reference verdict for this loop" if complete else None
    if result.t_lb != ref["t_lb"]:
        return f"T_lb={result.t_lb}, reference {ref['t_lb']}"
    t = result.achieved_t
    proven_t = ref.get("t_proven")
    if proven_t is not None:
        if result.proven and t != proven_t:
            return f"proved T={t}, reference proved T={proven_t}"
        if t is not None and t < proven_t:
            return f"T={t} undercuts the reference's proven T={proven_t}"
    elif result.proven and t is not None and t > ref["t_best"]:
        return f"proved T={t}, but the reference found T={ref['t_best']}"
    return None


def check(outcome, slice_checksum: str) -> Tuple[List[str], int]:
    """Every correctness problem of one workload run (empty when clean),
    and how many returned schedules passed every check.  A loop left
    without a schedule is a failed operation, not a wrong answer."""
    doc = json.loads(REFERENCE.read_text(encoding="utf-8"))
    reference = doc["loops"]
    complete = doc["slice"]["checksum"] == slice_checksum
    problems: List[str] = []
    verified = 0
    first_t: Dict[int, Optional[int]] = {}
    for result in outcome.results:
        label = f"{result.loop.machine_name}/{result.loop.ddg.name}"
        if result.request is not None:
            label += f" (request {result.request.index})"
        found = []
        if result.schedule is not None:
            found = [p for p in (replay(result),
                                 against_reference(result, reference,
                                                   complete))
                     if p is not None]
            verified += not found
        problems += [f"{label}: {problem}" for problem in found]
        if result.request is not None and result.request.repeat_of < 0:
            first_t[result.request.index] = result.achieved_t
    for result in outcome.results:
        request = result.request
        if request is None or request.repeat_of < 0:
            continue
        if (request.repeat_of in first_t
                and result.achieved_t != first_t[request.repeat_of]):
            problems.append(
                f"request {request.index} ({request.variant} repeat of "
                f"{request.repeat_of}): T={result.achieved_t}, first seen "
                f"T={first_t[request.repeat_of]}"
            )
    return problems, verified
