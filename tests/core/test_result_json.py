"""The one JSON form of a scheduling result: report, journal and store.

``SchedulingResult.to_json_dict`` is what batch reports and journals,
serve answers and store entries carry; ``from_json_dict`` must read it
back losslessly (up to the form's own rounding), failures and
non-finite gaps included.
"""

import json
import math
import pathlib

import pytest

from repro.core.bounds import LowerBounds
from repro.core.scheduler import (
    ScheduleAttempt,
    SchedulingResult,
    schedule_loop,
)
from repro.ddg.builders import parse_ddg
from repro.machine.presets import powerpc604
from repro.supervision.records import FailureRecord

CORPUS = sorted(
    (pathlib.Path(__file__).resolve().parents[2] / "corpus").glob("*.ddg")
)


def round_trip(result):
    doc = json.loads(json.dumps(result.to_json_dict(), allow_nan=False))
    return SchedulingResult.from_json_dict(doc, result.schedule)


@pytest.mark.parametrize("backend", ["highs", "sat"])
def test_corpus_results_round_trip(backend):
    machine = powerpc604()
    for path in CORPUS:
        result = schedule_loop(
            parse_ddg(path.read_text(encoding="utf-8")), machine,
            backend=backend, warmstart=False, time_limit_per_t=10,
        )
        assert any(a.backend == backend for a in result.attempts)
        back = round_trip(result)
        assert back.to_json_dict() == result.to_json_dict()
        assert back.loop_name == result.loop_name
        assert [(a.t_period, a.status, a.backend) for a in back.attempts] \
            == [(a.t_period, a.status, a.backend) for a in result.attempts]


def test_timeouts_failures_and_inf_gap_round_trip():
    path = CORPUS[0]
    result = schedule_loop(
        parse_ddg(path.read_text(encoding="utf-8")), powerpc604(),
        backend="sat", time_limit_per_t=10,
    )
    result.attempts[:0] = [
        ScheduleAttempt(
            t_period=result.bounds.t_lb - 2, status="time_limit",
            seconds=10.0, bound=3.0, gap=math.inf, backend="highs",
            model_stats={"solve_seconds": 10.0000004},
        ),
        ScheduleAttempt(
            t_period=result.bounds.t_lb - 1, status="crash", seconds=1.5,
            failure=FailureRecord(kind="crash", attempt=2, retries=1,
                                  elapsed=1.5, detail="worker died"),
        ),
    ]
    result.degraded = True
    doc = result.to_json_dict()
    timeout = doc["attempts"][0]
    assert timeout["gap"] is None  # inf is not JSON
    assert timeout["model"] == {"solve_seconds": 10.0}
    back = round_trip(result)
    assert back.to_json_dict() == doc
    assert back.attempts[0].gap is None
    assert back.attempts[1].failure == result.attempts[1].failure
    assert back.degraded and back.lost_cells() == result.lost_cells()


def test_no_schedule_round_trips():
    result = SchedulingResult(
        loop_name="x", bounds=LowerBounds(t_dep=3, t_res=5),
        attempts=[ScheduleAttempt(t_period=5, status="time_limit",
                                  gap=math.inf, backend="sat")],
    )
    doc = result.to_json_dict()
    assert doc["achieved_t"] is None and "schedule" not in doc
    assert round_trip(result).to_json_dict() == doc
