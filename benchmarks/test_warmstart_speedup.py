"""Warm-start ablation: sweep wall-clock with the heuristic pass on vs off.

Schedules a synthetic corpus on the §2 motivating machine (the
hazard-heavy configuration) twice on HiGHS — warm starts enabled and
disabled — through the same sequential driver.  Asserts the
differential guarantee (identical achieved periods wherever both runs
reached a definitive answer) and the headline claim: at least a 10%
wall-clock reduction, or the heuristic settling at least a third of the
corpus with zero ILP solves.  Writes the measured numbers to
``BENCH_warmstart.json`` at the repo root.
"""

import json
import pathlib

from conftest import once

from repro.core import schedule_loop, verify_schedule
from repro.ddg.generators import suite
from repro.ilp.solution import SolveStatus

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_warmstart.json"
)
CORPUS_SIZE = 40
SEED = 604
MAX_EXTRA = 30
TIMED_OUT = SolveStatus.TIME_LIMIT.value
#: Per-backend per-period budget.
BACKENDS = {"highs": 10.0}


def _run_corpus(loops, machine, backend, warmstart, time_limit):
    return [
        schedule_loop(
            ddg, machine, backend=backend, time_limit_per_t=time_limit,
            max_extra=MAX_EXTRA, warmstart=warmstart,
        )
        for ddg in loops
    ]


def _assert_equivalent(on, off):
    for res_on, res_off in zip(on, off):
        timed_out = any(
            a.status == TIMED_OUT
            for r in (res_on, res_off)
            for a in r.attempts
        )
        if not timed_out:
            assert res_on.achieved_t == res_off.achieved_t, (
                res_on.loop_name
            )
        if res_on.schedule is not None:
            verify_schedule(res_on.schedule)


def _totals(results):
    return {
        "seconds": round(sum(r.total_seconds for r in results), 6),
        "ilp_solves": sum(
            r.warmstart.ilp_solves if r.warmstart is not None else 0
            for r in results
        ),
        "scheduled": sum(1 for r in results if r.schedule is not None),
    }


def test_warmstart_speedup(benchmark, motivating):
    corpus = suite(CORPUS_SIZE, motivating, seed=SEED)
    cold = {
        backend: _run_corpus(
            corpus, motivating, backend, warmstart=False,
            time_limit=time_limit,
        )
        for backend, time_limit in BACKENDS.items()
    }
    warm = once(
        benchmark,
        lambda: {
            backend: _run_corpus(
                corpus, motivating, backend, warmstart=True,
                time_limit=time_limit,
            )
            for backend, time_limit in BACKENDS.items()
        },
    )

    doc = {
        "machine": motivating.name,
        "corpus_size": CORPUS_SIZE,
        "seed": SEED,
        "max_extra": MAX_EXTRA,
        "backends": {},
    }
    lines = []
    for backend in BACKENDS:
        _assert_equivalent(warm[backend], cold[backend])
        totals_on, totals_off = _totals(warm[backend]), _totals(cold[backend])
        skipped = sum(
            1 for r in warm[backend]
            if r.warmstart is not None and r.warmstart.skipped_all_ilp
        )
        time_reduction = (
            1.0 - totals_on["seconds"] / totals_off["seconds"]
            if totals_off["seconds"] else 0.0
        )
        doc["backends"][backend] = {
            "loops": len(corpus),
            "time_limit_per_t": BACKENDS[backend],
            "warmstart_on": totals_on,
            "warmstart_off": totals_off,
            "skipped_ilp": skipped,
            "time_reduction": round(time_reduction, 4),
        }
        lines.append(
            f"{backend}: {len(corpus)} loops, "
            f"time {totals_off['seconds']:.2f}s -> "
            f"{totals_on['seconds']:.2f}s ({time_reduction:.1%}), "
            f"ILP solves {totals_off['ilp_solves']} -> "
            f"{totals_on['ilp_solves']}, "
            f"{skipped} settled by heuristic alone"
        )

    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")
    print("\nwarm-start ablation (motivating machine):")
    for line in lines:
        print(f"  {line}")
    for backend, stats in doc["backends"].items():
        assert (
            stats["time_reduction"] >= 0.10
            or stats["skipped_ilp"] >= stats["loops"] // 3
        ), (backend, stats)
