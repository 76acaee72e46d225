"""Incremental T-sweep ablation: shared context + warm LP bases on vs off.

Sweeps a seeded corpus on the §2 motivating machine (the hazard-heavy
configuration where infeasibility proofs at T_lb..T-1 dominate the
sweep) under two regimes per backend:

* **baseline** — no sweep context (``context_for`` patched to return
  None) and, on the pure-python solver, ``REPRO_LP_ENGINE=cold``: every
  attempt rebuilds its analysis from scratch and every branch-and-bound
  node solves its LP cold;
* **incremental** — the defaults: a sweep-wide
  :class:`repro.core.incremental.SweepContext` (shared T-independent
  analysis, recycled infeasibility cuts) plus warm dual-simplex
  restarts across nodes.

Asserts the headline claim — at least a 15% end-to-end wall-clock
reduction on the ``bnb`` backend and non-regression on ``highs`` (where
scipy exposes no basis I/O, so only the formulation-side reuse applies)
— and the safety claim: with the LP engine held fixed, dropping the
context leaves every schedule byte-identical (start cycles, FU colors,
per-period statuses, bounds, proof flags).  Writes the measured
numbers to ``BENCH_incremental.json`` at the repo root.

``warmstart=False`` keeps the heuristic pre-pass out of the loop so the
measurement isolates the ILP sweep the issue targets.
"""

import json
import pathlib
import time

import pytest
from conftest import once

from repro.core import schedule_loop, verify_schedule
from repro.core.incremental import clear_contexts, incremental_stats
from repro.ddg.generators import suite
from repro.ilp.branch_bound import LP_ENGINE_ENV

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_incremental.json"
)
CORPUS_SIZE = 40
SEED = 604
MAX_EXTRA = 30
#: Loops small enough for the pure-python solver's practical range.
BNB_MAX_OPS = 8
BNB_TIME_LIMIT = 30.0
HIGHS_TIME_LIMIT = 10.0


def _sweep(loops, machine, backend, time_limit, incremental, lp_engine):
    """Run the corpus sequentially; return (results, wall_seconds).

    ``incremental=False`` makes ``context_for`` return None, so every
    attempt builds cold (the path ``presolve=False`` takes).
    """
    clear_contexts()
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(LP_ENGINE_ENV, lp_engine)
        if not incremental:
            patch.setattr("repro.core.incremental.context_for",
                          lambda ddg, machine: None)
        start = time.monotonic()
        results = [
            schedule_loop(
                ddg, machine, backend=backend, warmstart=False,
                time_limit_per_t=time_limit, max_extra=MAX_EXTRA,
            )
            for ddg in loops
        ]
        elapsed = time.monotonic() - start
    return results, elapsed


def _fields(result):
    """Everything the sweep context is forbidden to change."""
    return {
        "achieved_t": result.achieved_t,
        "proven": result.is_rate_optimal_proven,
        "t_dep": result.bounds.t_dep,
        "t_res": result.bounds.t_res,
        "statuses": [(a.t_period, a.status) for a in result.attempts],
        "starts": result.schedule.starts if result.schedule else None,
        "colors": (sorted(result.schedule.colors.items())
                   if result.schedule else None),
    }


def _assert_byte_identical(on, off):
    for res_on, res_off in zip(on, off):
        assert _fields(res_on) == _fields(res_off), res_on.loop_name
        if res_on.schedule is not None:
            verify_schedule(res_on.schedule)


def _summarize(results, elapsed):
    reused = rebuilt = skipped = 0
    for result in results:
        for attempt in result.attempts:
            stats = attempt.model_stats
            if not stats:
                continue
            if "cut_skip" in stats:
                skipped += 1
                continue
            reused += stats.get("reused_rows", 0)
            rebuilt += stats.get("rebuilt_rows", 0)
    return {
        "wall_seconds": round(elapsed, 3),
        "scheduled": sum(1 for r in results if r.schedule is not None),
        "reused_rows": reused,
        "rebuilt_rows": rebuilt,
        "attempts_cut_skipped": skipped,
    }


def test_incremental_speedup(benchmark, motivating):
    loops = [
        ddg for ddg in suite(CORPUS_SIZE, motivating, seed=SEED)
        if ddg.num_ops <= BNB_MAX_OPS
    ]
    assert len(loops) >= 10, "corpus filter left too few bnb-sized loops"

    # --- bnb: the backend where both reuse layers apply -------------------
    bnb_off, bnb_off_secs = _sweep(
        loops, motivating, "bnb", BNB_TIME_LIMIT,
        incremental=False, lp_engine="cold",
    )
    def _headline():
        return _sweep(
            loops, motivating, "bnb", BNB_TIME_LIMIT,
            incremental=True, lp_engine="warm",
        )
    bnb_on, bnb_on_secs = once(benchmark, _headline)
    bnb_reduction = 1.0 - bnb_on_secs / bnb_off_secs
    bnb_stats = incremental_stats()

    # Safety: same engine, context dropped — byte-identical results.
    bnb_off_warm, _ = _sweep(
        loops, motivating, "bnb", BNB_TIME_LIMIT,
        incremental=False, lp_engine="warm",
    )
    _assert_byte_identical(bnb_on, bnb_off_warm)

    # --- highs: formulation-side reuse only, must not regress -------------
    highs_off, highs_off_secs = _sweep(
        loops, motivating, "highs", HIGHS_TIME_LIMIT,
        incremental=False, lp_engine="warm",
    )
    highs_on, highs_on_secs = _sweep(
        loops, motivating, "highs", HIGHS_TIME_LIMIT,
        incremental=True, lp_engine="warm",
    )
    _assert_byte_identical(highs_on, highs_off)
    highs_reduction = 1.0 - highs_on_secs / highs_off_secs

    doc = {
        "machine": motivating.name,
        "corpus_size": len(loops),
        "seed": SEED,
        "max_ops": BNB_MAX_OPS,
        "warmstart": False,
        "bnb": {
            "time_limit_per_t": BNB_TIME_LIMIT,
            "baseline": _summarize(bnb_off, bnb_off_secs),
            "incremental": _summarize(bnb_on, bnb_on_secs),
            "reduction": round(bnb_reduction, 4),
            "analysis_hits": bnb_stats["analysis_hits"],
            "cuts_harvested": bnb_stats["cuts_harvested"],
        },
        "highs": {
            "time_limit_per_t": HIGHS_TIME_LIMIT,
            "baseline": _summarize(highs_off, highs_off_secs),
            "incremental": _summarize(highs_on, highs_on_secs),
            "reduction": round(highs_reduction, 4),
        },
        "byte_identical": True,
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")
    print(
        f"\nincremental sweep ({len(loops)} loops, motivating machine): "
        f"bnb {bnb_off_secs:.2f}s -> {bnb_on_secs:.2f}s "
        f"({bnb_reduction:.1%}), "
        f"highs {highs_off_secs:.2f}s -> {highs_on_secs:.2f}s "
        f"({highs_reduction:.1%})"
    )
    assert bnb_reduction >= 0.15, doc
    # highs gains are formulation-side only; require non-regression with
    # a noise margin rather than a hard speedup.
    assert highs_reduction >= -0.10, doc
