"""(period x backend) portfolio racing vs. the best single backend.

Two claims, measured on the hazard-heavy ``deep-unclean`` machine (deep
non-pipelined reservation tables — the structural-hazard regime the
paper targets, and the slice where CNF propagation beats LP-based
branch-and-bound):

1. **SAT wins a slice outright**: summed over the corpus slice, the
   pure-python CDCL backend is faster than *both* ILP backends at the
   same verdicts (feasibility agreement is checked loop by loop).
2. **The portfolio tracks the best backend**: racing
   ``(period x backend)`` cells with first-winner-kills-losers costs no
   more than the best single backend plus dispatch overhead — without
   knowing in advance which backend that is.

Writes the measured numbers to ``BENCH_portfolio.json`` at the repo
root (shipped with the bench-smoke CI artifacts next to
``BENCH_incremental.json``).

``warmstart=False`` keeps the heuristic pre-pass from settling loops
before any backend runs, so the measurement isolates backend search.
"""

import json
import pathlib
import time

import pytest
from conftest import once

from repro.core import schedule_loop
from repro.core.incremental import clear_contexts
from repro.ddg.generators import suite
from repro.machine.presets import deep_unclean
from repro.parallel import race_periods
from repro.store.tiering import clear_tiers

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_portfolio.json"
)
CORPUS_SIZE = 30
SEED = 604
#: deep-unclean interference blows up past this size on the pure-python
#: ILP solver; the slice is exactly the paper-scale "small hot loop".
MAX_OPS = 10
TIME_LIMIT = 5.0
MAX_EXTRA = 10
ROSTER = ("highs", "bnb", "sat")
#: Dispatch allowance for claim 2: per-race pool spin-up plus the
#: loser-kill latency, measured generously for CI noise.
OVERHEAD_FRACTION = 0.50
OVERHEAD_SECONDS = 10.0


@pytest.fixture(scope="module")
def machine():
    return deep_unclean()


@pytest.fixture(scope="module")
def loops(machine):
    corpus = [
        ddg for ddg in suite(CORPUS_SIZE, machine, seed=SEED)
        if ddg.num_ops <= MAX_OPS
    ]
    assert len(corpus) >= 10, "slice filter left too few loops"
    return corpus


def _single_sweep(loops, machine, backend):
    """Sequential per-loop sweeps on one backend; (results, seconds)."""
    clear_contexts()
    clear_tiers()
    start = time.monotonic()
    results = [
        schedule_loop(
            ddg, machine, backend=backend, warmstart=False,
            time_limit_per_t=TIME_LIMIT, max_extra=MAX_EXTRA,
        )
        for ddg in loops
    ]
    return results, time.monotonic() - start


def _portfolio_sweep(loops, machine):
    clear_contexts()
    clear_tiers()
    start = time.monotonic()
    results = [
        race_periods(
            ddg, machine, backends=ROSTER, warmstart=False,
            time_limit_per_t=TIME_LIMIT, max_extra=MAX_EXTRA,
            jobs=4,
        )
        for ddg in loops
    ]
    return results, time.monotonic() - start


def _summary(results, seconds):
    return {
        "wall_seconds": round(seconds, 3),
        "scheduled": sum(
            1 for r in results if r.schedule is not None
        ),
        "proven": sum(1 for r in results if r.is_rate_optimal_proven),
        "achieved": {
            r.loop_name: r.achieved_t for r in results
        },
    }


def _assert_verdicts_agree(per_backend, loops):
    """Hard conflicts only: feasible-vs-infeasible at the same T.

    Timeout-induced differences in achieved T are legitimate (a slower
    backend may fail to settle a period inside the budget); what can
    never happen is one backend scheduling a period a sibling *proved*
    infeasible.
    """
    conflicts = []
    for ddg in loops:
        verdicts = {}
        for backend, (results, _) in per_backend.items():
            result = next(
                r for r in results if r.loop_name == ddg.name
            )
            for a in result.attempts:
                if a.status in ("optimal", "feasible"):
                    verdicts.setdefault(a.t_period, {})[backend] = True
                elif a.status in ("infeasible", "modulo_infeasible"):
                    verdicts.setdefault(a.t_period, {})[backend] = False
        for t, by_backend in verdicts.items():
            if len(set(by_backend.values())) > 1:
                conflicts.append((ddg.name, t, by_backend))
    assert not conflicts, conflicts


def test_portfolio_speedup(benchmark, machine, loops):
    per_backend = {}
    for backend in ROSTER:
        per_backend[backend] = _single_sweep(loops, machine, backend)

    _assert_verdicts_agree(per_backend, loops)

    portfolio_results, portfolio_secs = once(
        benchmark, lambda: _portfolio_sweep(loops, machine)
    )

    # Per-loop winner tally for the report.
    wins = {}
    for result in portfolio_results:
        name = (result.portfolio or {}).get("winner_backend", "none")
        wins[name] = wins.get(name, 0) + 1

    singles = {b: secs for b, (_, secs) in per_backend.items()}
    best_backend = min(singles, key=singles.get)
    best_secs = singles[best_backend]
    sat_secs = singles["sat"]

    doc = {
        "machine": machine.name,
        "corpus_size": len(loops),
        "seed": SEED,
        "max_ops": MAX_OPS,
        "time_limit_per_t": TIME_LIMIT,
        "warmstart": False,
        "roster": list(ROSTER),
        "single_backend": {
            b: _summary(*per_backend[b]) for b in ROSTER
        },
        "portfolio": {
            **_summary(portfolio_results, portfolio_secs),
            "jobs": 4,
            "wins": wins,
            "killed_running": sum(
                (r.portfolio or {}).get("killed_running", 0)
                for r in portfolio_results
            ),
            "cancelled_queued": sum(
                (r.portfolio or {}).get("cancelled_queued", 0)
                for r in portfolio_results
            ),
        },
        "best_single_backend": best_backend,
        "best_single_seconds": round(best_secs, 3),
        "portfolio_vs_best_single": round(
            portfolio_secs / best_secs, 3
        ),
        "sat_vs_highs": round(sat_secs / singles["highs"], 3),
        "sat_vs_bnb": round(sat_secs / singles["bnb"], 3),
        "verdicts_agree": True,
    }
    BENCH_PATH.write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8"
    )
    print(
        f"\nportfolio sweep ({len(loops)} loops, {machine.name}): "
        + "  ".join(
            f"{b} {secs:.2f}s" for b, secs in singles.items()
        )
        + f"  portfolio {portfolio_secs:.2f}s "
        f"(best single: {best_backend})"
    )

    # Claim 1: the SAT backend wins this slice outright.
    assert sat_secs < singles["highs"], doc
    assert sat_secs < singles["bnb"], doc

    # The portfolio must schedule and prove no worse than the best
    # single backend (kills must never cost answers).
    best_results = per_backend[best_backend][0]
    assert (
        sum(1 for r in portfolio_results if r.schedule is not None)
        >= sum(1 for r in best_results if r.schedule is not None)
    ), doc

    # Claim 2: portfolio wall-clock tracks the best single backend.
    allowance = best_secs * OVERHEAD_FRACTION + OVERHEAD_SECONDS
    assert portfolio_secs <= best_secs + allowance, doc
