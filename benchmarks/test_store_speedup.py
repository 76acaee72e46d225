"""Persistent store: cold-vs-warm wall-clock over a synthetic corpus.

Schedules a 40-loop corpus on the PowerPC 604 model three times through
the same sequential driver against one on-disk store: a cold run that
populates it, a warm run that should answer almost entirely from disk,
and an adversarial run where every loop is scrambled (ops renamed, op
and dep order shuffled) and the machine object is renamed — the
canonical DDG digest and the name-free machine digest must see through
both.  Asserts the headline claims: >= 90% store hits on the warm and
scrambled runs, zero ILP solves there, and at least a 5x wall-clock
reduction warm-vs-cold.  Writes the measured numbers to
``BENCH_store.json`` at the repo root.
"""

import copy
import json
import pathlib
import random

from conftest import once

from repro.core import schedule_loop, verify_schedule
from repro.core.incremental import clear_contexts
from repro.ddg.generators import suite
from repro.ddg.transforms import scrambled
from repro.store.tiering import clear_tiers

BENCH_PATH = (
    pathlib.Path(__file__).resolve().parent.parent / "BENCH_store.json"
)
CORPUS_SIZE = 40
SEED = 604
TIME_LIMIT = 10.0
MAX_EXTRA = 10


def _run_corpus(loops, machine, store_dir):
    # Fresh process-local tiers each run: only the on-disk store may
    # carry answers across runs, exactly as separate processes would.
    clear_tiers()
    clear_contexts()
    results = [
        schedule_loop(
            ddg, machine, time_limit_per_t=TIME_LIMIT,
            max_extra=MAX_EXTRA, store=store_dir,
        )
        for ddg in loops
    ]
    return results


def _totals(results):
    return {
        "seconds": round(sum(r.total_seconds for r in results), 6),
        "scheduled": sum(1 for r in results if r.schedule is not None),
        "store_hits": sum(1 for r in results if r.store.hit),
        "published": sum(1 for r in results if r.store.published),
        "ilp_solves": sum(
            r.warmstart.ilp_solves if r.warmstart is not None else 0
            for r in results
            if not r.store.hit
        ),
    }


def test_store_speedup(benchmark, ppc604, tmp_path):
    corpus = suite(CORPUS_SIZE, ppc604, seed=SEED)
    store_dir = str(tmp_path / "store")

    cold = _run_corpus(corpus, ppc604, store_dir)
    warm = once(benchmark, lambda: _run_corpus(corpus, ppc604, store_dir))

    rng = random.Random(1995)
    variants = [scrambled(ddg, rng) for ddg in corpus]
    renamed = copy.deepcopy(ppc604)
    renamed.name = "renamed604"
    variant_run = _run_corpus(variants, renamed, store_dir)

    for cold_res, warm_res, var_res in zip(cold, warm, variant_run):
        if warm_res.store.hit:
            assert warm_res.achieved_t == cold_res.achieved_t
            verify_schedule(warm_res.schedule)
        if var_res.store.hit:
            assert var_res.achieved_t == cold_res.achieved_t
            verify_schedule(var_res.schedule)

    totals = {
        "cold": _totals(cold),
        "warm": _totals(warm),
        "scrambled_renamed": _totals(variant_run),
    }
    speedup = (
        totals["cold"]["seconds"] / totals["warm"]["seconds"]
        if totals["warm"]["seconds"] else float("inf")
    )
    doc = {
        "machine": ppc604.name,
        "corpus_size": CORPUS_SIZE,
        "seed": SEED,
        "time_limit_per_t": TIME_LIMIT,
        "max_extra": MAX_EXTRA,
        "runs": totals,
        "warm_speedup": round(speedup, 2),
    }
    BENCH_PATH.write_text(json.dumps(doc, indent=2) + "\n",
                          encoding="utf-8")

    print("\npersistent store (powerpc604, 40 loops):")
    for label, stats in totals.items():
        print(
            f"  {label}: {stats['seconds']:.2f}s, "
            f"{stats['store_hits']}/{CORPUS_SIZE} hits, "
            f"{stats['ilp_solves']} cold ILP solves"
        )
    print(f"  warm speedup: {speedup:.1f}x")

    floor = int(CORPUS_SIZE * 0.9)
    # The cold run may see a handful of hits: the synthetic suite can
    # contain isomorphic loops, and the second one hits the entry the
    # first just published.  It must still be overwhelmingly cold.
    assert totals["cold"]["store_hits"] <= CORPUS_SIZE - floor
    assert totals["warm"]["store_hits"] >= floor
    assert totals["scrambled_renamed"]["store_hits"] >= floor
    assert totals["warm"]["ilp_solves"] == 0
    assert totals["scrambled_renamed"]["ilp_solves"] == 0
    assert speedup >= 5.0, totals
