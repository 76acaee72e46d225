"""Tiered lookup: verify-on-read, eviction, publish policy, equivalence."""

import random

import pytest

from repro.core.incremental import clear_contexts
from repro.core.scheduler import AttemptConfig, run_sweep, schedule_loop
from repro.ddg.kernels import daxpy, dot_product, motivating_example
from repro.ddg.transforms import scrambled
from repro.machine.presets import motivating_machine
from repro.store import ScheduleStore, open_store
from repro.store.tiering import (
    LruCache,
    clear_tiers,
    lookup,
    publish,
    tier_stats,
)


@pytest.fixture(autouse=True)
def fresh_state():
    clear_tiers()
    clear_contexts()
    yield
    clear_tiers()
    clear_contexts()


@pytest.fixture
def store(tmp_path):
    return ScheduleStore(tmp_path / "store")


@pytest.fixture
def machine():
    return motivating_machine()


CONFIG = AttemptConfig(time_limit=10.0)


class TestLookupTiers:
    def test_miss_then_disk_then_memory(self, store, machine):
        ddg = motivating_example()
        stored, stats = lookup(store, ddg, machine, CONFIG, 10)
        assert stored is None and not stats.hit

        result = run_sweep(ddg, machine, CONFIG, 10, store=store)
        assert result.store.published

        clear_tiers()  # drop the memory tier; disk survives
        stored, stats = lookup(store, ddg, machine, CONFIG, 10)
        assert stored is not None
        assert stats.tier == "disk" and stats.verified

        stored, stats = lookup(store, ddg, machine, CONFIG, 10)
        assert stored is not None and stats.tier == "memory"

    def test_hit_equals_cold_solve(self, store, machine):
        # The acceptance-criteria differential: same T, same verified
        # validity, same rate-optimality flag as the cold solve.
        for ddg in (motivating_example(), dot_product(), daxpy()):
            cold = run_sweep(ddg, machine, CONFIG, 10, store=store)
            clear_tiers()
            warm = run_sweep(ddg, machine, CONFIG, 10, store=store)
            assert warm.store.hit
            assert warm.achieved_t == cold.achieved_t
            assert warm.is_rate_optimal_proven == cold.is_rate_optimal_proven
            assert warm.bounds == cold.bounds
            assert [a.t_period for a in warm.attempts] == [
                a.t_period for a in cold.attempts
            ]
            from repro.core.verify import verify_schedule

            verify_schedule(warm.schedule)

    def test_isomorphic_variant_hits_and_verifies(self, store, machine):
        ddg = motivating_example()
        cold = run_sweep(ddg, machine, CONFIG, 10, store=store)
        variant = scrambled(ddg, random.Random(11))
        warm = run_sweep(variant, machine, CONFIG, 10, store=store)
        assert warm.store.hit
        assert warm.achieved_t == cold.achieved_t
        assert warm.loop_name == variant.name
        from repro.core.verify import verify_schedule

        verify_schedule(warm.schedule)

    def test_different_machine_misses(self, store, machine):
        ddg = motivating_example()
        run_sweep(ddg, machine, CONFIG, 10, store=store)
        other = motivating_machine(fp_units=3)
        stored, stats = lookup(store, ddg, other, CONFIG, 10)
        assert stored is None and not stats.hit

    def test_different_semantics_miss(self, store, machine):
        ddg = motivating_example()
        run_sweep(ddg, machine, CONFIG, 10, store=store)
        other = AttemptConfig(time_limit=10.0, objective="min_sum_t")
        stored, _ = lookup(store, ddg, machine, other, 10)
        assert stored is None

    def test_speed_knobs_still_hit(self, store, machine):
        ddg = motivating_example()
        run_sweep(ddg, machine, CONFIG, 10, store=store)
        clear_tiers()
        fast = AttemptConfig(time_limit=1.0, presolve=False,
                             warmstart=False, backend="bnb")
        stored, stats = lookup(store, ddg, machine, fast, 10)
        assert stored is not None and stats.hit


class TestVerifyOnRead:
    def _published(self, store, machine, ddg):
        result = run_sweep(ddg, machine, CONFIG, 10, store=store)
        assert result.store.published
        return result

    def test_tampered_starts_evict_and_fall_back(self, store, machine):
        import json

        ddg = motivating_example()
        cold = self._published(store, machine, ddg)
        key = cold.store.key
        entry = store.read(key)
        # Corrupt the payload in a structurally-valid way: collapse all
        # starts to cycle 0, violating every positive-latency dependence.
        starts = entry["result"]["schedule"]["starts"]
        entry["result"]["schedule"]["starts"] = [0] * len(starts)
        store.path_for(key).write_text(
            json.dumps(entry), encoding="utf-8"
        )
        clear_tiers()
        again = run_sweep(ddg, machine, CONFIG, 10, store=store)
        assert not again.store.hit
        assert again.store.evicted
        # ... and the cold solve re-published a good entry.
        assert again.store.published
        assert again.achieved_t == cold.achieved_t
        clear_tiers()
        stored, stats = lookup(store, ddg, machine, CONFIG, 10)
        assert stored is not None and stats.verified

    def test_stale_entry_for_changed_machine_content(self, store, machine):
        # Force a key collision with different machine content by
        # writing the entry under the *new* machine's key: text matches,
        # but verification against the new machine must reject it.
        ddg = motivating_example()
        cold = self._published(store, machine, ddg)
        entry = store.read(cold.store.key)
        weaker = motivating_machine(fp_units=1)
        weak_cfg = AttemptConfig(time_limit=10.0)
        _, weak_stats = lookup(store, ddg, weaker, weak_cfg, 10)
        store.write(weak_stats.key, entry)
        clear_tiers()
        clear_contexts()
        stored, stats = lookup(store, ddg, weaker, weak_cfg, 10)
        assert stored is None
        assert stats.evicted
        assert store.read(weak_stats.key) is None

    def test_text_mismatch_is_evicted(self, store, machine):
        import json

        ddg = motivating_example()
        cold = self._published(store, machine, ddg)
        entry = store.read(cold.store.key)
        entry["ddg"] = "loop canonical\nop o0 fadd\n"
        store.path_for(cold.store.key).write_text(
            json.dumps(entry), encoding="utf-8"
        )
        clear_tiers()
        stored, stats = lookup(store, ddg, machine, CONFIG, 10)
        assert stored is None and stats.evicted


class TestPublishPolicy:
    def test_degraded_results_are_not_published(self, store, machine):
        ddg = motivating_example()
        result = run_sweep(ddg, machine, CONFIG, 10)
        result.degraded = True
        assert not publish(store, ddg, machine, CONFIG, 10, result)
        assert len(store) == 0

    def test_unscheduled_results_are_not_published(self, store, machine):
        ddg = motivating_example()
        result = run_sweep(ddg, machine, CONFIG, 10)
        result.schedule = None
        assert not publish(store, ddg, machine, CONFIG, 10, result)

    def test_failed_attempts_block_publication(self, store, machine):
        from repro.supervision.records import FailureRecord

        ddg = motivating_example()
        result = run_sweep(ddg, machine, CONFIG, 10)
        result.attempts[0].failure = FailureRecord(
            kind="crash", detail="boom"
        )
        assert not publish(store, ddg, machine, CONFIG, 10, result)


class TestScheduleLoopAndOpenStore:
    def test_schedule_loop_accepts_path(self, tmp_path, machine):
        ddg = motivating_example()
        path = str(tmp_path / "s")
        cold = schedule_loop(ddg, machine, store=path,
                             time_limit_per_t=10.0)
        assert cold.store is not None and cold.store.published
        clear_tiers()
        warm = schedule_loop(ddg, machine, store=path,
                             time_limit_per_t=10.0)
        assert warm.store.hit

    def test_open_store_coercions(self, tmp_path):
        assert open_store(None) is None
        store = ScheduleStore(tmp_path)
        assert open_store(store) is store
        opened = open_store(str(tmp_path))
        assert isinstance(opened, ScheduleStore)

    def test_tier_stats_shape(self):
        stats = tier_stats()
        assert set(stats) == {"canonical", "entry"}
        for counters in stats.values():
            assert {"hits", "misses", "size"} <= set(counters)


class TestLruCache:
    def test_basic_roundtrip(self):
        lru = LruCache(maxsize=2)
        lru.put("a", 1)
        assert lru.get("a") == 1
        assert lru.get("b") is None
        assert lru.hits == 1 and lru.misses == 1

    def test_eviction_is_lru(self):
        lru = LruCache(maxsize=2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")          # refresh a; b is now least-recent
        lru.put("c", 3)
        assert lru.get("b") is None
        assert lru.get("a") == 1
        assert lru.get("c") == 3

    def test_bad_maxsize(self):
        with pytest.raises(ValueError, match="maxsize"):
            LruCache(maxsize=0)

    def test_pop_removes_without_counting(self):
        lru = LruCache(maxsize=2)
        lru.put("a", 1)
        assert lru.pop("a") == 1
        assert lru.pop("a") is None
        assert lru.hits == 0 and lru.misses == 0
        assert lru.get("a") is None  # really gone: this is the only miss
        assert lru.misses == 1
