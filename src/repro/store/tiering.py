"""Three-tier result lookup: process memory -> disk store -> solve.

``lookup`` is the fast path bolted onto the front of
:func:`repro.core.scheduler.run_sweep`: canonicalize the query loop and
machine, form the content address, and probe a small in-process entry
cache, then the shared on-disk store.  A raw entry is never trusted —
before it becomes a hit it must pass, in order:

1. **canonical-text equality**: the entry's stored canonical DDG text
   must equal the query's byte-for-byte.  Digest equality got us to the
   file; text equality is what proves genuine isomorphism even if the
   WL-refined canonical labeling ever mapped two distinct graphs to one
   digest.
2. **bounds cross-check**: the stored ``(T_dep, T_res)`` must match the
   bounds recomputed for the query loop on the *current* machine, and
   the stored period must lie inside the query's sweep window.
3. **schedule re-verification**: the rebuilt schedule is run through
   :func:`repro.core.verify.verify_schedule` against the current
   machine.  This is the load-bearing guarantee — a stale, corrupted or
   adversarial entry can cost a failed lookup, never a wrong result.

Any failure evicts the entry from both tiers and reports a miss, so the
caller falls back to a cold solve which then re-publishes fresh content.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from typing import Generic, Optional, Tuple, TypeVar

from repro.core.bounds import lower_bounds
from repro.core.errors import VerificationError
from repro.core.scheduler import (
    AttemptConfig,
    SchedulingResult,
    StoreStats,
)
from repro.core.verify import verify_schedule
from repro.ddg.builders import serialize_ddg
from repro.ddg.canonical import CanonicalForm, canonical_form
from repro.ddg.graph import Ddg
from repro.machine import Machine
from repro.store.disk import ScheduleStore
from repro.store.entry import EntryError, entry_to_result, result_to_entry
from repro.store.keys import (
    canonical_machine_digest,
    config_fingerprint,
    store_key,
)

K = TypeVar("K")
V = TypeVar("V")


class LruCache(Generic[K, V]):
    """A small, None-safe LRU map (``None`` is never a cached value)."""

    def __init__(self, maxsize: int = 256) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._data: "OrderedDict[K, V]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: K) -> Optional[V]:
        try:
            value = self._data[key]
        except KeyError:
            self.misses += 1
            return None
        self._data.move_to_end(key)
        self.hits += 1
        return value

    def put(self, key: K, value: V) -> None:
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def pop(self, key: K) -> Optional[V]:
        """Remove and return ``key``'s value (None if absent); no counters."""
        return self._data.pop(key, None)

    def clear(self) -> None:
        self._data.clear()
        self.hits = 0
        self.misses = 0


#: raw DDG digest -> CanonicalForm.  Canonicalization is cheap but the
#: batch runner queries the same handful of shapes thousands of times.
_CANON_CACHE: LruCache[str, CanonicalForm] = LruCache(512)
#: store key -> entry dict (the in-process tier above the disk store).
_ENTRY_CACHE: LruCache[str, dict] = LruCache(256)


def ddg_digest(ddg: Ddg) -> str:
    """Exact content digest of a DDG (its text serialization).

    Keys the canonical-form memo: only a byte-identical loop reuses a
    canonicalization, which is then remapped like any other.
    """
    return hashlib.sha256(serialize_ddg(ddg).encode("utf-8")).hexdigest()


def cached_canonical_form(ddg: Ddg) -> CanonicalForm:
    raw = ddg_digest(ddg)
    form = _CANON_CACHE.get(raw)
    if form is None:
        form = canonical_form(ddg)
        _CANON_CACHE.put(raw, form)
    return form


def request_key(
    ddg: Ddg, machine: Machine, config: AttemptConfig, max_extra: int
) -> str:
    """The content address a ``(ddg, machine, config)`` query resolves to.

    Exposed for request coalescing in :mod:`repro.serve`: two
    submissions with the same key would perform byte-identical sweeps
    and publish the same store entry, so the daemon runs one solve and
    fans the result out.  Uses the same canonicalization cache as
    :func:`lookup`, so computing the key does not duplicate work the
    eventual solve needs anyway.
    """
    form = cached_canonical_form(ddg)
    return store_key(
        form.digest,
        canonical_machine_digest(machine),
        config_fingerprint(config, max_extra),
    )


def _validated_result(
    entry: dict,
    form: CanonicalForm,
    ddg: Ddg,
    machine: Machine,
    config: AttemptConfig,
    max_extra: int,
) -> Optional[SchedulingResult]:
    """Run the three validation gates; None means evict-and-miss."""
    if entry.get("ddg") != form.text:
        return None
    try:
        result = entry_to_result(entry, ddg, machine, form.order)
    except EntryError:
        return None
    bounds = lower_bounds(ddg, machine)
    if (result.bounds.t_dep, result.bounds.t_res) != (
        bounds.t_dep, bounds.t_res,
    ):
        return None
    schedule = result.schedule
    if schedule is None:
        return None
    if not bounds.t_lb <= schedule.t_period <= bounds.t_lb + max_extra:
        return None
    try:
        verify_schedule(schedule, check_mapping=config.mapping is not False)
    except VerificationError:
        return None
    return result


def lookup(
    store: ScheduleStore,
    ddg: Ddg,
    machine: Machine,
    config: AttemptConfig,
    max_extra: int,
) -> Tuple[Optional[SchedulingResult], StoreStats]:
    """Probe both tiers for ``(ddg, machine, config)``; verify any hit."""
    clock = time.monotonic()
    form = cached_canonical_form(ddg)
    fingerprint = config_fingerprint(config, max_extra)
    key = store_key(
        form.digest, canonical_machine_digest(machine), fingerprint
    )
    stats = StoreStats(enabled=True, key=key)
    entry = _ENTRY_CACHE.get(key)
    tier = "memory" if entry is not None else None
    if entry is None:
        entry = store.read(key)
        if entry is not None:
            tier = "disk"
    if entry is None:
        stats.seconds = time.monotonic() - clock
        return None, stats
    result = _validated_result(entry, form, ddg, machine, config, max_extra)
    if result is None:
        _ENTRY_CACHE.pop(key)
        store.delete(key)
        stats.evicted = True
        stats.seconds = time.monotonic() - clock
        return None, stats
    if tier == "disk":
        _ENTRY_CACHE.put(key, entry)
    stats.hit = True
    stats.tier = tier
    stats.verified = True
    stats.seconds = time.monotonic() - clock
    return result, stats


def publishable(result: SchedulingResult) -> bool:
    """Only clean results enter the store: a schedule was found, the
    sweep did not degrade to an incumbent, and no attempt ended in a
    supervision failure (a failure means some smaller period's verdict
    is unknown, so the attempt log must not be replayed as authoritative
    on a future machine-identical query)."""
    return (
        result.schedule is not None
        and not result.degraded
        and all(a.failure is None for a in result.attempts)
    )


def publish(
    store: ScheduleStore,
    ddg: Ddg,
    machine: Machine,
    config: AttemptConfig,
    max_extra: int,
    result: SchedulingResult,
    stats: Optional[StoreStats] = None,
) -> bool:
    """Write a clean result under its content address (both tiers).

    Verifies the schedule once more before serializing — nothing enters
    the store unverified, so every reader's verify-on-read starts from
    content that was valid when written.
    """
    if not publishable(result):
        return False
    try:
        verify_schedule(
            result.schedule, check_mapping=config.mapping is not False
        )
    except VerificationError:
        return False
    form = cached_canonical_form(ddg)
    fingerprint = config_fingerprint(config, max_extra)
    key = store_key(
        form.digest, canonical_machine_digest(machine), fingerprint
    )
    entry = result_to_entry(
        result,
        form,
        canonical_machine_digest(machine),
        fingerprint,
        provenance={
            "backend": config.backend,
            "time_limit": config.time_limit,
            "warmstart": config.warmstart,
        },
    )
    store.write(key, entry)
    _ENTRY_CACHE.put(key, entry)
    if stats is not None:
        stats.published = True
    return True


def tier_stats() -> dict:
    """Hit/miss counters for the in-process tiers (diagnostics)."""
    return {
        "canonical": {
            "hits": _CANON_CACHE.hits,
            "misses": _CANON_CACHE.misses,
            "size": len(_CANON_CACHE),
        },
        "entry": {
            "hits": _ENTRY_CACHE.hits,
            "misses": _ENTRY_CACHE.misses,
            "size": len(_ENTRY_CACHE),
        },
    }


def clear_tiers() -> None:
    """Drop the in-process tiers (tests; does not touch the disk store)."""
    _CANON_CACHE.clear()
    _ENTRY_CACHE.clear()
