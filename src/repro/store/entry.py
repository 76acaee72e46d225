"""Store entry schema: a full ``SchedulingResult`` as a JSON blob.

An entry's ``result`` is the result's one JSON form
(:meth:`~repro.core.scheduler.SchedulingResult.to_json_dict`, the same
form batch reports carry): bounds, the complete per-period attempt log
with each attempt's backend (the log is what the
``is_rate_optimal_proven`` claim is made of), warm-start stats — with
the schedule's starts/colors permuted into **canonical op
order** — so a hit on a renamed/reordered variant of the original loop
maps the payload back through its own canonical order.  The canonical
DDG text rides along verbatim: lookups compare it byte-for-byte against
the query's canonical text (digest equality alone never decides a hit),
and ``repro cache verify`` re-checks entries offline by parsing it.

Entries are provenance-rich but trust-poor: reconstruction re-verifies
the schedule against the *current* machine before anything is reused
(see :mod:`repro.store.tiering`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.core.schedule import Schedule
from repro.core.scheduler import SchedulingResult
from repro.ddg.canonical import CanonicalForm
from repro.ddg.graph import Ddg
from repro.machine import Machine
from repro.store.keys import STORE_VERSION


class EntryError(ValueError):
    """Structurally unusable store entry (treated as a miss upstream)."""


def result_to_entry(
    result: SchedulingResult,
    form: CanonicalForm,
    machine_digest: str,
    fingerprint: dict,
    provenance: Optional[dict] = None,
) -> dict:
    """Serialize a clean result into the store's JSON entry schema.

    ``form`` is the canonical identity of the loop the result was
    computed for; the schedule's starts/colors are permuted into its
    canonical order so they transfer to any isomorphic loop.
    """
    schedule = result.schedule
    if schedule is None:
        raise EntryError("only results with a schedule are storable")
    payload = result.to_json_dict()
    payload.pop("store", None)  # this run's store record, not the result's
    pos_of = {old: p for p, old in enumerate(form.order)}
    starts = [0] * len(form.order)
    colors: Dict[str, int] = {}
    for old, p in pos_of.items():
        starts[p] = schedule.starts[old]
        if old in schedule.colors:
            colors[str(p)] = schedule.colors[old]
    return {
        "store_version": STORE_VERSION,
        "ddg_digest": form.digest,
        "ddg": form.text,
        "machine_digest": machine_digest,
        "fingerprint": dict(fingerprint),
        "provenance": {
            "created": time.time(),
            "loop": result.loop_name,
            "solve_seconds": result.total_seconds,
            **(provenance or {}),
        },
        "result": {
            **payload,
            "schedule": {
                "t_period": schedule.t_period,
                "starts": starts,
                "colors": colors,
                "fu_counts_used": schedule.fu_counts_used,
            },
        },
    }


def entry_to_result(
    entry: dict,
    ddg: Ddg,
    machine: Machine,
    order: List[int],
) -> SchedulingResult:
    """Reconstruct a result against the *query* loop and machine.

    ``order`` is the query DDG's canonical order; canonical position
    ``p`` of the stored payload corresponds to query op ``order[p]``.
    Raises :class:`EntryError` on any structural mismatch — upstream
    treats that as a verification failure (miss + eviction), never as
    data.
    """
    try:
        payload = entry["result"]
        sched = payload["schedule"]
        starts_canon = [int(v) for v in sched["starts"]]
        if len(starts_canon) != ddg.num_ops or len(order) != ddg.num_ops:
            raise EntryError(
                f"entry has {len(starts_canon)} starts for a "
                f"{ddg.num_ops}-op loop"
            )
        starts = [0] * ddg.num_ops
        for p, value in enumerate(starts_canon):
            starts[order[p]] = value
        colors: Dict[int, int] = {}
        for key, value in (sched.get("colors") or {}).items():
            colors[order[int(key)]] = int(value)
        schedule = Schedule(
            ddg=ddg,
            machine=machine,
            t_period=int(sched["t_period"]),
            starts=starts,
            colors=colors,
            fu_counts_used=sched.get("fu_counts_used"),
        )
        return SchedulingResult.from_json_dict(payload, schedule)
    except EntryError:
        raise
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise EntryError(
            f"malformed store entry: {type(exc).__name__}: {exc}"
        ) from exc
