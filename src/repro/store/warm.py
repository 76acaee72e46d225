"""Warm the persistent store from a batch journal or report.

``repro cache warm journal.jsonl --store DIR`` turns a finished (or
half-finished) batch run into store content without re-solving anything:
each recorded entry that carries a ``schedule`` payload is re-parsed
from its source file, rebuilt into a :class:`SchedulingResult` (entries
carry the result's one JSON form, per-attempt backends included), and
pushed through the normal :func:`repro.store.tiering.publish` path —
which re-verifies the schedule against the machine before anything is
written, so a stale journal can only produce skips, never bad entries.

Only v5+ documents carry schedule payloads; older journals/reports are
read fine but every entry skips with ``no_schedule``.  In-memory loops
(source ``"<memory>"``) skip too — there is no file to re-parse the DDG
from.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional

from repro.core.errors import CoreError
from repro.core.schedule import Schedule
from repro.core.scheduler import AttemptConfig, SchedulingResult
from repro.ddg.builders import parse_ddg
from repro.ddg.errors import DdgError
from repro.machine import Machine
from repro.store.disk import ScheduleStore
from repro.store.tiering import publish


def _load_entry_docs(path) -> list:
    """Entry dicts from either a JSONL journal or a JSON report."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("{") and "\n{" not in stripped.rstrip():
        # A single JSON object: a batch report.
        doc = json.loads(text)
        return list(doc.get("entries", []))
    from repro.supervision.journal import completed_entries

    _, done = completed_entries(path)
    return [record["entry"] for record in done.values()]


def _resolve_source(source: str, base: Path) -> Optional[Path]:
    path = Path(source)
    if path.is_file():
        return path
    relative = base / source
    if relative.is_file():
        return relative
    return None


def warm_store(
    path,
    store: ScheduleStore,
    machine: Machine,
    config: AttemptConfig,
    max_extra: int,
) -> dict:
    """Publish every usable entry of a journal/report into ``store``.

    ``machine``, ``config`` and ``max_extra`` must describe the run that
    produced the document — they form the content address and the
    verification context.  Returns counters:
    ``{"examined", "published", "skipped": {reason: count}}``.
    """
    base = Path(path).parent
    skipped: dict = {}

    def skip(reason: str) -> None:
        skipped[reason] = skipped.get(reason, 0) + 1

    docs = _load_entry_docs(path)
    published = 0
    for doc in docs:
        if doc.get("error") is not None:
            skip("error_entry")
            continue
        if doc.get("schedule") is None:
            skip("no_schedule")
            continue
        if doc.get("degraded"):
            skip("degraded")
            continue
        if any(a.get("failure") for a in doc.get("attempts", [])):
            skip("attempt_failure")
            continue
        source = doc.get("source", "<memory>")
        if source == "<memory>":
            skip("in_memory_source")
            continue
        resolved = _resolve_source(source, base)
        if resolved is None:
            skip("source_missing")
            continue
        try:
            ddg = parse_ddg(resolved.read_text(encoding="utf-8"))
            ddg.validate_against(machine)
            result = SchedulingResult.from_json_dict(
                doc, Schedule.from_dict(doc["schedule"], ddg, machine)
            )
        except (OSError, DdgError, CoreError, KeyError, TypeError,
                ValueError) as exc:
            skip(f"rebuild_failed:{type(exc).__name__}")
            continue
        if publish(store, ddg, machine, config, max_extra, result):
            published += 1
        else:
            skip("verify_failed")
    return {
        "examined": len(docs),
        "published": published,
        "skipped": skipped,
    }
