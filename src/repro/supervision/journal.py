"""The one JSONL journal format: batch checkpoints and serve jobs.

A multi-hour ``repro batch`` must not lose everything to a crash or
Ctrl-C at loop 900, and ``repro serve`` must never lose a job it
accepted.  Both append JSON lines to a journal through
:class:`Journal` (atomic single-write appends via
:class:`repro.supervision.atomicio.AppendOnlyLines`) and read it back
with :func:`read_journal`.

File layout::

    {"config_digest": "...", "journal_version": 1, ...meta}
    {...record}
    {...record}

The header pins the run configuration: resuming under different
settings would silently mix incomparable results, so it is an error.
A truncated final line (the crash landed mid-append despite O_APPEND)
is skipped — an unreadable record is indistinguishable from an
unwritten one.

Batch records are ``{"seq", "source", "name", "entry"}``, one per
finished loop; ``repro batch --resume`` carries over loops with a
recorded, non-failed outcome (:func:`completed_entries`) and re-runs the
rest.  Serve records are ``accepted`` events (written before the submit
response leaves the daemon) and ``done`` events; see
:mod:`repro.serve.daemon`.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.machine import Machine
from repro.supervision.atomicio import AppendOnlyLines

JOURNAL_VERSION = 1


class JournalError(ValueError):
    """Unusable journal: bad header, version or config mismatch."""


def machine_digest(machine: Machine) -> str:
    """Content digest of a machine description.

    Built from every field that affects scheduling — FU types (count,
    cost, reservation rows) and op classes (FU binding, latency, table
    override) — and *only* those: the display ``name`` is deliberately
    excluded, so two machines differing only in what they are called
    share batch journals.
    """
    parts = []
    for name in sorted(machine.fu_types):
        fu = machine.fu_types[name]
        parts.append(f"fu {name} {fu.count} {fu.cost} {fu.table!r}")
    for name in sorted(machine.op_classes):
        cls = machine.op_classes[name]
        parts.append(f"class {name} {cls.fu_type} {cls.latency} {cls.table!r}")
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_digest(machine_digest: str, **settings) -> str:
    """Digest of everything that must match between run and resume."""
    blob = json.dumps(
        {"machine": machine_digest, **settings}, sort_keys=True
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_digest(path, header: Optional[dict], digest: str) -> None:
    """Refuse a journal whose header pins different settings."""
    if header is not None and header.get("config_digest") != digest:
        raise JournalError(
            f"journal {path} was written with different settings "
            "(machine/backend/budget mismatch); refusing to mix "
            "results — use a fresh journal"
        )


def _record(line: str) -> Optional[dict]:
    try:
        doc = json.loads(line)
    except ValueError:
        return None  # torn mid-append (or blank): treat as absent
    return doc if isinstance(doc, dict) else None


def _header(line: str, path) -> Optional[dict]:
    """The header a journal's first line holds, if it holds one."""
    doc = _record(line)
    if doc is None or "journal_version" not in doc:
        return None
    if doc["journal_version"] != JOURNAL_VERSION:
        raise JournalError(
            f"journal {path} has version {doc['journal_version']!r}, "
            f"expected {JOURNAL_VERSION}"
        )
    return doc


class Journal:
    """Append-side handle.  Opening checks the header once: a new file
    gets one, an existing one must match ``digest``."""

    def __init__(self, path, digest: str, meta: Optional[dict] = None):
        self.path = Path(path)
        try:
            with open(self.path, encoding="utf-8") as handle:
                header = _header(handle.readline(), self.path)
        except FileNotFoundError:
            header = None
        check_digest(self.path, header, digest)
        self._writer = AppendOnlyLines(self.path)
        if header is None:
            self.append({
                "journal_version": JOURNAL_VERSION,
                "config_digest": digest,
                **(meta or {}),
            })

    def append(self, record: dict) -> None:
        """Append one record (atomic single-write line)."""
        self._writer.append(json.dumps(record, sort_keys=True))

    def close(self) -> None:
        self._writer.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_journal(path) -> Tuple[Optional[dict], List[dict]]:
    """Parse a journal into ``(header, records)`` in file order.

    A missing file reads as empty; corrupt or truncated lines are
    skipped.
    """
    header: Optional[dict] = None
    records: List[dict] = []
    try:
        handle = open(path, encoding="utf-8")
    except FileNotFoundError:
        return None, records
    with handle:
        for index, line in enumerate(handle):
            if index == 0:
                header = _header(line, path)
                if header is not None:
                    continue
            record = _record(line)
            if record is not None:
                records.append(record)
    return header, records


def entry_key(source: str, name: str) -> str:
    """Batch journal key for one loop: its file path, which is unique.

    The name (the DDG's own, which need not match the file's) only
    tells apart in-memory loops, which all report ``<memory>``.
    """
    if source != "<memory>":
        return source
    return f"{source}::{name}"


def completed_entries(path) -> Tuple[Optional[dict], Dict[str, dict]]:
    """A batch journal's ``(header, {entry_key: record})`` of loops to
    carry over on resume.

    Later lines for the same loop win (a resumed run re-records its
    re-runs).  A loop whose last entry recorded an ``error`` (including
    supervision failures: crash/hang/oom/interrupted) is dropped so the
    resumed run retries it; a loop that legitimately exhausted its
    solver budget (``achieved_t`` null, no error) counts as completed.
    """
    header, records = read_journal(path)
    latest: Dict[str, dict] = {}
    for record in records:
        if isinstance(record.get("entry"), dict):
            key = entry_key(
                str(record.get("source", "")), str(record.get("name", ""))
            )
            latest[key] = record
    done = {
        key: record for key, record in latest.items()
        if record["entry"].get("error") is None
    }
    return header, done
