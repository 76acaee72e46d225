"""Corpus batch runner: many loops across supervised worker processes.

Schedules a whole directory (or any mix of ``.ddg`` paths, DDG text and
in-memory :class:`~repro.ddg.graph.Ddg` objects) with one worker process
per loop-task, and reports the outcome as a JSON document with a stable
schema (see :meth:`BatchReport.to_json_dict`).  Guarantees:

* **deterministic ordering** — entries come back in input order no
  matter which worker finished first;
* **per-loop fault isolation** — a loop whose scheduling raises is
  reported with its error message, and a loop whose *worker* crashes,
  hangs past its deadline, or OOMs is reported with a structured
  :class:`~repro.supervision.records.FailureRecord` (after the policy's
  retries); the rest of the batch is unaffected either way;
* **per-file diagnostics** — an unreadable or unparsable corpus file
  becomes an error entry naming the loop, the path and the parse error,
  not a traceback that kills the run;
* **checkpoint/resume** — with a journal path every finished loop is
  appended to a JSONL file (atomic single-write appends); a killed run
  resumed from its journal re-runs only failed/missing loops (see
  :mod:`repro.supervision.journal`);
* **graceful interrupts** — under
  :func:`repro.supervision.graceful_interrupts`, SIGINT/SIGTERM settles
  the batch: finished loops keep their results, unfinished ones are
  recorded as ``interrupted``, the journal is flushed, and the report is
  still written.

The JSON report (one object per loop: name, ``T_lb``/``T_dep``/``T_res``,
achieved ``T``, delta, proof flag, seconds, and the full per-period
attempt log) is what ``repro batch`` emits and what the Table 4/5
harnesses can consume.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.core.scheduler import (
    AttemptConfig,
    SchedulingResult,
    run_sweep,
)
from repro.ddg.builders import parse_ddg, serialize_ddg
from repro.ddg.graph import Ddg
from repro.machine import Machine
from repro.parallel.race import default_jobs
from repro.supervision import faults
from repro.supervision.atomicio import atomic_write_text
from repro.supervision.cells import CLEAN, FAILED, WIN, Cell, CellRace
from repro.supervision.journal import (
    Journal,
    check_digest,
    completed_entries,
    config_digest,
    entry_key,
    machine_digest,
)
from repro.supervision.records import (
    INTERRUPTED,
    FailureRecord,
    SupervisionPolicy,
)

#: Report schema version (bump on incompatible changes; only the current
#: version loads).
#: v10: per-attempt ``model`` drops ``reused_rows``/``rebuilt_rows``/
#: ``analysis_seconds`` and the ``cut_skip`` marker.
REPORT_VERSION = 10

from repro.corpusgen.manifest import (
    MANIFEST_NAME,
    ManifestEntrySource,
    manifest_sources,
    sha256_text,
)

LoopSource = Union[str, "os.PathLike[str]", Ddg, ManifestEntrySource]


@dataclass
class BatchEntry:
    """Outcome for one loop of the batch."""

    name: str
    source: str  # file path, or "<memory>" for in-process Ddg inputs
    num_ops: int
    result: Optional[SchedulingResult] = None
    error: Optional[str] = None
    #: Structured record when the loop was lost to a supervision event
    #: (worker crash, deadline kill, OOM, interrupt) rather than an
    #: in-worker exception.
    failure: Optional[FailureRecord] = None
    #: Pre-serialized entry carried over from a resume journal; when
    #: set it *is* the JSON form and the other fields are advisory.
    raw: Optional[dict] = None

    @property
    def scheduled(self) -> bool:
        if self.raw is not None:
            return self.raw.get("achieved_t") is not None
        return self.result is not None and self.result.schedule is not None

    @property
    def skipped_ilp(self) -> bool:
        if self.raw is not None:
            warmstart = self.raw.get("warmstart") or {}
            return bool(warmstart.get("skipped_all_ilp"))
        return (
            self.result is not None
            and self.result.warmstart is not None
            and self.result.warmstart.skipped_all_ilp
        )

    def to_json_dict(self) -> dict:
        if self.raw is not None:
            return self.raw
        entry = {
            "name": self.name,
            "source": self.source,
            "num_ops": self.num_ops,
        }
        if self.error is not None:
            entry["error"] = self.error
            if self.failure is not None:
                entry["failure"] = self.failure.to_json_dict()
            return entry
        entry.update(self.result.to_json_dict())
        return entry

    @classmethod
    def from_json_dict(cls, data: dict) -> "BatchEntry":
        """Rehydrate a journal entry (report-level fields only)."""
        failure = None
        if data.get("failure") is not None:
            failure = FailureRecord.from_json_dict(data["failure"])
        return cls(
            name=data.get("name", "?"),
            source=data.get("source", "?"),
            num_ops=int(data.get("num_ops", 0)),
            error=data.get("error"),
            failure=failure,
            raw=data,
        )


@dataclass
class BatchReport:
    """A whole batch run, in input order."""

    machine_name: str
    backend: str
    jobs: int
    entries: List[BatchEntry] = field(default_factory=list)
    total_seconds: float = 0.0

    @property
    def scheduled(self) -> int:
        return sum(1 for e in self.entries if e.scheduled)

    @property
    def failed(self) -> int:
        return sum(
            1
            for e in self.entries
            if (e.raw.get("error") if e.raw is not None else e.error)
            is not None
        )

    @property
    def skipped_ilp(self) -> int:
        """Loops the heuristic settled with zero ILP solves."""
        return sum(1 for e in self.entries if e.skipped_ilp)

    def _entry_store(self, entry: BatchEntry) -> Optional[dict]:
        if entry.raw is not None:
            return entry.raw.get("store")
        if entry.result is not None and entry.result.store is not None:
            return entry.result.store.to_json_dict()
        return None

    @property
    def store_hits(self) -> int:
        return sum(
            1 for e in self.entries
            if (self._entry_store(e) or {}).get("hit")
        )

    def store_summary(self) -> Optional[dict]:
        """Aggregate store counters, or None if no entry used a store."""
        docs = [d for d in map(self._entry_store, self.entries) if d]
        if not docs:
            return None
        return {
            "consulted": len(docs),
            "hits": sum(1 for d in docs if d.get("hit")),
            "memory_hits": sum(
                1 for d in docs if d.get("tier") == "memory"
            ),
            "disk_hits": sum(1 for d in docs if d.get("tier") == "disk"),
            "published": sum(1 for d in docs if d.get("published")),
            "evicted": sum(1 for d in docs if d.get("evicted")),
            "seconds": round(
                sum(d.get("seconds", 0.0) for d in docs), 6
            ),
        }

    def to_json_dict(self) -> dict:
        doc = {
            "report_version": REPORT_VERSION,
            "machine": self.machine_name,
            "backend": self.backend,
            "jobs": self.jobs,
            "loops": len(self.entries),
            "scheduled": self.scheduled,
            "failed": self.failed,
            "skipped_ilp": self.skipped_ilp,
            "total_seconds": round(self.total_seconds, 6),
            "entries": [entry.to_json_dict() for entry in self.entries],
        }
        store = self.store_summary()
        if store is not None:
            doc["store"] = store
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "BatchReport":
        """Rehydrate a saved report document of the current version.

        Entries come back in ``raw`` form — the JSON is authoritative.
        """
        version = doc.get("report_version")
        if version != REPORT_VERSION:
            raise ValueError(
                f"report version {version!r} is not supported "
                f"(supported: {REPORT_VERSION})"
            )
        return cls(
            machine_name=doc.get("machine", "?"),
            backend=doc.get("backend", "?"),
            jobs=int(doc.get("jobs", 1)),
            entries=[
                BatchEntry.from_json_dict(e)
                for e in doc.get("entries", [])
            ],
            total_seconds=float(doc.get("total_seconds", 0.0)),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_json_dict(), indent=indent)

    def save_json(self, path) -> None:
        """Write the JSON report atomically (never a truncated file)."""
        atomic_write_text(path, self.to_json() + "\n")

    def render(self) -> str:
        """Human-readable per-loop summary table."""
        lines = [
            f"{'loop':<16} {'T_lb':>4} {'T':>4} {'dT':>3} "
            f"{'proven':>6} {'sec':>8}  attempts"
        ]
        for entry in (e.to_json_dict() for e in self.entries):
            name = entry.get("name", "?")
            if entry.get("error") is not None:
                lines.append(f"{name:<16} ERROR: {entry['error']}")
                continue
            t = entry["achieved_t"] if entry["achieved_t"] is not None else "-"
            delta = (
                entry["delta_from_lb"]
                if entry["delta_from_lb"] is not None
                else "-"
            )
            proven = "yes" if entry["is_rate_optimal_proven"] else "no"
            log = ",".join(
                f"{a['t']}:{a['status']}" for a in entry["attempts"]
            )
            lines.append(
                f"{name:<16} {entry['t_lb']:>4} {t:>4} "
                f"{delta:>3} {proven:>6} {entry['seconds']:>8.2f}  {log}"
            )
        lines.append(
            f"{len(self.entries)} loop(s): {self.scheduled} scheduled "
            f"({self.skipped_ilp} by heuristic alone), "
            f"{self.failed} failed, {self.total_seconds:.2f}s wall-clock"
        )
        store = self.store_summary()
        if store is not None:
            lines.append(
                f"store: {store['hits']}/{store['consulted']} hit(s) "
                f"({store['memory_hits']} memory, {store['disk_hits']} "
                f"disk), {store['published']} published, "
                f"{store['evicted']} evicted"
            )
        return "\n".join(lines)


def load_report(path) -> BatchReport:
    """Load a saved batch report (current schema version only)."""
    with open(path, encoding="utf-8") as handle:
        return BatchReport.from_json_dict(json.load(handle))


def collect_sources(paths: Iterable[LoopSource]) -> List[LoopSource]:
    """Expand directories into deterministic loop-source lists.

    Files and in-memory DDGs pass through unchanged.  A directory that
    carries a ``repro gen`` ``manifest.json`` expands to the manifest's
    loop list (in manifest order, with expected checksums), so a
    missing or corrupt file becomes a per-loop error entry naming the
    loop and the path instead of silently vanishing from a glob; any
    other directory expands to its sorted ``.ddg`` files.
    """
    sources: List[LoopSource] = []
    for item in paths:
        if isinstance(item, (Ddg, ManifestEntrySource)):
            sources.append(item)
            continue
        path = Path(item)
        if path.is_dir():
            if (path / MANIFEST_NAME).is_file():
                sources.extend(manifest_sources(path))
            else:
                sources.extend(sorted(path.glob("*.ddg")))
        else:
            sources.append(path)
    return sources


def _schedule_source(
    text: str, source: str, machine: Machine, config: AttemptConfig,
    max_extra: int, store_path: Optional[str] = None,
) -> BatchEntry:
    """Worker body: schedule one serialized loop (picklable in and out).

    ``store_path`` opens the persistent store in this process
    (concurrent-writer safe).
    """
    loop_id = Path(source).stem if source != "<memory>" else source
    faults.fire("batch", loop=loop_id, source=source,
                backend=config.backend)
    try:
        ddg = parse_ddg(text)
        ddg.validate_against(machine)
        result = run_sweep(ddg, machine, config, max_extra,
                           store=store_path)
        return BatchEntry(
            name=ddg.name,
            source=source,
            num_ops=ddg.num_ops,
            result=result,
        )
    except MemoryError:
        raise  # let the supervisor classify this as an OOM
    except Exception as exc:  # per-loop fault isolation
        return BatchEntry(
            name=loop_id,
            source=source,
            num_ops=0,
            error=f"loop {loop_id!r} ({source}): "
                  f"{type(exc).__name__}: {exc}",
        )


def _load_tasks(
    sources: Sequence[LoopSource],
) -> List[tuple]:
    """Read every source up front: ``(name, text | None, label, error)``.

    A file that cannot be read or decoded becomes an error tuple naming
    the loop id, the path and the failure — it turns into a failed
    report entry instead of aborting the whole batch.
    """
    tasks: List[tuple] = []
    for item in sources:
        if isinstance(item, Ddg):
            tasks.append((item.name, serialize_ddg(item), "<memory>", None))
            continue
        expected_sha = None
        if isinstance(item, ManifestEntrySource):
            path = item.path
            loop_id = item.name
            expected_sha = item.sha256
        else:
            path = Path(item)
            loop_id = path.stem
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            tasks.append((
                loop_id, None, str(path),
                f"loop {loop_id!r} ({path}): cannot read corpus file: "
                f"{type(exc).__name__}: {exc}",
            ))
            continue
        if expected_sha is not None and sha256_text(text) != expected_sha:
            tasks.append((
                loop_id, None, str(path),
                f"loop {loop_id!r} ({path}): corpus file does not match "
                "its manifest checksum — regenerate the corpus with "
                "'repro gen --from-manifest' or audit it with "
                "'repro gen --check'",
            ))
            continue
        tasks.append((loop_id, text, str(path), None))
    return tasks


def _batch_digest(machine: Machine, config: AttemptConfig,
                  max_extra: int) -> str:
    """Journal config digest: everything that must match on resume."""
    return config_digest(
        machine_digest(machine),
        backend=config.backend,
        objective=config.objective,
        # Batches always resolve the mapping automatically; the key
        # stays so that journals written when it was a setting resume.
        mapping=None,
        time_limit=config.time_limit,
        # Verification is unconditional; the key stays so that journals
        # written when it was a setting keep their digest and resume.
        verify=True,
        repair_modulo=config.repair_modulo,
        # Likewise presolve, which is always on.
        presolve=True,
        warmstart=config.warmstart,
        max_extra=max_extra,
    )


def run_batch(
    paths: Sequence[LoopSource],
    machine: Machine,
    backend: str = "auto",
    time_limit_per_t: Optional[float] = 10.0,
    max_extra: int = 10,
    jobs: Optional[int] = None,
    warmstart: bool = True,
    policy: Optional[SupervisionPolicy] = None,
    journal: Optional[Union[str, "os.PathLike[str]"]] = None,
    resume: Optional[Union[str, "os.PathLike[str]"]] = None,
    store: Optional[Union[str, "os.PathLike[str]"]] = None,
) -> BatchReport:
    """Schedule every loop reachable from ``paths`` across ``jobs`` workers.

    Results always come back in input order (directories expand to
    sorted file lists).  ``jobs=1`` runs in-process with no pool, and
    so does a batch with a single loop to schedule.

    ``policy`` tunes the supervision layer around each worker (deadline,
    memory cap, retries); with the default policy loops run unbounded
    but still survive worker crashes.  ``journal`` appends every
    finished loop to a JSONL checkpoint; ``resume`` replays such a
    journal, re-running only loops that failed or never finished (and
    keeps journaling to the same file unless ``journal`` says
    otherwise).  Journals refuse to resume under changed settings.

    ``store`` points at a persistent schedule store directory shared by
    all workers (and by other runs): verified hits skip the whole sweep
    for structurally identical loops, and clean cold results are
    published back.  Safe under concurrent writers — publication is
    atomic per entry with last-writer-wins.

    """
    jobs = jobs if jobs is not None else default_jobs()
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    policy = policy or SupervisionPolicy()
    config = AttemptConfig(
        backend=backend,
        time_limit=time_limit_per_t,
        warmstart=warmstart,
    )
    store_path = str(store) if store is not None else None
    sources = collect_sources(paths)
    tasks = _load_tasks(sources)
    digest = _batch_digest(machine, config, max_extra)

    carried: dict = {}
    if resume is not None:
        if not Path(resume).is_file():
            raise FileNotFoundError(f"no journal to resume at {resume}")
        header, carried = completed_entries(resume)
        if journal is None:
            journal = resume  # opening the writer checks its header
        else:
            check_digest(resume, header, digest)

    writer: Optional[Journal] = None
    if journal is not None:
        writer = Journal(
            journal, digest,
            meta={"machine": machine.name, "backend": backend,
                  "loops": len(tasks)},
        )

    start_clock = time.monotonic()
    entries: List[Optional[BatchEntry]] = [None] * len(tasks)
    try:
        cells: List[Cell] = []
        for index, (name, text, label, load_error) in enumerate(tasks):
            if load_error is not None:
                entries[index] = BatchEntry(
                    name=name, source=label, num_ops=0, error=load_error
                )
                _journal_entry(writer, index, entries[index])
                continue
            record = carried.get(entry_key(label, name))
            if record is not None and label != "<memory>":
                entries[index] = BatchEntry.from_json_dict(record["entry"])
                continue
            cells.append(Cell(index, _entry_verdict, _schedule_source, (
                text, label, machine, config, max_extra, store_path,
            )))
        # One cell to run gains nothing from a pool but its start-up.
        in_process = jobs == 1 or len(cells) <= 1
        race = CellRace(workers=0 if in_process else jobs, policy=policy)
        with race:
            race.add(cells)
            for cell in race.run():
                name, _, label, _ = tasks[cell.key]
                entry = _cell_entry(cell, name, label)
                entries[cell.key] = entry
                _journal_entry(writer, cell.key, entry)
    finally:
        if writer is not None:
            writer.close()
    return BatchReport(
        machine_name=machine.name,
        backend=backend,
        jobs=jobs,
        entries=[e for e in entries if e is not None],
        total_seconds=time.monotonic() - start_clock,
    )


def _journal_entry(writer: Optional[Journal], index: int,
                   entry: BatchEntry) -> None:
    if writer is not None:
        writer.append({
            "seq": index, "source": entry.source, "name": entry.name,
            "entry": entry.to_json_dict(),
        })


def _entry_verdict(entry: BatchEntry) -> int:
    if entry.scheduled:
        return WIN
    return FAILED if entry.error is not None else CLEAN


def _cell_entry(cell: Cell, name: str, label: str) -> BatchEntry:
    """The report entry for one settled loop cell.

    A cell lost to a supervision failure (or never run before an
    interrupt) becomes an error entry carrying its
    :class:`FailureRecord`.
    """
    if cell.result is not None:
        return cell.result
    failure = cell.failure or FailureRecord(
        kind=INTERRUPTED, detail="interrupted (SIGINT/SIGTERM)"
    )
    return BatchEntry(
        name=name, source=label, num_ops=0,
        error=f"loop {name!r} ({label}): {failure.summary()}",
        failure=failure,
    )
