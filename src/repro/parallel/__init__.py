"""Multiprocess scheduling: corpus batch runs.

The §6 driver's candidate-period solves are mutually independent ILPs,
which makes them (a) raceable — ``schedule_loop(jobs=N)`` proves
infeasibility of several small periods concurrently instead of one at a
time — and (b) batchable — :func:`run_batch` spreads a whole corpus of
loops across worker processes with deterministic result ordering and a
JSON report.  Both dispatch through :mod:`repro.supervision.cells`, the
one cell race every driver (and the ``repro serve`` dispatcher) runs.

Both preserve the sequential driver's semantics exactly (same achieved
``T``, same ``is_rate_optimal_proven`` proof obligation); see
``docs/parallel.md`` for the argument.
"""

from repro.parallel.batch import (
    BatchEntry,
    BatchReport,
    collect_sources,
    load_report,
    run_batch,
)
from repro.parallel.race import default_jobs

__all__ = [
    "BatchEntry",
    "BatchReport",
    "collect_sources",
    "default_jobs",
    "load_report",
    "run_batch",
]
