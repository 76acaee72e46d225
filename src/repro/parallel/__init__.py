"""Multiprocess scheduling: period racing and corpus batch runs.

The §6 driver's candidate-period solves are mutually independent ILPs,
which makes them (a) raceable — :func:`race_periods` proves
infeasibility of several small periods concurrently instead of one at a
time — and (b) batchable — :func:`run_batch` spreads a whole corpus of
loops across worker processes with deterministic result ordering and a
JSON report.  Both dispatch through :mod:`repro.supervision.cells`, the
one cell race every driver (and the ``repro serve`` dispatcher) runs.

Both entry points preserve the sequential driver's semantics exactly
(same achieved ``T``, same ``is_rate_optimal_proven`` proof obligation);
see ``docs/parallel.md`` for the argument.
"""

from repro.parallel.batch import (
    BatchEntry,
    BatchReport,
    collect_sources,
    load_report,
    run_batch,
)
from repro.parallel.race import (
    CANCELLED,
    default_jobs,
    race_periods,
)

__all__ = [
    "BatchEntry",
    "BatchReport",
    "CANCELLED",
    "collect_sources",
    "default_jobs",
    "load_report",
    "race_periods",
    "run_batch",
]
