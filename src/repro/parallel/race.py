"""The default worker count of the multiprocess drivers.

Racing candidate periods is ``schedule_loop(jobs=N)``
(:func:`repro.core.scheduler.run_sweep` picks the dispatch); this module
keeps only the worker count :func:`repro.parallel.run_batch` falls back
to.
"""

from __future__ import annotations

import os


def default_jobs() -> int:
    """Worker count when the caller does not choose one."""
    return max(1, os.cpu_count() or 1)
