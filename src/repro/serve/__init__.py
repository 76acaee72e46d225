"""Scheduling-as-a-service: the ``repro serve`` daemon and its parts.

The service fronts the supervised solver pool and the content-addressed
store with the robustness layers a heavy-tailed solve workload needs:
admission control with load shedding, per-client rate limits and
weighted fair queueing (:mod:`repro.serve.admission`), request
coalescing on store keys, a per-backend circuit breaker
(:mod:`repro.serve.breaker`), journal-backed graceful drain and restart
(the batch runner's journal format, :mod:`repro.supervision.journal`),
and live ``/healthz`` + ``/stats``
introspection (:mod:`repro.serve.stats`).  See ``docs/service.md``.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.client import ServeClient
from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon

__all__ = [
    "CircuitBreaker",
    "ServeClient",
    "ServeConfig",
    "ServeDaemon",
]
