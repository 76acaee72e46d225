"""Tunables for the ``repro serve`` daemon, in one picklable dataclass."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class ServeConfig:
    """Everything the daemon's policies read, with service-shaped defaults.

    The solve-side knobs (``time_limit``, ``max_extra``, supervision
    deadline/retries) mirror the CLI's; the service-side knobs bound how
    much work the daemon will *accept*, which is what keeps a
    heavy-tailed solver workload from melting the box: admission is
    refused long before the pool is.
    """

    host: str = "127.0.0.1"
    #: 0 = pick a free port (the bound port lands in ``port_file``).
    port: int = 0
    #: Worker processes in the supervised solve pool.
    workers: int = 2
    #: Jobs allowed in the admission queue (queued, not yet solving);
    #: beyond this, submissions are shed with 429 + Retry-After.
    queue_depth: int = 64
    #: Per-client token bucket: sustained submissions/second and burst.
    rate: float = 20.0
    burst: int = 20
    #: Per-job wall-clock deadline (supervision kills past it + grace).
    deadline: float = 120.0
    grace: float = 5.0
    max_retries: int = 1
    backoff: float = 0.25
    #: Per-candidate-period solver budget inside a job's sweep.
    time_limit: float = 10.0
    max_extra: int = 10
    #: Consecutive failures that trip a backend's circuit breaker, and
    #: how long it stays open before a half-open probe is allowed.
    breaker_threshold: int = 3
    breaker_cooldown: float = 10.0
    #: Content-addressed store root (shared cache tier); None disables.
    store: Optional[str] = None
    #: Accepted/done journal for drain + crash resume; None disables.
    journal: Optional[str] = None
    #: Seconds the SIGTERM drain waits for in-flight jobs before
    #: journaling the stragglers for the next incarnation.
    drain_grace: float = 30.0
    #: When set, the daemon writes its bound port here once listening —
    #: how tests and the ``repro loadgen`` crash drill discover a port=0
    #: bind.
    port_file: Optional[str] = None

    def digest_settings(self) -> dict:
        """The solve-affecting settings pinned by the journal header."""
        return {
            "time_limit": self.time_limit,
            "max_extra": self.max_extra,
        }
