"""Per-backend circuit breaker for the service's named solvers.

A backend that starts crashing or hanging (a broken native library, a
pathological input class, an OOM-prone formulation) must not keep
eating worker slots and per-job time budgets while other backends
could serve their requests.  The breaker watches per-backend outcomes
and walks the classic three states:

* **closed** — healthy; every cell is allowed.  ``threshold``
  *consecutive* failures trip it open (any success resets the count —
  solver workloads fail in bursts, not trickles).
* **open** — requests naming the backend are refused
  (:meth:`CircuitBreaker.allows` is False) until ``cooldown`` seconds
  pass, bounding how long a broken backend can keep hurting.
* **half-open** — after the cooldown, probes are allowed through; the
  first recorded success closes the breaker, the first failure re-opens
  it for another full cooldown.

The daemon consults the breaker at admission (503 + ``Retry-After``
for a request naming an open backend) and feeds it every finished
job's outcome, so the race layer never imports this module.  All
methods are thread-safe — the daemon's dispatcher thread and the HTTP
admission path consult one shared instance — and the clock is
injectable so tests step through cooldowns without sleeping.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Optional

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class _BackendState:
    __slots__ = ("state", "failures", "opened_at", "last_kind")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0
        self.opened_at = 0.0
        self.last_kind = ""


class CircuitBreaker:
    """Consecutive-failure breaker over a set of backend names."""

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 10.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self._clock = clock
        self._lock = threading.Lock()
        self._backends: Dict[str, _BackendState] = {}

    def _state(self, backend: str) -> _BackendState:
        state = self._backends.get(backend)
        if state is None:
            state = self._backends[backend] = _BackendState()
        return state

    # -- the dispatcher-facing protocol ---------------------------------

    def allows(self, backend: str) -> bool:
        """Whether ``backend`` may be dispatched right now.

        An open breaker whose cooldown has elapsed transitions to
        half-open here (the check *is* the probe admission), so callers
        never need a separate timer.
        """
        with self._lock:
            state = self._state(backend)
            if state.state == OPEN:
                if self._clock() - state.opened_at >= self.cooldown:
                    state.state = HALF_OPEN
                else:
                    return False
            return True

    def record_success(self, backend: str) -> None:
        """A cell on ``backend`` delivered a verdict: heal."""
        with self._lock:
            state = self._state(backend)
            state.failures = 0
            if state.state != CLOSED:
                state.state = CLOSED

    def record_failure(self, backend: str, kind: str = "") -> None:
        """A cell on ``backend`` crashed/hung/erred: count toward a trip.

        In half-open the very first failure re-opens (the probe failed);
        in closed, ``threshold`` consecutive failures trip it.
        """
        with self._lock:
            state = self._state(backend)
            state.last_kind = kind
            if state.state == HALF_OPEN:
                state.state = OPEN
                state.opened_at = self._clock()
                state.failures = self.threshold
                return
            state.failures += 1
            if state.state == CLOSED and state.failures >= self.threshold:
                state.state = OPEN
                state.opened_at = self._clock()

    # -- daemon-side conveniences ---------------------------------------

    def state(self, backend: str) -> str:
        with self._lock:
            state = self._state(backend)
            if (state.state == OPEN
                    and self._clock() - state.opened_at >= self.cooldown):
                return HALF_OPEN
            return state.state

    def retry_after(self, backend: str) -> Optional[float]:
        """Seconds until an open ``backend`` half-opens (None if usable)."""
        with self._lock:
            state = self._state(backend)
            if state.state != OPEN:
                return None
            remaining = self.cooldown - (self._clock() - state.opened_at)
            return max(0.0, remaining)

    def snapshot(self) -> Dict[str, dict]:
        """Per-backend state for ``/stats`` (open cooldowns included)."""
        with self._lock:
            now = self._clock()
            out = {}
            for name, state in sorted(self._backends.items()):
                effective = state.state
                if (effective == OPEN
                        and now - state.opened_at >= self.cooldown):
                    effective = HALF_OPEN
                entry = {
                    "state": effective,
                    "consecutive_failures": state.failures,
                }
                if state.last_kind:
                    entry["last_failure_kind"] = state.last_kind
                if effective == OPEN:
                    entry["retry_after"] = round(
                        self.cooldown - (now - state.opened_at), 3
                    )
                out[name] = entry
            return out
