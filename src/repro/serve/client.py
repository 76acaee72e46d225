"""A tiny blocking HTTP client for the serve daemon (stdlib only).

Used by the ``repro loadgen`` crash drill, the serve tests, perfbench's
``serve`` workload and anything else that wants to talk to the daemon
without hand-rolling requests.  One connection per call (the daemon
answers ``Connection: close``), which also keeps the client trivially
thread-safe for concurrent callers.
"""

from __future__ import annotations

import http.client
import json
import time
from typing import Optional, Tuple


class ServeError(RuntimeError):
    """A non-2xx daemon response; carries status and body."""

    def __init__(self, status: int, body: dict) -> None:
        super().__init__(f"HTTP {status}: {body.get('error', body)}")
        self.status = status
        self.body = body


class ServeClient:
    def __init__(self, host: str, port: int, timeout: float = 70.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            body = None
            headers = {}
            if payload is not None:
                body = json.dumps(payload)
                headers["Content-Type"] = "application/json"
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
            try:
                doc = json.loads(raw) if raw else {}
            except ValueError:
                doc = {"error": raw.decode("utf-8", "replace")}
            return response.status, doc
        finally:
            conn.close()

    def _checked(self, method: str, path: str,
                 payload: Optional[dict] = None) -> dict:
        status, doc = self._request(method, path, payload)
        if status != 200:
            raise ServeError(status, doc)
        return doc

    # -- API ------------------------------------------------------------

    def submit(self, ddg: str, machine: str, **options) -> dict:
        """Submit a solve; returns the raw response (``job`` on 200).

        Raises :class:`ServeError` on shed/rate-limit/breaker refusals —
        callers driving load catch it and count the outcome.
        """
        payload = {"ddg": ddg, "machine": machine}
        payload.update(options)
        return self._checked("POST", "/submit", payload)

    def submit_raw(self, ddg: str, machine: str,
                   **options) -> Tuple[int, dict]:
        """Like :meth:`submit` but never raises: ``(status, body)``."""
        payload = {"ddg": ddg, "machine": machine}
        payload.update(options)
        return self._request("POST", "/submit", payload)

    def job(self, job_id: str, wait: float = 0.0) -> dict:
        path = f"/jobs/{job_id}"
        if wait:
            path += f"?wait={wait}"
        return self._checked("GET", path)

    def wait_for(self, job_id: str, timeout: float = 120.0) -> dict:
        """Long-poll until the job is terminal (or raise on timeout)."""
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"job {job_id} still unfinished after {timeout}s"
                )
            doc = self.job(job_id, wait=min(10.0, remaining))
            if doc.get("state") in ("done", "failed", "shed", "cancelled"):
                return doc

    def stats(self) -> dict:
        return self._checked("GET", "/stats")

    def healthz(self) -> dict:
        return self._checked("GET", "/healthz")

    def drain(self) -> dict:
        return self._checked("POST", "/drain")

    def alive(self) -> bool:
        try:
            return bool(self.healthz().get("ok"))
        except (ServeError, OSError):
            return False
