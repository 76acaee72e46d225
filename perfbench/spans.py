"""Layer spans recorded from outside the program.

The benchmark times each layer by wrapping its public functions: every
module attribute that holds one of them is replaced by a wrapper that
records a span (layer, function, process, thread, start, end), so the
wrapper is in place wherever a caller looks the name up.  Install before
any worker pool forks; forked workers inherit the wrappers.

Each process buffers its spans and appends them to its own file
``spans-<pid>.jsonl`` in the trace directory whenever a thread's
outermost span closes (workers leave through ``os._exit``, so there is
no exit hook to rely on).  :func:`load` merges the files and
:func:`attribute` splits the wall clock among layers.

Spans carry a priority class for wall-time attribution:

* ``WORK`` - the layer is computing;
* ``WAIT`` - the layer is blocked on another process (executor poll,
  an HTTP round trip to the daemon);
* ``IDLE`` - the load generator sleeping until the next request is due.

At every instant of the measured window the wall clock is split evenly
among the innermost open spans of the highest class open anywhere, in
any process.  A layer's ``self_s`` is its share, so the self times of
all layers plus ``unattributed_s`` (no span open anywhere) add up to the
window exactly, even when worker processes run in parallel.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

WORK, WAIT, IDLE = 0, 1, 2

#: (layer, module, qualified name) of every wrapped public function.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("ddg.canonical", "repro.ddg.canonical", "canonical_form"),
    ("store.tiering", "repro.store.tiering", "lookup"),
    ("store.tiering", "repro.store.tiering", "publish"),
    ("core.bounds", "repro.core.bounds", "lower_bounds"),
    ("core.warmstart", "repro.core.warmstart", "compute_warmstart"),
    ("core.presolve", "repro.core.presolve", "presolve"),
    ("core.formulation", "repro.core.formulation", "Formulation.build"),
    ("ilp.solve", "repro.ilp.solve", "solve"),
    ("sat.encode", "repro.sat.encode", "encode_formulation"),
    ("sat.encode", "repro.sat.encode", "decode_model"),
    ("sat.solver", "repro.sat.solver", "CdclSolver.solve"),
    ("core.verify", "repro.core.verify", "verify_schedule"),
    ("core.scheduler", "repro.core.scheduler", "run_sweep"),
    ("serve", "repro.serve.daemon", "ServeDaemon.submit"),
)

#: Layer of the ``SupervisedExecutor`` methods, wrapped with their own
#: bookkeeping (see ``_wrap_executor``).
EXECUTOR = "supervision.executor"


class Recorder:
    """Per-process span buffer flushed to ``spans-<pid>.jsonl``."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffer: List[str] = []
        self._pid = os.getpid()
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child starts with no open spans and an unheld lock, even
        # when another thread was mid-record at fork time.
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffer = []
        self._pid = os.getpid()

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def record(self, doc: dict) -> None:
        with self._lock:
            self._buffer.append(json.dumps(doc, separators=(",", ":")))
            if self._depth() == 0:
                self._flush_locked()

    def event(self, kind: str, **fields) -> None:
        doc = {"ev": kind, "p": os.getpid(), "at": time.perf_counter()}
        doc.update(fields)
        self.record(doc)

    def _flush_locked(self) -> None:
        if not self._buffer:
            return
        path = os.path.join(self.directory, f"spans-{self._pid}.jsonl")
        data = ("\n".join(self._buffer) + "\n").encode("utf-8")
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)
        self._buffer = []

    def span(self, layer: str, fn: str, call: Callable, args, kwargs,
             prio: int = WORK, tag: Optional[Callable] = None):
        """Run ``call(*args, **kwargs)`` inside a recorded span."""
        local = self._local
        local.depth = self._depth() + 1
        start = time.perf_counter()
        result = None
        try:
            result = call(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            local.depth -= 1
            doc = {
                "l": layer, "f": fn, "p": os.getpid(),
                "t": threading.get_ident(), "s": start, "e": end,
                "c": prio,
            }
            if tag is not None and result is not None:
                doc["x"] = tag(result)
            self.record(doc)


_RECORDER: Optional[Recorder] = None


def traced(layer: str, name: str, prio: int, fn: Callable, *args, **kwargs):
    """``fn(*args, **kwargs)``, inside a span when tracing is installed."""
    if _RECORDER is None:
        return fn(*args, **kwargs)
    return _RECORDER.span(layer, name, fn, args, kwargs, prio=prio)


def _resolve(module: str, qualname: str):
    owner = importlib.import_module(module)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


def _replace_everywhere(original, wrapper) -> None:
    """Point every ``repro`` module attribute holding ``original`` at
    ``wrapper`` (``from x import f`` copies the name into the caller)."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not mod_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _tagger(layer: str, fn: str) -> Optional[Callable]:
    """Outcome tags recorded with a span (counted by ``run.py``)."""
    if fn == "lookup":
        return lambda r: {"hit": r[0] is not None}
    if fn == "presolve":
        return lambda r: {"infeasible": bool(r.infeasible)}
    if layer == "ilp.solve":
        return lambda r: {"timeout": r.status.value == "time_limit"}
    if layer == "sat.solver":
        return lambda r: {"timeout": r.status not in ("sat", "unsat")}
    if fn == "run_sweep":
        def sweep_tags(result):
            statuses = [a.status for a in result.attempts]
            warm = result.warmstart
            return {
                "attempts": len(statuses),
                "no_verdict": statuses.count("time_limit"),
                "settled": bool(warm is not None and warm.skipped_all_ilp),
            }
        return sweep_tags
    if fn == "ServeDaemon.submit":
        return lambda r: {"job": r[1].get("job") if r[0] == 200 else None}
    return None


def _wrap(layer: str, module: str, qualname: str) -> None:
    owner, name = _resolve(module, qualname)
    original = getattr(owner, name)
    tag = _tagger(layer, qualname)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return _RECORDER.span(layer, name, original, args, kwargs, tag=tag)

    setattr(owner, name, wrapper)
    if not isinstance(owner, type):
        _replace_everywhere(original, wrapper)


class TracedTask:
    """Picklable executor task wrapper: times the task in the worker."""

    def __init__(self, fn, key: str) -> None:
        self.fn = fn
        self.key = key

    def __call__(self, *args, **kwargs):
        return _RECORDER.span(EXECUTOR, "task", self.fn, args, kwargs,
                              tag=lambda _r: {"key": self.key})


def _wrap_executor() -> None:
    from repro.supervision.executor import PENDING, RUNNING, SupervisedExecutor

    cls = SupervisedExecutor
    submit, poll = cls.submit, cls.poll
    kill_task, cancel, shutdown = cls.kill_task, cls.cancel, cls.shutdown
    counter = iter(range(1 << 62))

    def traced_submit(self, fn, *args, **kwargs):
        key = f"{os.getpid()}:{next(counter)}"
        _RECORDER.event("submit", key=key, tag=kwargs.get("tag"),
                        workers=self._max_workers)
        return _RECORDER.span(EXECUTOR, "submit", submit,
                              (self, TracedTask(fn, key)) + args, kwargs)

    def traced_poll(self, *args, **kwargs):
        done = _RECORDER.span(EXECUTOR, "poll", poll, (self,) + args,
                              kwargs, prio=WAIT)
        now = time.perf_counter()
        for task in done:
            if isinstance(task.fn, TracedTask):
                _RECORDER.event("recv", key=task.fn.key, at=now)
        return done

    def traced_kill_task(self, task):
        running = task.state == RUNNING
        killed = _RECORDER.span(EXECUTOR, "kill_task", kill_task,
                                (self, task), {})
        if killed and running:
            _RECORDER.event("killed")
        return killed

    def traced_cancel(self, task):
        pending = task.state == PENDING
        dropped = cancel(self, task)
        if dropped and pending:
            _RECORDER.event("cancelled")
        return dropped

    def traced_shutdown(self):
        return _RECORDER.span(EXECUTOR, "shutdown", shutdown, (self,), {})

    cls.submit = functools.wraps(submit)(traced_submit)
    cls.poll = functools.wraps(poll)(traced_poll)
    cls.kill_task = functools.wraps(kill_task)(traced_kill_task)
    cls.cancel = functools.wraps(cancel)(traced_cancel)
    cls.shutdown = functools.wraps(shutdown)(traced_shutdown)


def install(directory: str) -> Recorder:
    """Wrap every target in this process; spans go to ``directory``."""
    global _RECORDER
    if _RECORDER is not None:
        return _RECORDER
    os.makedirs(directory, exist_ok=True)
    _RECORDER = Recorder(directory)
    # Import every module that copies a target's name before patching,
    # so the identity scan reaches all of them.
    for module in ("repro.core", "repro.core.scheduler", "repro.parallel",
                   "repro.parallel.batch", "repro.parallel.cache",
                   "repro.parallel.race", "repro.store.tiering",
                   "repro.sat.backend", "repro.serve.daemon",
                   "repro.serve.jobs", "repro.cli"):
        importlib.import_module(module)
    for layer, module, qualname in TARGETS:
        _wrap(layer, module, qualname)
    _wrap_executor()
    return _RECORDER


# ----------------------------------------------------------------------
# merging and summarizing


def load(directory: str) -> Tuple[List[dict], List[dict]]:
    """All spans and events written under ``directory``."""
    spans: List[dict] = []
    events: List[dict] = []
    for name in sorted(os.listdir(directory)):
        if not (name.startswith("spans-") and name.endswith(".jsonl")):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError:
                    continue  # torn write of a killed worker
                (events if "ev" in doc else spans).append(doc)
    return spans, events


def _self_segments(spans: List[dict]) -> Iterable[Tuple[float, float, dict]]:
    """Innermost-span segments of one thread's properly nested spans."""
    stack: List[dict] = []
    cursor = 0.0
    for span in sorted(spans, key=lambda s: (s["s"], -s["e"])):
        while stack and stack[-1]["e"] <= span["s"]:
            top = stack.pop()
            if top["e"] > cursor:
                yield cursor, top["e"], top
            cursor = max(cursor, top["e"])
        if stack and span["s"] > cursor:
            yield cursor, span["s"], stack[-1]
        stack.append(span)
        cursor = span["s"]
    while stack:
        top = stack.pop()
        if top["e"] > cursor:
            yield cursor, top["e"], top
        cursor = max(cursor, top["e"])


def attribute(spans: List[dict], t0: float, t1: float
              ) -> Tuple[Dict[str, float], float]:
    """Split the window ``[t0, t1]`` among layers (see module doc).

    Returns ``(self seconds per layer, unattributed seconds)``; their
    sum is ``t1 - t0``.
    """
    timelines: Dict[Tuple[int, int], List[dict]] = {}
    for span in spans:
        timelines.setdefault((span["p"], span["t"]), []).append(span)
    points: List[Tuple[float, int, int, str]] = []
    for group in timelines.values():
        for a, b, span in _self_segments(group):
            a, b = max(a, t0), min(b, t1)
            if b > a:
                points.append((a, 1, span["c"], span["l"]))
                points.append((b, -1, span["c"], span["l"]))
    points.sort(key=lambda p: (p[0], p[1]))
    open_: List[Dict[str, int]] = [{}, {}, {}]
    self_s: Dict[str, float] = {}
    unattributed = 0.0
    last = t0
    for at, delta, prio, layer in points:
        if at > last:
            width = at - last
            active = next((c for c in open_ if c), None)
            if active is None:
                unattributed += width
            else:
                share = width / sum(active.values())
                for name, count in active.items():
                    self_s[name] = self_s.get(name, 0.0) + share * count
            last = at
        counts = open_[prio]
        counts[layer] = counts.get(layer, 0) + delta
        if counts[layer] == 0:
            del counts[layer]
    unattributed += max(0.0, t1 - last)
    return self_s, unattributed
