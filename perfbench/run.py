"""The repository's pinned benchmark: end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen): ``sweep``, ``batch``
and ``serve``, plus ``serve-default`` and ``serve-coalesce``, which
reproduce known defects and are not part of ``BENCHMARK.json``.

With ``--trace 0`` the last stdout line is a JSON object with the
end-to-end metrics; with ``--trace 1`` the run is traced (the layers'
public functions wrapped, see ``spans.py``) and the object holds the
per-layer metrics instead.  The line before it is a JSON detail record:
slice and mix checksums, sample counts, raw latency samples and any
correctness problems.

The run exits non-zero without a result when the program is missing
(no ``src/repro`` next to this directory).
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

WORKLOAD_NAMES = ("sweep", "batch", "serve", "serve-default",
                  "serve-coalesce")
SETUP_SAMPLES = 5
#: Latency limit of ``serve.goodput_rps``.
LATENCY_LIMIT_S = 1.0
SCRATCH = ROOT / ".perfbench"

#: (name, unit) of every end-to-end metric, printed with --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("loops_per_s", "1/s"),
    ("req_p50_s", "s"),
    ("proven_share", "share"),
    ("ii_excess", "count"),
    ("ok_share", "share"),
)

#: Layers whose public functions are wrapped, in reporting order.
FUNCTION_LAYERS = (
    "ddg.canonical", "store.tiering", "core.bounds", "core.warmstart",
    "core.presolve", "core.formulation", "ilp.solve", "sat.encode",
    "sat.solver", "core.verify", "core.scheduler",
)
#: Layers with two public functions, also reported one by one.
SPLIT_FUNCTIONS = (
    ("store.tiering", "lookup"), ("store.tiering", "publish"),
    ("sat.encode", "encode_formulation"), ("sat.encode", "decode_model"),
)
#: (name, unit) of the per-layer metrics beyond calls/busy/p50/self.
LAYER_EXTRAS = (
    ("store.tiering.hit_share", "share"),
    ("core.warmstart.settled_share", "share"),
    ("core.presolve.infeasible_share", "share"),
    ("ilp.solve.timeout_s", "s"),
    ("sat.solver.timeout_s", "s"),
    ("core.scheduler.attempts_per_loop", "count"),
    ("core.scheduler.no_verdict_share", "share"),
    ("supervision.executor.tasks", "count"),
    ("supervision.executor.killed", "count"),
    ("supervision.executor.cancelled", "count"),
    ("supervision.executor.queue_wait_s", "s"),
    ("supervision.executor.return_wait_s", "s"),
    ("supervision.executor.busy_share", "share"),
    ("supervision.executor.self_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.coalesced", "count"),
    ("serve.goodput_rps", "1/s"),
    ("serve.self_s", "s"),
    ("loadgen.late_p50_s", "s"),
    ("loadgen.late_max_s", "s"),
    ("loadgen.self_s", "s"),
    ("unattributed_s", "s"),
    ("wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def per_layer_units() -> Dict[str, str]:
    """(name -> unit) of every per-layer metric, in reporting order."""
    units: Dict[str, str] = {}
    for layer in FUNCTION_LAYERS:
        units[f"{layer}.calls"] = "count"
        for metric in ("busy_s", "p50_s", "self_s"):
            units[f"{layer}.{metric}"] = "s"
    for layer, fn in SPLIT_FUNCTIONS:
        units[f"{layer}.{fn}.calls"] = "count"
        for metric in ("busy_s", "p50_s"):
            units[f"{layer}.{fn}.{metric}"] = "s"
    units.update(LAYER_EXTRAS)
    return units


def percentile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = q * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ----------------------------------------------------------------------
# set-up


def setup_probe(args, workdir: Path) -> int:
    """``--setup-probe``: set up, say ``ready``, tear down, exit."""
    import pinned
    import workloads

    prepare, _run = workloads.WORKLOADS[args.workload]
    state = prepare(pinned.build(args.seconds), workdir, None)
    print("ready", flush=True)
    if state is not None:
        state.stop()
    return 0


def time_setups(args, workdir: Path) -> List[float]:
    """Set up ``SETUP_SAMPLES`` times, each in a fresh interpreter, and
    time process start to ready (imports, slice, pool/daemon boot)."""
    samples: List[float] = []
    for k in range(SETUP_SAMPLES):
        argv = [sys.executable, str(HERE / "run.py"), "--workload",
                args.workload, "--seconds", str(args.seconds),
                "--setup-probe", "--workdir", str(workdir / f"setup{k}")]
        start = time.perf_counter()
        probe = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, cwd=str(ROOT))
        try:
            line = probe.stdout.readline()
            ready = time.perf_counter() - start
            probe.stdout.read()
            code = probe.wait(timeout=60.0)
        except subprocess.TimeoutExpired:
            probe.kill()
            code = probe.wait()
        finally:
            probe.stdout.close()
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe {k} failed (exit {code})")
        samples.append(ready)
    return samples


# ----------------------------------------------------------------------
# metrics


def end_to_end(outcome, slice_, setup: List[float],
               verified: int) -> Dict[str, float]:
    first_seen = [r for r in outcome.results
                  if r.request is None or r.request.repeat_of < 0]
    wall = outcome.t1 - outcome.t0
    return {
        "setup_s": median(setup),
        "loops_per_s": share(verified, wall),
        "req_p50_s": median(outcome.req_s),
        "proven_share": share(sum(r.proven for r in first_seen),
                              len(slice_.loops)),
        "ii_excess": float(sum(r.achieved_t - r.t_lb for r in first_seen
                               if r.achieved_t is not None)),
        "ok_share": 1.0 - share(outcome.failed, outcome.attempted),
    }


def ungated(outcome, rss_mb: float) -> Dict[str, float]:
    """Figures the issue asks for that are too unsteady to gate on a
    shared host (see README.md); reported in the detail record."""
    return {
        "loop_p50_s": median(outcome.loop_s),
        "loop_p90_s": percentile(outcome.loop_s, 0.9),
        "req_p90_s": percentile(outcome.req_s, 0.9),
        "peak_rss_mb": rss_mb,
    }


def layer_metrics(outcome, trace_dir: str,
                  untraced_wall: Optional[float]) -> Dict[str, float]:
    import spans

    all_spans, events = spans.load(trace_dir)
    t0, t1 = outcome.t0, outcome.t1
    window = [s for s in all_spans if t0 <= s["s"] <= t1]
    self_s, unattributed = spans.attribute(all_spans, t0, t1)
    out = {name: 0.0 for name in per_layer_units()}

    def durations(layer: str, fn: Optional[str] = None,
                  tag: Optional[str] = None) -> List[float]:
        return [s["e"] - s["s"] for s in window
                if s["l"] == layer and (fn is None or s["f"] == fn)
                and (tag is None or (s.get("x") or {}).get(tag))]

    def tag_sum(layer: str, tag: str) -> float:
        return float(sum((s.get("x") or {}).get(tag, 0) for s in window
                         if s["l"] == layer))

    for layer in FUNCTION_LAYERS:
        values = durations(layer)
        out[f"{layer}.calls"] = float(len(values))
        out[f"{layer}.busy_s"] = sum(values)
        out[f"{layer}.p50_s"] = median(values)
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for layer, fn in SPLIT_FUNCTIONS:
        values = durations(layer, fn)
        out[f"{layer}.{fn}.calls"] = float(len(values))
        out[f"{layer}.{fn}.busy_s"] = sum(values)
        out[f"{layer}.{fn}.p50_s"] = median(values)

    sweeps = out["core.scheduler.calls"]
    attempts = tag_sum("core.scheduler", "attempts")
    out.update({
        "store.tiering.hit_share": share(tag_sum("store.tiering", "hit"),
                                         out["store.tiering.lookup.calls"]),
        "core.warmstart.settled_share": share(
            tag_sum("core.scheduler", "settled"), sweeps),
        "core.presolve.infeasible_share": share(
            tag_sum("core.presolve", "infeasible"),
            out["core.presolve.calls"]),
        "ilp.solve.timeout_s": sum(durations("ilp.solve", tag="timeout")),
        "sat.solver.timeout_s": sum(durations("sat.solver", tag="timeout")),
        "core.scheduler.attempts_per_loop": share(attempts, sweeps),
        "core.scheduler.no_verdict_share": share(
            tag_sum("core.scheduler", "no_verdict"), attempts),
    })

    # supervision.executor: parent-side submit/recv events joined with
    # the worker-side task spans on the task key.
    submits = {e["key"]: e for e in events
               if e["ev"] == "submit" and t0 <= e["at"] <= t1}
    received = {e["key"]: e["at"] for e in events if e["ev"] == "recv"}
    tasks = {s["x"]["key"]: s for s in all_spans
             if s["l"] == spans.EXECUTOR and s["f"] == "task"
             and (s.get("x") or {}).get("key") in submits}
    workers = max((e["workers"] for e in submits.values()), default=1)
    busy = sum(min(s["e"], t1) - max(s["s"], t0) for s in tasks.values())

    def counted(kind: str) -> float:
        return float(sum(1 for e in events
                         if e["ev"] == kind and t0 <= e["at"] <= t1))

    out.update({
        "supervision.executor.tasks": float(len(submits)),
        "supervision.executor.killed": counted("killed"),
        "supervision.executor.cancelled": counted("cancelled"),
        "supervision.executor.queue_wait_s": median(
            [s["s"] - submits[key]["at"] for key, s in tasks.items()]),
        "supervision.executor.return_wait_s": median(
            [received[key] - s["e"] for key, s in tasks.items()
             if key in received]),
        "supervision.executor.busy_share": share(busy, workers * (t1 - t0)),
        "supervision.executor.self_s": self_s.get(spans.EXECUTOR, 0.0),
    })

    # serve: client round trips (this process), and accepted ->
    # dispatched inside the daemon (its ServeDaemon.submit spans carry
    # the job id; its executor submit events carry it as the tag).
    pid = os.getpid()
    accepted = {(s.get("x") or {}).get("job"): s["e"] for s in window
                if s["l"] == "serve" and s["p"] != pid}
    dispatched: Dict[str, float] = {}
    for event in sorted(submits.values(), key=lambda e: e["at"]):
        if event.get("tag") in accepted:
            dispatched.setdefault(event["tag"], event["at"])
    requests = outcome.detail.get("requests", 0)
    out.update({
        "serve.submit_s": median([s["e"] - s["s"] for s in window
                                  if s["l"] == "serve" and s["p"] == pid
                                  and s["f"] == "submit"]),
        "serve.queue_wait_s": median([at - accepted[job]
                                      for job, at in dispatched.items()]),
        "serve.coalesced": float(outcome.detail.get("coalesced", 0)),
        "serve.goodput_rps": share(
            sum(1 for v in outcome.req_s if v <= LATENCY_LIMIT_S),
            t1 - t0) if requests else 0.0,
        "serve.self_s": self_s.get("serve", 0.0),
        "loadgen.late_p50_s": float(outcome.detail.get("late_p50_s", 0.0)),
        "loadgen.late_max_s": float(outcome.detail.get("late_max_s", 0.0)),
        "loadgen.self_s": self_s.get("loadgen", 0.0),
        "unattributed_s": unattributed,
        "wall_s": t1 - t0,
    })
    if untraced_wall is not None:
        out["trace.overhead_s"] = (t1 - t0) - untraced_wall
    return out


def _walls_file(args) -> Path:
    return SCRATCH / f"untraced-{args.workload}-{args.seconds}.json"


def untraced_wall(args, workdir: Path) -> Optional[float]:
    """Wall of the same workload untraced: the median recorded by earlier
    untraced runs in this checkout, else one untraced run now."""
    try:
        walls = json.loads(_walls_file(args).read_text())
    except (OSError, ValueError):
        walls = []
    if walls:
        return median(walls)
    argv = [sys.executable, str(HERE / "run.py"), "--workload",
            args.workload, "--seed", str(args.seed), "--seconds",
            str(args.seconds), "--no-setup",
            "--workdir", str(workdir / "untraced")]
    done = subprocess.run(argv, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, cwd=str(ROOT),
                          timeout=150.0)
    lines = done.stdout.decode("utf-8", "replace").strip().splitlines()
    try:
        return float(json.loads(lines[-2])["wall_s"])
    except (IndexError, ValueError, KeyError):
        return None


def remember_wall(args, wall: float) -> None:
    path = _walls_file(args)
    try:
        walls = json.loads(path.read_text())
    except (OSError, ValueError):
        walls = []
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps((walls + [wall])[-20:]))
    os.replace(tmp, path)


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up; an untraced run without set-up probes
    # (the reference for trace.overhead_s); a fixed scratch directory.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--no-setup", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {ROOT / 'src/repro'}",
              file=sys.stderr)
        return 2
    # A terminated run still stops what it started (finally blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = Path(args.workdir or SCRATCH / f"{args.workload}-{os.getpid()}")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            return setup_probe(args, workdir)
        return measure(args, workdir)
    finally:
        if not args.workdir:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: Path) -> int:
    # Solver libraries print to fd 1: keep stdout for the result lines.
    stdout = os.dup(1)
    os.dup2(2, 1)
    try:
        import checks
        import pinned
        import workloads

        trace_dir = None
        if args.trace:
            import spans

            trace_dir = str(workdir / "spans")
            spans.install(trace_dir)
        prepare, run = workloads.WORKLOADS[args.workload]
        slice_ = pinned.build(args.seconds)
        state = prepare(slice_, workdir, trace_dir)
        own_setup = time.perf_counter() - STARTED
        try:
            outcome = run(slice_, args.seed, state)
        finally:
            if state is not None:
                state.stop()
        problems, verified = checks.check(outcome, slice_.checksum)
        wall = outcome.t1 - outcome.t0
        setup: List[float] = []
        # Before the set-up probes add children.
        extra = ungated(outcome, peak_rss_mb())
        if args.trace:
            metrics = layer_metrics(outcome, trace_dir,
                                    untraced_wall(args, workdir))
            units = per_layer_units()
        else:
            if not args.no_setup:
                setup = time_setups(args, workdir)
                remember_wall(args, wall)
            metrics = end_to_end(outcome, slice_, setup, verified)
            units = dict(END_TO_END)
        detail = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "slice": {"seed": slice_.seed, "loops_per_machine": slice_.count,
                      "manifests": slice_.manifests,
                      "checksum": slice_.checksum},
            "samples": {"loops": len(outcome.loop_s),
                        "requests": len(outcome.req_s),
                        "setup": len(setup)},
            "ungated": extra,
            "own_setup_s": own_setup,
            "setup_s": setup,
            "wall_s": wall,
            "verified": verified,
            "problems": problems[:20],
            "errors": outcome.errors[:20],
            "loop_s": [round(v, 5) for v in outcome.loop_s],
            "req_s": [round(v, 5) for v in outcome.req_s],
        }
        detail.update(outcome.detail)
        result = {
            "correct": not problems,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
    finally:
        os.dup2(stdout, 1)
        os.close(stdout)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
