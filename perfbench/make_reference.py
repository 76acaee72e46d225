"""Write ``reference.json``: the pinned slice's verdicts, cross-checked.

Usage (from the repository root)::

    python3 perfbench/make_reference.py [--seconds 25]

Runs the ``sweep`` workload (SAT) and the ``batch`` workload (HiGHS
through ``auto``) over the pinned slice and merges their per-loop
results.  It refuses to write when the two backends disagree on a
bound, or on the T of a loop both proved rate-optimal, or when a
schedule does not replay clean.  Every benchmark run then checks its
own results against the file (see ``checks.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import pinned  # noqa: E402
import workloads  # noqa: E402


def merge(outcomes) -> dict:
    loops: dict = {}
    problems = []
    for backend, outcome in outcomes:
        for result in outcome.results:
            problem = checks.replay(result)
            if problem is not None:
                problems.append(f"{backend} {result.loop.ddg.name}: {problem}")
            key = checks.reference_key(result)
            entry = loops.setdefault(key, {
                "loop": f"{result.loop.machine_name}/{result.loop.ddg.name}",
                "t_lb": result.t_lb, "t_proven": None, "t_best": None,
                "proven_by": [],
            })
            if entry["t_lb"] != result.t_lb:
                problems.append(f"{key}: T_lb {entry['t_lb']} vs "
                                f"{result.t_lb} ({backend})")
            t = result.achieved_t
            if t is not None:
                best = entry["t_best"]
                entry["t_best"] = t if best is None else min(best, t)
            if result.proven:
                if entry["t_proven"] not in (None, t):
                    problems.append(f"{key}: proved T={entry['t_proven']} "
                                    f"and T={t} ({backend})")
                entry["t_proven"] = t
                entry["proven_by"].append(backend)
    for key, entry in loops.items():
        proven = entry["t_proven"]
        if proven is not None and entry["t_best"] < proven:
            problems.append(f"{key}: found T={entry['t_best']} below the "
                            f"proven T={proven}")
    if problems:
        raise SystemExit("reference not written:\n  " + "\n  ".join(problems))
    return loops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    slice_ = pinned.build(args.seconds)
    outcomes = [
        ("sat", workloads.run_sweep(slice_, 0, None)),
        ("highs", workloads.run_batch(slice_, 0, None)),
    ]
    doc = {
        "slice": {"seed": slice_.seed, "loops_per_machine": slice_.count,
                  "manifests": slice_.manifests,
                  "checksum": slice_.checksum},
        "loops": merge(outcomes),
    }
    checks.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True)
                                + "\n", encoding="utf-8")
    print(f"wrote {checks.REFERENCE} ({len(doc['loops'])} loops)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
