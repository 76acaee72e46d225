"""Command-line interface: ``python -m repro <command> ...``.

Commands
    schedule     schedule one loop (named kernel, DDG file or DSL source);
                 --jobs N races its candidate periods on N workers
    batch        schedule a corpus of .ddg files across worker processes
    cache        inspect/maintain the persistent schedule store
    analyze      pipeline-hazard analysis of a machine's FUs
    motivating   print the paper's §2 artifacts (Figures 1-4, Tables 1-2)
    list         show available kernels and machine presets
    gen          emit a seeded, manifest-reproducible loop corpus
    corpus       dump a synthetic loop corpus as .ddg files
    serve        run the HTTP solve daemon (submit/poll over JSON)
    loadgen      crash drill: SIGKILL a serve daemon, restart, lose nothing
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.baselines import iterative_modulo_schedule, list_schedule
from repro.codegen import emit_assembly, flat_listing
from repro.core import lower_bounds, schedule_loop
from repro.core.formulation import BACKENDS
from repro.ddg import builders, generators, kernels, render
from repro.machine import presets


def _load_ddg(args):
    if args.kernel:
        return kernels.by_name(args.kernel)
    if args.ddg:
        try:
            with open(args.ddg, encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SystemExit(
                f"cannot read DDG file {args.ddg}: "
                f"{type(exc).__name__}: {exc}"
            )
        from repro.ddg.errors import DdgError

        try:
            return builders.parse_ddg(text)
        except (ValueError, DdgError) as exc:
            raise SystemExit(f"cannot parse DDG file {args.ddg}: {exc}")
    if getattr(args, "source", None):
        from repro.frontend import OpClassMap, compile_loop

        classes = None
        if getattr(args, "classes", None):
            overrides = {}
            for pair in args.classes.split(","):
                key, _, value = pair.partition("=")
                if not value:
                    raise SystemExit(
                        f"--classes expects op=class pairs, got {pair!r}"
                    )
                overrides[key.strip()] = value.strip()
            classes = OpClassMap(**overrides)
        try:
            with open(args.source, encoding="utf-8") as handle:
                source_text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise SystemExit(
                f"cannot read source file {args.source}: "
                f"{type(exc).__name__}: {exc}"
            )
        return compile_loop(source_text, name=args.source, classes=classes)
    raise SystemExit("one of --kernel, --ddg or --source is required")


def _machine_of(args):
    if getattr(args, "machine_file", None):
        from repro.machine.errors import MachineError
        from repro.machine.io import load_machine

        try:
            return load_machine(args.machine_file)
        except (OSError, ValueError, MachineError) as exc:
            raise SystemExit(
                f"cannot load machine file {args.machine_file}: {exc}"
            )
    return presets.by_name(args.machine)


def _policy_of(args):
    """Build a SupervisionPolicy from --deadline/--retries/--memory-mb.

    Returns None when no supervision flag was given, so callers can keep
    the (cheaper) in-process default paths.
    """
    from repro.supervision import SupervisionPolicy

    deadline = getattr(args, "deadline", None)
    retries = getattr(args, "retries", None)
    memory_mb = getattr(args, "memory_mb", None)
    if deadline is None and retries is None and memory_mb is None:
        return None
    kwargs = {}
    if deadline is not None:
        kwargs["deadline"] = deadline
    if retries is not None:
        kwargs["max_retries"] = retries
    if memory_mb is not None:
        kwargs["memory_mb"] = memory_mb
    return SupervisionPolicy(**kwargs)


def _atomic_write(path, text) -> None:
    from repro.supervision import atomic_write_text

    atomic_write_text(path, text)


def _print_store_line(result) -> None:
    """One-line store outcome for a schedule result (when enabled)."""
    stats = result.store
    if stats is None:
        return
    if stats.hit:
        print(
            f"store: hit ({stats.tier}, verified, "
            f"{stats.seconds * 1000:.1f} ms) — sweep skipped"
        )
    else:
        state = "published" if stats.published else "not published"
        extra = ", stale entry evicted" if stats.evicted else ""
        print(f"store: miss ({state}{extra})")


def _cmd_schedule(args) -> int:
    from repro.core.errors import SchedulingError
    from repro.core.scheduler import CANCELLED
    from repro.supervision import graceful_interrupts

    machine = _machine_of(args)
    ddg = _load_ddg(args)
    ddg.validate_against(machine)
    print(render.ascii_ddg(ddg, machine))
    bounds = lower_bounds(ddg, machine)
    print(f"T_dep={bounds.t_dep}  T_res={bounds.t_res}  T_lb={bounds.t_lb}")
    try:
        with graceful_interrupts():
            result = schedule_loop(
                ddg,
                machine,
                backend=args.backend,
                objective=args.objective,
                time_limit_per_t=args.time_limit,
                max_extra=args.max_extra,
                warmstart=not args.no_warmstart,
                jobs=args.jobs,
                policy=_policy_of(args),
                store=args.store,
            )
    except SchedulingError as exc:
        raise SystemExit(f"schedule: {exc}")
    print(result.summary())
    _print_store_line(result)
    for attempt in result.attempts:
        tag = f" [{attempt.backend}]" if attempt.backend else ""
        print(f"  T={attempt.t_period}: {attempt.status}{tag} "
              f"({attempt.seconds:.2f}s)")
    if args.explain:
        from repro.core.explain import explain_infeasibility

        # Only the periods the sweep had to give up on: the achieved T
        # and the cancelled periods above it need no diagnosis.
        for attempt in result.attempts:
            if attempt.status == CANCELLED or (
                result.schedule is not None
                and attempt.t_period >= result.achieved_t
            ):
                continue
            diagnosis = explain_infeasibility(
                ddg, machine, attempt.t_period, backend=args.backend,
                time_limit=args.time_limit,
            )
            print(diagnosis.render(ddg))
    if result.schedule is None:
        print("no schedule found within the budget")
        return 1
    schedule = result.schedule
    print()
    print(schedule.render_tka())
    print()
    print(schedule.render_kernel())
    if args.assembly:
        print()
        print(emit_assembly(schedule))
    if args.listing:
        print()
        print(flat_listing(schedule, iterations=args.listing))
    if args.registers:
        from repro.registers import max_live, total_buffers, unroll_factor

        print()
        print(
            f"register pressure: buffers={total_buffers(schedule)} "
            f"(Ning-Gao), MaxLive={max_live(schedule)}, "
            f"MVE unroll={unroll_factor(schedule)}"
        )
    if args.export_lp:
        from repro.core import Formulation
        from repro.ilp.lp_format import write_lp

        formulation = Formulation(ddg, machine, schedule.t_period)
        formulation.build()
        _atomic_write(args.export_lp, write_lp(formulation.model))
        print(f"wrote ILP at T={schedule.t_period} to {args.export_lp}")
    if args.compare_heuristic:
        heuristic = iterative_modulo_schedule(ddg, machine)
        sequential = list_schedule(ddg, machine)
        print()
        print(
            f"heuristic (iterative modulo): II="
            f"{heuristic.achieved_ii}  |  ILP: T={schedule.t_period}  |  "
            f"no pipelining: II={sequential.effective_ii}"
        )
    return 0


def _cmd_batch(args) -> int:
    from repro.core.errors import SchedulingError
    from repro.parallel import run_batch
    from repro.supervision import graceful_interrupts

    machine = _machine_of(args)
    try:
        with graceful_interrupts():
            report = run_batch(
                args.paths,
                machine,
                backend=args.backend,
                time_limit_per_t=args.time_limit,
                max_extra=args.max_extra,
                jobs=args.jobs,
                warmstart=not args.no_warmstart,
                policy=_policy_of(args),
                journal=args.journal,
                resume=args.resume,
                store=args.store,
            )
    except (OSError, ValueError, SchedulingError) as exc:
        raise SystemExit(f"batch: {exc}")
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    if args.out:
        report.save_json(args.out)
        print(f"wrote JSON report to {args.out}")
    return 0 if report.failed == 0 else 1


def _cmd_cache(args) -> int:
    """Inspect and maintain the persistent schedule store."""
    import json

    from repro.store import ScheduleStore

    store = ScheduleStore(args.store)
    action = args.action

    if action == "stats":
        stats = store.stats()
        print(f"store {stats['root']}: {stats['entries']} entrie(s), "
              f"{stats['bytes']} bytes")
        if stats["oldest_mtime"] is not None:
            import time as time_module

            age = time_module.time() - stats["oldest_mtime"]
            print(f"oldest entry: {age / 3600:.1f} h old")
        return 0

    if action == "ls":
        count = 0
        for key, entry in store.entries():
            prov = entry.get("provenance", {})
            result = entry.get("result", {})
            sched = result.get("schedule", {})
            print(
                f"{key[:16]}  loop={prov.get('loop', '?'):<16} "
                f"T={sched.get('t_period', '?'):<3} "
                f"solve={prov.get('solve_seconds', 0):.2f}s"
            )
            count += 1
        print(f"{count} entrie(s)")
        return 0

    if action == "gc":
        removed = store.gc(max_bytes=args.max_bytes, max_age=args.max_age)
        print(
            f"gc: removed {removed['removed']} entrie(s), kept "
            f"{removed['kept']} ({removed['bytes']} bytes)"
        )
        return 0

    if action == "clear":
        removed = store.clear()
        print(f"cleared {removed} entrie(s)")
        return 0

    if action == "verify":
        from repro.core.errors import CoreError
        from repro.core.verify import verify_schedule
        from repro.ddg.builders import parse_ddg
        from repro.ddg.errors import DdgError
        from repro.store.entry import EntryError, entry_to_result
        from repro.store.keys import canonical_machine_digest

        machine = _machine_of(args)
        machine_digest = canonical_machine_digest(machine)
        checked = bad = skipped = 0
        for key, entry in store.entries():
            if entry.get("machine_digest") != machine_digest:
                skipped += 1
                continue
            checked += 1
            try:
                # Canonical text parses to ops in canonical order, so
                # the stored starts apply with the identity permutation.
                ddg = parse_ddg(entry["ddg"])
                result = entry_to_result(
                    entry, ddg, machine, list(range(ddg.num_ops))
                )
                verify_schedule(result.schedule)
            except (EntryError, DdgError, CoreError, KeyError,
                    ValueError) as exc:
                bad += 1
                print(f"BAD {key[:16]}: {type(exc).__name__}: {exc}")
                if args.evict:
                    store.delete(key)
        state = "evicted" if args.evict and bad else "kept"
        print(
            f"verified {checked} entrie(s) for machine "
            f"{machine.name!r}: {bad} bad ({state}), "
            f"{skipped} for other machines skipped"
        )
        return 1 if bad else 0

    if action == "warm":
        from repro.core.scheduler import AttemptConfig
        from repro.store import warm_store

        machine = _machine_of(args)
        config = AttemptConfig(
            backend=args.backend,
            objective=args.objective,
            time_limit=args.time_limit,
            warmstart=not args.no_warmstart,
        )
        try:
            outcome = warm_store(
                args.journal, store, machine, config, args.max_extra
            )
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cache warm: {exc}")
        print(
            f"warmed from {args.journal}: {outcome['published']}/"
            f"{outcome['examined']} entrie(s) published"
        )
        if outcome["skipped"]:
            print("skipped: " + json.dumps(outcome["skipped"], sort_keys=True))
        return 0

    raise SystemExit(f"unknown cache action {action!r}")


def _cmd_analyze(args) -> int:
    from repro.machine.collision import analyze

    machine = presets.by_name(args.machine)
    print(machine.render())
    print()
    for fu in machine.fu_types.values():
        report = analyze(fu.table)
        print(f"FU {fu.name} (x{fu.count}):")
        print(f"  forbidden latencies: {report['forbidden_latencies']}")
        print(f"  collision vector:    {report['initial_collision_vector']}")
        print(f"  greedy cycle:        {report['greedy_cycle']} "
              f"(avg {report['greedy_average']})")
        print(f"  MAL:                 {report['mal']}")
        print(f"  clean:               {report['is_clean']}")
    return 0


def _cmd_motivating(args) -> int:
    from repro.experiments import motivating as motivating_experiment

    print(motivating_experiment.report())
    return 0


def _cmd_list(args) -> int:
    print("kernels: " + ", ".join(sorted(kernels.KERNELS)))
    print("machines: " + ", ".join(sorted(presets.PRESETS)))
    return 0


def _cmd_gen(args) -> int:
    """Generate (or audit / regenerate) a manifest-backed corpus."""
    from repro.corpusgen import (
        CorpusGenError,
        default_families,
        regenerate_from,
        verify_corpus,
        write_corpus,
    )
    from repro.ddg.generators import GenParams

    try:
        if args.check:
            audit = verify_corpus(args.check)
            for problem in audit["problems"]:
                print(problem)
            print(
                f"checked {len(audit['checked'])} loop(s): "
                f"{len(audit['problems'])} problem(s)"
            )
            return 1 if audit["problems"] else 0

        if args.from_manifest:
            if not args.out:
                raise SystemExit("gen: --from-manifest requires --out")
            manifest = regenerate_from(args.from_manifest, args.out)
            print(
                f"regenerated {manifest.count} loop(s) into {args.out} "
                f"(seed {manifest.seed}, machine {manifest.machine}) — "
                "byte-identical to the manifest"
            )
            return 0

        if not args.out:
            raise SystemExit("gen: --out is required")
        base = GenParams(
            mode="guaranteed",
            min_ops=args.min_ops,
            max_ops=args.max_ops,
            cycles=args.cycles,
            cycle_depth=args.cycle_depth,
            max_distance=args.max_distance,
            distance_dist=args.distance_dist,
            profile=args.profile,
        )
        families = default_families(
            args.count,
            mode=args.mode,
            profile=args.profile,
            dsl_fraction=args.dsl_frac,
            adversarial_fraction=args.adversarial_frac,
            base=base,
        )
        manifest = write_corpus(args.out, args.seed, args.machine, families)
    except CorpusGenError as exc:
        raise SystemExit(f"gen: {exc}")
    sizes = [record.ops for record in manifest.loops]
    split = ", ".join(f"{f.name}={f.count}" for f in manifest.families)
    print(
        f"wrote {manifest.count} loop(s) + manifest.json to {args.out} "
        f"(seed {args.seed}, machine {args.machine}; {split}; sizes "
        f"{min(sizes)}-{max(sizes)}, mean {sum(sizes) / len(sizes):.1f})"
    )
    print(
        "reproduce with: repro gen --from-manifest "
        f"{args.out}/manifest.json --out DIR"
    )
    # Self-audit: the files we just wrote must verify against their
    # own manifest (cheap, and catches e.g. a full disk immediately).
    audit = verify_corpus(args.out)
    if audit["problems"]:
        for problem in audit["problems"]:
            print(problem)
        return 1
    return 0


def _cmd_corpus(args) -> int:
    """Dump a reproducible synthetic corpus as .ddg text files."""
    import os

    machine = presets.by_name(args.machine)
    loops = generators.suite(args.count, machine, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    sizes = []
    for ddg in loops:
        path = os.path.join(args.out, f"{ddg.name}.ddg")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(builders.serialize_ddg(ddg))
        sizes.append(ddg.num_ops)
    print(
        f"wrote {len(loops)} loops to {args.out} "
        f"(sizes {min(sizes)}-{max(sizes)}, mean "
        f"{sum(sizes) / len(sizes):.1f}; seed {args.seed}, "
        f"machine {args.machine})"
    )
    return 0


def _add_supervision_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("supervision")
    group.add_argument(
        "--deadline", type=float, metavar="SEC",
        help="hard wall-clock deadline per worker task; a task past "
             "the deadline (plus a short grace) is killed and retried",
    )
    group.add_argument(
        "--retries", type=int, metavar="N",
        help="retry a crashed or hung worker task up to N times "
             "before recording the failure (default 2)",
    )
    group.add_argument(
        "--memory-mb", type=int, metavar="MB",
        help="per-worker address-space cap; a solve past the cap "
             "fails as 'oom' instead of taking the machine down",
    )


def _cmd_serve(args) -> int:
    from repro.serve.config import ServeConfig
    from repro.serve.daemon import serve_main

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        rate=args.rate,
        burst=args.burst,
        deadline=args.deadline,
        max_retries=args.retries,
        time_limit=args.time_limit,
        max_extra=args.max_extra,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown=args.breaker_cooldown,
        store=args.store,
        journal=args.journal,
        drain_grace=args.drain_grace,
        port_file=args.port_file,
    )
    return serve_main(config)


def _cmd_loadgen(args) -> int:
    from pathlib import Path

    from repro.serve.loadgen import run_drill

    corpus = sorted(Path(args.corpus).glob("*.ddg"))
    if not corpus:
        raise SystemExit(f"no .ddg files under {args.corpus}")
    doc = run_drill(
        corpus, args.machine, Path(args.out),
        requests=args.requests,
        time_limit=args.time_limit,
        backend=args.backend,
        warmstart=not args.no_warmstart,
        faults=args.faults,
        seed=args.seed,
    )
    restart = doc["restart"]
    print(
        f"loadgen: {restart['accepted_before_kill']} job(s) accepted "
        f"before the kill, {doc['resumed']} resumed, "
        f"{restart['resumed_terminal']} terminal after restart, "
        f"lost_jobs={len(restart['lost_jobs'])} -> {args.out}"
    )
    return 1 if restart["lost_jobs"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Rate-optimal software pipelining with structural "
        "hazards (Altman/Govindarajan/Gao, PLDI 1995).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_schedule = sub.add_parser("schedule", help="schedule one loop")
    p_schedule.add_argument("--kernel", help="named kernel (see 'list')")
    p_schedule.add_argument("--ddg", help="path to a DDG text file")
    p_schedule.add_argument(
        "--source", help="path to a loop-DSL source file (see repro.frontend)"
    )
    p_schedule.add_argument(
        "--classes", metavar="MAP",
        help="operator->op-class overrides for --source, e.g. "
             "'add=mac,mul=mac,div=div'",
    )
    p_schedule.add_argument("--machine", default="motivating")
    p_schedule.add_argument("--machine-file", metavar="PATH",
                            help="machine description file "
                                 "(overrides --machine)")
    p_schedule.add_argument("--backend", default="auto", choices=BACKENDS)
    p_schedule.add_argument("--objective", default="min_sum_t",
                            choices=("feasibility", "min_sum_t", "min_fu",
                                     "min_buffers", "min_lifetimes"))
    p_schedule.add_argument("--time-limit", type=float, default=30.0)
    p_schedule.add_argument("--max-extra", type=int, default=10)
    p_schedule.add_argument("--jobs", type=int, default=1,
                            help="worker processes racing candidate "
                                 "periods (default 1: in-process)")
    p_schedule.add_argument("--assembly", action="store_true",
                            help="emit PROLOG/KERNEL/EPILOG assembly")
    p_schedule.add_argument("--listing", type=int, metavar="ITERS",
                            help="emit an overlapped-iteration listing")
    p_schedule.add_argument("--registers", action="store_true",
                            help="report buffer/MaxLive pressure")
    p_schedule.add_argument("--explain", action="store_true",
                            help="diagnose why smaller periods failed")
    p_schedule.add_argument("--export-lp", metavar="PATH",
                            help="write the ILP in CPLEX LP format")
    p_schedule.add_argument("--compare-heuristic", action="store_true")
    p_schedule.add_argument("--no-warmstart", action="store_true",
                            help="disable the heuristic warm-start "
                                 "pre-pass")
    p_schedule.add_argument("--store", metavar="DIR",
                            help="persistent schedule store directory "
                                 "(hits skip the solve entirely)")
    _add_supervision_flags(p_schedule)
    p_schedule.set_defaults(func=_cmd_schedule)

    p_batch = sub.add_parser(
        "batch",
        help="schedule .ddg files/directories across worker processes",
    )
    p_batch.add_argument(
        "paths", nargs="+", metavar="PATH",
        help=".ddg files and/or directories of them",
    )
    p_batch.add_argument("--machine", default="powerpc604")
    p_batch.add_argument("--machine-file", metavar="PATH",
                         help="machine description file (overrides "
                              "--machine)")
    p_batch.add_argument("--backend", default="auto", choices=BACKENDS)
    p_batch.add_argument("--time-limit", type=float, default=10.0,
                         help="per-period solver budget (seconds)")
    p_batch.add_argument("--max-extra", type=int, default=10)
    p_batch.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPU count)")
    p_batch.add_argument("--out", metavar="PATH",
                         help="write the JSON report to this file")
    p_batch.add_argument("--json", action="store_true",
                         help="print the JSON report instead of the table")
    p_batch.add_argument("--no-warmstart", action="store_true",
                         help="disable the heuristic warm-start pre-pass")
    p_batch.add_argument("--journal", metavar="PATH",
                         help="append every finished loop to this JSONL "
                              "checkpoint file")
    p_batch.add_argument("--resume", metavar="PATH",
                         help="resume from a journal: re-run only loops "
                              "that failed or never finished")
    p_batch.add_argument("--store", metavar="DIR",
                         help="persistent schedule store shared by all "
                              "workers and across runs")
    _add_supervision_flags(p_batch)
    p_batch.set_defaults(func=_cmd_batch)

    p_cache = sub.add_parser(
        "cache", help="inspect/maintain the persistent schedule store"
    )
    cache_sub = p_cache.add_subparsers(dest="action", required=True)

    def _cache_action(name: str, help_text: str):
        action = cache_sub.add_parser(name, help=help_text)
        action.add_argument("--store", required=True, metavar="DIR",
                            help="schedule store directory")
        action.set_defaults(func=_cmd_cache, action=name)
        return action

    _cache_action("stats", "entry count, bytes, and age of the store")
    _cache_action("ls", "list entries (key, loop, period, solve time)")
    c_gc = _cache_action("gc", "evict entries by age and/or total size")
    c_gc.add_argument("--max-bytes", type=int, metavar="N",
                      help="shrink the store below N bytes "
                           "(oldest entries first)")
    c_gc.add_argument("--max-age", type=float, metavar="SEC",
                      help="evict entries older than SEC seconds")
    _cache_action("clear", "remove every entry")
    c_verify = _cache_action(
        "verify", "re-verify every entry against a machine"
    )
    c_verify.add_argument("--machine", default="powerpc604")
    c_verify.add_argument("--machine-file", metavar="PATH",
                          help="machine description file "
                               "(overrides --machine)")
    c_verify.add_argument("--evict", action="store_true",
                          help="delete entries that fail verification")
    c_warm = _cache_action(
        "warm", "publish entries from a batch journal/report"
    )
    c_warm.add_argument("journal", metavar="PATH",
                        help="batch journal (.jsonl) or report (.json) "
                             "with schedule payloads (report v5+)")
    c_warm.add_argument("--machine", default="powerpc604")
    c_warm.add_argument("--machine-file", metavar="PATH",
                        help="machine description file "
                             "(overrides --machine)")
    c_warm.add_argument("--backend", default="auto", choices=BACKENDS)
    c_warm.add_argument("--objective", default="feasibility",
                        choices=("feasibility", "min_sum_t", "min_fu",
                                 "min_buffers", "min_lifetimes"))
    c_warm.add_argument("--time-limit", type=float, default=10.0)
    c_warm.add_argument("--max-extra", type=int, default=10)
    c_warm.add_argument("--no-warmstart", action="store_true")

    p_analyze = sub.add_parser(
        "analyze", help="pipeline-hazard analysis of a machine's FUs"
    )
    p_analyze.add_argument("--machine", default="motivating")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_motivating = sub.add_parser(
        "motivating", help="print the paper's Section 2 artifacts"
    )
    p_motivating.set_defaults(func=_cmd_motivating)

    p_list = sub.add_parser("list", help="list kernels and machines")
    p_list.set_defaults(func=_cmd_list)

    p_gen = sub.add_parser(
        "gen",
        help="emit a seeded, manifest-reproducible loop corpus",
        description="Generate a corpus of loop DDGs plus a "
        "manifest.json that reproduces it byte-for-byte "
        "(see docs/corpus.md).",
    )
    p_gen.add_argument("--out", metavar="DIR",
                       help="corpus output directory")
    p_gen.add_argument("--seed", type=int, default=42)
    p_gen.add_argument("--count", type=int, default=1000)
    p_gen.add_argument("--machine", default="powerpc604",
                       help="machine preset the corpus targets "
                            "(manifests are preset-based)")
    p_gen.add_argument("--mode", default="mixed",
                       choices=("mixed", "guaranteed", "adversarial",
                                "dsl"),
                       help="family mix: mixed (default) blends "
                            "guaranteed-schedulable, DSL-compiled and "
                            "adversarial loops")
    p_gen.add_argument("--profile", default="scalar",
                       choices=("scalar", "fp", "int", "mem", "div"),
                       help="instruction-class mix profile")
    p_gen.add_argument("--min-ops", type=int, default=2)
    p_gen.add_argument("--max-ops", type=int, default=40)
    p_gen.add_argument("--cycles", type=int, default=1,
                       help="recurrence cycles per loop")
    p_gen.add_argument("--cycle-depth", type=int, default=1,
                       help="max ops per recurrence cycle")
    p_gen.add_argument("--max-distance", type=int, default=3)
    p_gen.add_argument("--distance-dist", default="uniform",
                       choices=("uniform", "geometric", "unit"),
                       help="loop-carried distance distribution")
    p_gen.add_argument("--dsl-frac", type=float, default=0.2,
                       help="fraction of DSL-compiled kernels in "
                            "mixed mode")
    p_gen.add_argument("--adversarial-frac", type=float, default=0.1,
                       help="fraction of adversarial loops in mixed "
                            "mode")
    p_gen.add_argument("--from-manifest", metavar="PATH",
                       help="regenerate a corpus byte-identically from "
                            "a manifest (ignores the generator knobs)")
    p_gen.add_argument("--check", metavar="DIR",
                       help="audit an existing corpus directory "
                            "against its manifest and exit")
    p_gen.set_defaults(func=_cmd_gen)

    p_corpus = sub.add_parser(
        "corpus", help="dump a synthetic loop corpus as .ddg files"
    )
    p_corpus.add_argument("--out", required=True, metavar="DIR")
    p_corpus.add_argument("--count", type=int, default=100)
    p_corpus.add_argument("--seed", type=int, default=604)
    p_corpus.add_argument("--machine", default="powerpc604")
    p_corpus.set_defaults(func=_cmd_corpus)

    p_serve = sub.add_parser(
        "serve",
        help="run the HTTP solve daemon",
        description="Serve submit/poll solve requests over HTTP, "
        "dispatching onto a supervised worker pool with the "
        "content-addressed store as shared cache (see "
        "docs/service.md).",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0,
                         help="0 picks an ephemeral port "
                              "(see --port-file)")
    p_serve.add_argument("--port-file", metavar="PATH",
                         help="write the bound port here once "
                              "listening (for scripted startup)")
    p_serve.add_argument("--workers", type=int, default=2,
                         help="supervised solver processes")
    p_serve.add_argument("--queue-depth", type=int, default=64,
                         help="admission queue bound; beyond it "
                              "submissions are shed with 429")
    p_serve.add_argument("--rate", type=float, default=20.0,
                         help="per-client token-bucket refill "
                              "(requests/second)")
    p_serve.add_argument("--burst", type=int, default=20,
                         help="per-client token-bucket capacity")
    p_serve.add_argument("--deadline", type=float, default=120.0,
                         help="per-job wall-clock deadline (seconds)")
    p_serve.add_argument("--retries", type=int, default=1,
                         help="supervised retries per solve attempt")
    p_serve.add_argument("--time-limit", type=float, default=10.0,
                         help="solver time limit per request (seconds)")
    p_serve.add_argument("--max-extra", type=int, default=10,
                         help="periods above MII to sweep")
    p_serve.add_argument("--breaker-threshold", type=int, default=3,
                         help="consecutive failures before a backend "
                              "is circuit-broken")
    p_serve.add_argument("--breaker-cooldown", type=float, default=10.0,
                         help="seconds before a tripped backend is "
                              "probed again")
    p_serve.add_argument("--store", metavar="DIR",
                         help="content-addressed result store "
                              "(shared cache tier)")
    p_serve.add_argument("--journal", metavar="PATH",
                         help="accepted/done journal; enables "
                              "zero-lost-jobs restart")
    p_serve.add_argument("--drain-grace", type=float, default=30.0,
                         help="seconds to let in-flight jobs finish "
                              "on SIGTERM before halting")
    p_serve.set_defaults(func=_cmd_serve)

    p_loadgen = sub.add_parser(
        "loadgen",
        help="crash drill: SIGKILL a serve daemon under load, restart it",
        description="Boot a serve daemon, submit the seeded corpus mix, "
        "SIGKILL it while accepted jobs are unfinished, restart it on "
        "the same journal, wait for every accepted job to reach a "
        "terminal state, then drain.  Exits 1 if any job is lost.",
    )
    p_loadgen.add_argument("--corpus", default="corpus", metavar="DIR",
                           help=".ddg corpus directory to draw from")
    p_loadgen.add_argument("--machine", default="powerpc604")
    p_loadgen.add_argument("--requests", type=int, default=30)
    p_loadgen.add_argument("--out", default="drill.json", metavar="PATH",
                           help="write the drill document here")
    p_loadgen.add_argument("--time-limit", type=float, default=5.0)
    p_loadgen.add_argument("--backend", default="auto", choices=BACKENDS)
    p_loadgen.add_argument("--no-warmstart", action="store_true",
                           help="submit with warmstart off so solves "
                                "reach the ILP attempt sites (where "
                                "attempt-site faults fire)")
    p_loadgen.add_argument("--faults", metavar="SPEC",
                           help="REPRO_FAULTS spec injected into the "
                                "daemon (e.g. crash@attempt:t=4)")
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.set_defaults(func=_cmd_loadgen)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream reader (e.g. ``| head``) closed the pipe; point
        # stdout at devnull so the interpreter's exit flush stays quiet.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
