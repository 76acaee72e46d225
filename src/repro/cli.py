"""Command-line interface: ``python -m repro <command> ...``.

Commands
    schedule     schedule one loop (named kernel or DDG text file)
    batch        schedule a corpus of .ddg files across worker processes
    gen          emit a seeded, manifest-reproducible loop corpus
    profile      compare presolve on/off model sizes and phase timings
    cache        inspect/maintain the persistent schedule store
    motivating   print the paper's §2 artifacts (Figures 1-4, Tables 1-2)
    suite        run a synthetic corpus and print Table 4-style buckets
    list         show available kernels and machine presets
    serve        run the HTTP solve daemon (submit/poll over JSON)
    loadgen      drive a serve daemon with corpus load, write BENCH doc
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.baselines import iterative_modulo_schedule, list_schedule
from repro.codegen import emit_assembly, flat_listing
from repro.core import lower_bounds, schedule_loop
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


def _backends_of(args):
    """Parse and validate ``--backends 'highs,bnb,sat'`` (or None).

    Rejected here, at the CLI boundary — a malformed roster must never
    reach the race and fail mid-dispatch.
    """
    from repro.core.errors import SchedulingError
    from repro.parallel.race import _validate_roster

    raw = getattr(args, "backends", None)
    if raw is None:
        return None
    roster = [name.strip() for name in raw.split(",") if name.strip()]
    try:
        return _validate_roster(roster, "feasibility")
    except SchedulingError as exc:
        raise SystemExit(f"--backends: {exc}")


def _print_store_line(result) -> None:
    """One-line store outcome for schedule/race results (when enabled)."""
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
    from repro.supervision import graceful_interrupts

    machine = _machine_of(args)
    ddg = _load_ddg(args)
    ddg.validate_against(machine)
    print(render.ascii_ddg(ddg, machine))
    bounds = lower_bounds(ddg, machine)
    print(f"T_dep={bounds.t_dep}  T_res={bounds.t_res}  T_lb={bounds.t_lb}")
    with graceful_interrupts():
        result = schedule_loop(
            ddg,
            machine,
            backend=args.backend,
            objective=args.objective,
            time_limit_per_t=args.time_limit,
            max_extra=args.max_extra,
            presolve=not args.no_presolve,
            warmstart=not args.no_warmstart,
            supervision=_policy_of(args),
            store=args.store,
        )
    print(result.summary())
    _print_store_line(result)
    if args.explain:
        from repro.core.explain import explain_infeasibility

        for attempt in result.attempts:
            if attempt.status in ("optimal", "feasible"):
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
                presolve=not args.no_presolve,
                jobs=args.jobs,
                warmstart=not args.no_warmstart,
                policy=_policy_of(args),
                journal=args.journal,
                resume=args.resume,
                store=args.store,
                backends=_backends_of(args),
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


def _cmd_race(args) -> int:
    from repro.parallel import race_periods
    from repro.supervision import graceful_interrupts

    machine = _machine_of(args)
    ddg = _load_ddg(args)
    ddg.validate_against(machine)
    from repro.core.errors import SchedulingError

    try:
        with graceful_interrupts():
            result = race_periods(
                ddg,
                machine,
                backend=args.backend,
                time_limit_per_t=args.time_limit,
                max_extra=args.max_extra,
                presolve=not args.no_presolve,
                jobs=args.jobs,
                warmstart=not args.no_warmstart,
                policy=_policy_of(args),
                store=args.store,
                backends=_backends_of(args),
            )
    except SchedulingError as exc:
        raise SystemExit(f"race: {exc}")
    print(result.summary())
    _print_store_line(result)
    if result.portfolio is not None:
        port = result.portfolio
        print(
            f"  portfolio [{', '.join(port['backends'])}]: "
            f"winner={port['winner_backend'] or 'none'}, "
            f"{port['killed_running']} loser(s) killed, "
            f"{port['cancelled_queued']} cancelled in queue"
        )
    for attempt in result.attempts:
        tag = f" [{attempt.backend}]" if attempt.backend else ""
        print(f"  T={attempt.t_period}: {attempt.status}{tag} "
              f"({attempt.seconds:.2f}s)")
    if result.schedule is None:
        print("no schedule found within the budget")
        return 1
    print()
    print(result.schedule.render_kernel())
    return 0


def _cmd_profile(args) -> int:
    """Build + solve one loop with presolve on and off, side by side."""
    from repro.core.bounds import modulo_feasible_t
    from repro.core.scheduler import AttemptConfig, attempt_period

    machine = _machine_of(args)
    ddg = _load_ddg(args)
    ddg.validate_against(machine)
    bounds = lower_bounds(ddg, machine)
    print(
        f"{ddg.name}: {ddg.num_ops} ops, {ddg.num_deps} deps  "
        f"(T_dep={bounds.t_dep} T_res={bounds.t_res} T_lb={bounds.t_lb})"
    )

    if args.t is not None:
        t_period = args.t
        if not modulo_feasible_t(ddg, machine, t_period):
            raise SystemExit(
                f"profile: T={t_period} violates the modulo scheduling "
                f"constraint for machine {machine.name!r}"
            )
    else:
        t_period = next(
            (
                t for t in range(
                    bounds.t_lb, bounds.t_lb + args.max_extra + 1
                )
                if modulo_feasible_t(ddg, machine, t)
            ),
            None,
        )
        if t_period is None:
            raise SystemExit(
                "profile: no admissible period in "
                f"[{bounds.t_lb}, {bounds.t_lb + args.max_extra}]"
            )

    runs = {}
    for label, presolve in (("presolve on", True), ("presolve off", False)):
        config = AttemptConfig(
            backend=args.backend,
            objective=args.objective,
            time_limit=args.time_limit,
            presolve=presolve,
        )
        outcome = attempt_period(ddg, machine, t_period, config)
        runs[label] = outcome.attempt
        _print_attempt_profile(t_period, label, outcome.attempt)

    on, off = runs["presolve on"], runs["presolve off"]
    if on.status != off.status:
        print()
        print(
            f"WARNING: status differs (on={on.status} off={off.status}) "
            "— check time limits before trusting the comparison"
        )
        return 1
    rows_off = off.model_stats["constraints"]
    time_off = off.model_stats["total_seconds"]
    if rows_off and time_off:
        rows_cut = 1.0 - on.model_stats["constraints"] / rows_off
        time_cut = 1.0 - on.model_stats["total_seconds"] / time_off
        print()
        print(
            f"presolve: {rows_cut:.1%} fewer rows, "
            f"{time_cut:.1%} less build+lower+solve time"
        )

    # Incremental sweep: rebuild the same attempt against the now-warm
    # SweepContext, so the reuse the T-sweep gets per follow-up period
    # is visible next to the cold numbers above.
    config = AttemptConfig(
        backend=args.backend,
        objective=args.objective,
        time_limit=args.time_limit,
    )
    outcome = attempt_period(ddg, machine, t_period, config)
    _print_attempt_profile(t_period, "warm context", outcome.attempt)
    _print_cache_counters()
    return 0


def _print_attempt_profile(t_period: int, label: str, attempt) -> None:
    """One attempt's model sizes, reuse counters and phase timings."""
    stats = attempt.model_stats
    print()
    via = f" via {attempt.backend}" if attempt.backend else ""
    print(f"T={t_period}, {label}: {attempt.status}{via}")
    if "cut_skip" in stats:
        print(f"  settled by recycled cut: {stats['cut_skip']} (no solve)")
        return
    print(
        f"  model     {stats['variables']} vars, "
        f"{stats['constraints']} rows, {stats['nonzeros']} nnz"
    )
    print(
        f"  eliminated  {stats['eliminated_variables']} vars, "
        f"{stats['eliminated_constraints']} rows, "
        f"{stats['eliminated_nonzeros']} nnz"
    )
    print(
        f"  reuse     {stats.get('reused_rows', 0)} rows reused, "
        f"{stats.get('rebuilt_rows', stats['constraints'])} rebuilt "
        f"(analysis {stats.get('analysis_seconds', 0.0):.4f}s)"
    )
    print(
        f"  phases    presolve {stats['presolve_seconds']:.4f}s  "
        f"build {stats['build_seconds']:.4f}s  "
        f"lower {stats['lower_seconds']:.4f}s  "
        f"solve {stats['solve_seconds']:.4f}s  "
        f"verify {stats.get('verify_seconds', 0.0):.4f}s  "
        f"total {stats['total_seconds']:.4f}s"
    )
    if "sat_encode_seconds" in stats:
        print(
            f"  sat       encode {stats['sat_encode_seconds']:.4f}s  "
            f"search {stats.get('sat_search_seconds', 0.0):.4f}s  "
            f"decode {stats.get('sat_decode_seconds', 0.0):.4f}s  "
            f"({stats.get('sat_vars', 0):.0f} vars, "
            f"{stats.get('sat_clauses', 0):.0f} clauses)"
        )
        print(
            f"  sat       {stats.get('sat_conflicts', 0):.0f} conflicts, "
            f"{stats.get('sat_decisions', 0):.0f} decisions, "
            f"{stats.get('sat_learned_clauses', 0):.0f} learned clauses "
            f"({stats.get('sat_restarts', 0):.0f} restarts)"
        )


def _print_cache_counters() -> None:
    """In-process reuse counters: store tiers + sweep-context registry."""
    from repro.core.incremental import incremental_stats
    from repro.store.tiering import tier_stats

    print()
    print("in-process caches (this run):")
    for name, counters in tier_stats().items():
        total = counters["hits"] + counters["misses"]
        print(f"  {name:<12} {counters['hits']}/{total} hit(s), "
              f"{counters['size']} entries")
    counters = incremental_stats()
    print(
        f"  {'incremental':<12} {counters['contexts']} context(s), "
        f"{counters['analysis_hits']} analysis hit(s), "
        f"{counters['cuts_harvested']} cut(s) banked, "
        f"{counters['attempts_skipped']} attempt(s) cut-skipped"
    )


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
            presolve=not args.no_presolve,
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


def _cmd_suite(args) -> int:
    from repro.experiments.table4 import run_table4

    machine = presets.by_name(args.machine)
    loops = generators.suite(args.count, machine, seed=args.seed)
    table = run_table4(
        loops,
        machine,
        backend=args.backend,
        time_limit_per_t=args.time_limit,
    )
    print(table.render())
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
    import json as _json
    from pathlib import Path

    from repro.serve.loadgen import (
        closed_loop,
        corpus_mix,
        open_loop,
        run_benchmark,
    )

    corpus = sorted(Path(args.corpus).glob("*.ddg"))
    if not corpus:
        raise SystemExit(f"no .ddg files under {args.corpus}")
    if args.port is None:
        doc = run_benchmark(
            corpus, args.machine, Path(args.out),
            requests=args.requests,
            concurrency=args.concurrency,
            workers=args.workers,
            open_rate=args.rate,
            time_limit=args.time_limit,
            backend=args.backend,
            warmstart=not args.no_warmstart,
            kill_restart=not args.no_kill_restart,
            faults=args.faults,
            seed=args.seed,
        )
        lost = (doc.get("restart") or {}).get("lost_jobs", [])
        print(
            f"loadgen: {args.requests} request(s), "
            f"coalesce_hits={doc['coalesce_hits']}, "
            f"error_rate={doc['error_rate']:.3f}, "
            f"lost_jobs={len(lost)} -> {args.out}"
        )
        return 1 if lost else 0
    from repro.serve.client import ServeClient
    from repro.supervision.atomicio import atomic_write_json

    client = ServeClient(args.host, args.port)
    texts = corpus_mix(corpus, args.requests, seed=args.seed)
    split = max(1, len(texts) // 2)
    closed = closed_loop(
        client, texts[:split], args.machine,
        concurrency=args.concurrency, backend=args.backend,
        warmstart=not args.no_warmstart,
    )
    opened = open_loop(
        client, texts[split:], args.machine, rate=args.rate,
        backend=args.backend, warmstart=not args.no_warmstart,
    )
    doc = {
        "bench": "serve_loadgen",
        "machine": args.machine,
        "requests": args.requests,
        "phases": [closed.to_json_dict(), opened.to_json_dict()],
        "daemon_stats": client.stats(),
    }
    atomic_write_json(args.out, doc)
    print(_json.dumps(
        {"phases": doc["phases"]}, indent=2, sort_keys=True
    ))
    return 0


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
    p_schedule.add_argument("--backend", default="auto",
                            choices=("auto", "highs", "bnb", "sat"))
    p_schedule.add_argument("--objective", default="min_sum_t",
                            choices=("feasibility", "min_sum_t", "min_fu",
                                     "min_buffers", "min_lifetimes"))
    p_schedule.add_argument("--time-limit", type=float, default=30.0)
    p_schedule.add_argument("--max-extra", type=int, default=10)
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
    p_schedule.add_argument("--no-presolve", action="store_true",
                            help="disable the ILP presolve pass")
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
    p_batch.add_argument("--backend", default="auto",
                         choices=("auto", "highs", "bnb", "sat",
                                  "portfolio"))
    p_batch.add_argument("--backends", metavar="LIST",
                         help="explicit portfolio roster, e.g. "
                              "'highs,bnb,sat' (implies "
                              "--backend portfolio)")
    p_batch.add_argument("--time-limit", type=float, default=10.0,
                         help="per-period solver budget (seconds)")
    p_batch.add_argument("--max-extra", type=int, default=10)
    p_batch.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: CPU count)")
    p_batch.add_argument("--out", metavar="PATH",
                         help="write the JSON report to this file")
    p_batch.add_argument("--json", action="store_true",
                         help="print the JSON report instead of the table")
    p_batch.add_argument("--no-presolve", action="store_true",
                         help="disable the ILP presolve pass")
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

    p_race = sub.add_parser(
        "race", help="race candidate periods of one loop concurrently"
    )
    p_race.add_argument("--kernel", help="named kernel (see 'list')")
    p_race.add_argument("--ddg", help="path to a DDG text file")
    p_race.add_argument("--source",
                        help="path to a loop-DSL source file")
    p_race.add_argument("--classes", metavar="MAP",
                        help="operator->op-class overrides for --source")
    p_race.add_argument("--machine", default="motivating")
    p_race.add_argument("--machine-file", metavar="PATH")
    p_race.add_argument("--backend", default="auto",
                        choices=("auto", "highs", "bnb", "sat",
                                 "portfolio"))
    p_race.add_argument("--backends", metavar="LIST",
                        help="explicit portfolio roster, e.g. "
                             "'highs,bnb,sat' (implies "
                             "--backend portfolio)")
    p_race.add_argument("--time-limit", type=float, default=30.0)
    p_race.add_argument("--max-extra", type=int, default=10)
    p_race.add_argument("--jobs", type=int, default=None)
    p_race.add_argument("--no-presolve", action="store_true",
                        help="disable the ILP presolve pass")
    p_race.add_argument("--no-warmstart", action="store_true",
                        help="disable the heuristic warm-start pre-pass")
    p_race.add_argument("--store", metavar="DIR",
                        help="persistent schedule store directory "
                             "(hits skip the race entirely)")
    _add_supervision_flags(p_race)
    p_race.set_defaults(func=_cmd_race)

    p_profile = sub.add_parser(
        "profile",
        help="model sizes and phase timings with presolve on vs off",
    )
    p_profile.add_argument("--kernel", help="named kernel (see 'list')")
    p_profile.add_argument("--ddg", help="path to a DDG text file")
    p_profile.add_argument("--source",
                           help="path to a loop-DSL source file")
    p_profile.add_argument("--classes", metavar="MAP",
                           help="operator->op-class overrides for --source")
    p_profile.add_argument("--machine", default="motivating")
    p_profile.add_argument("--machine-file", metavar="PATH")
    p_profile.add_argument("--backend", default="auto",
                           choices=("auto", "highs", "bnb", "sat"))
    p_profile.add_argument("--objective", default="feasibility",
                           choices=("feasibility", "min_sum_t", "min_fu",
                                    "min_buffers", "min_lifetimes"))
    p_profile.add_argument("--t", type=int, default=None,
                           help="profile this period (default: first "
                                "admissible period at or above T_lb)")
    p_profile.add_argument("--time-limit", type=float, default=30.0)
    p_profile.add_argument("--max-extra", type=int, default=10)
    p_profile.set_defaults(func=_cmd_profile)

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
    c_warm.add_argument("--backend", default="auto",
                        choices=("auto", "highs", "bnb", "sat"))
    c_warm.add_argument("--objective", default="feasibility",
                        choices=("feasibility", "min_sum_t", "min_fu",
                                 "min_buffers", "min_lifetimes"))
    c_warm.add_argument("--time-limit", type=float, default=10.0)
    c_warm.add_argument("--max-extra", type=int, default=10)
    c_warm.add_argument("--no-presolve", action="store_true")
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

    p_suite = sub.add_parser("suite", help="run a synthetic corpus")
    p_suite.add_argument("--count", type=int, default=100)
    p_suite.add_argument("--seed", type=int, default=604)
    p_suite.add_argument("--machine", default="powerpc604")
    p_suite.add_argument("--backend", default="auto")
    p_suite.add_argument("--time-limit", type=float, default=10.0)
    p_suite.set_defaults(func=_cmd_suite)

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
        help="drive a serve daemon with corpus load",
        description="Closed+open-loop load generator for the serve "
        "daemon.  With --manage (default) it boots its own daemon, "
        "runs the kill-and-restart differential and writes a BENCH "
        "document; with --port it targets a daemon you started.",
    )
    p_loadgen.add_argument("--corpus", default="corpus", metavar="DIR",
                           help=".ddg corpus directory to draw from")
    p_loadgen.add_argument("--machine", default="powerpc604")
    p_loadgen.add_argument("--requests", type=int, default=30)
    p_loadgen.add_argument("--out", default="BENCH_serve.json",
                           metavar="PATH")
    p_loadgen.add_argument("--workers", type=int, default=2,
                           help="daemon worker processes (managed "
                                "mode)")
    p_loadgen.add_argument("--concurrency", type=int, default=4,
                           help="closed-loop client threads")
    p_loadgen.add_argument("--rate", type=float, default=8.0,
                           help="open-loop arrival rate "
                                "(requests/second)")
    p_loadgen.add_argument("--time-limit", type=float, default=5.0)
    p_loadgen.add_argument("--backend", default="auto",
                           choices=("auto", "highs", "bnb", "sat",
                                    "portfolio"))
    p_loadgen.add_argument("--no-warmstart", action="store_true",
                           help="submit with warmstart off so solves "
                                "reach the ILP attempt sites (where "
                                "attempt-site faults fire)")
    p_loadgen.add_argument("--faults", metavar="SPEC",
                           help="REPRO_FAULTS spec injected into the "
                                "managed daemon (e.g. "
                                "crash@attempt:t=4)")
    p_loadgen.add_argument("--no-kill-restart", action="store_true",
                           help="skip the SIGKILL-mid-run restart "
                                "differential (managed mode)")
    p_loadgen.add_argument("--seed", type=int, default=0)
    p_loadgen.add_argument("--port", type=int, default=None,
                           help="target an already-running daemon "
                                "instead of booting one")
    p_loadgen.add_argument("--host", default="127.0.0.1")
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
