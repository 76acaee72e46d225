"""Differential tests: incremental sweep on vs. off, byte-identical.

The sweep context (shared :class:`~repro.core.incremental.SweepContext`,
recycled infeasibility cuts, T-independent analysis reuse) is a pure
wall-clock optimization: over a seeded 50-loop corpus (master seed 604,
mixed families), switching it off must leave every observable result
field untouched — achieved period, proven-optimality flag, lower
bounds, per-attempt statuses, and the schedule itself (start cycles and
FU colors) — on both solver backends.  The "off" leg replaces
:func:`repro.core.incremental.context_for` with one that returns None,
so every attempt builds cold.

Cut-skipped attempts report ``infeasible``, the same terminal status
the cold path reaches by solving, so the status vectors compare equal
by construction; the assertions below check that end to end.

The corpus-wide sweeps (and everything under the pure-python ``bnb``
backend) are marked ``slow`` and excluded from the default tier-1 run;
a small smoke subset always runs.
"""

import pathlib

import pytest

from repro.core import incremental, schedule_loop, verify_schedule
from repro.core.incremental import clear_contexts
from repro.corpusgen import default_families, generate_corpus
from repro.ddg.builders import parse_ddg
from repro.ddg.generators import GenParams
from repro.machine.presets import coreblocks, motivating_machine, powerpc604
from repro.store.tiering import clear_tiers

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"
FILES = sorted(CORPUS_DIR.glob("*.ddg"))
SMOKE_FILES = FILES[:4]

#: Loops whose ILPs stay small enough for the pure-python solver.
BNB_MAX_OPS = 8

GEN_SAMPLE_SEED = 604
GEN_SAMPLE_SIZE = 50


@pytest.fixture(scope="module")
def machine():
    return powerpc604()


@pytest.fixture(autouse=True)
def fresh_state():
    clear_contexts()
    clear_tiers()
    yield
    clear_contexts()
    clear_tiers()


def _generated_sample(machine):
    return generate_corpus(
        GEN_SAMPLE_SEED, machine,
        default_families(GEN_SAMPLE_SIZE, base=GenParams(max_ops=12)),
    )


def _no_context(ddg, machine):
    return None


def _result_fields(result):
    """Everything the sweep context is forbidden to change."""
    return {
        "achieved_t": result.achieved_t,
        "proven": result.is_rate_optimal_proven,
        "t_dep": result.bounds.t_dep,
        "t_res": result.bounds.t_res,
        "statuses": [(a.t_period, a.status) for a in result.attempts],
        "starts": result.schedule.starts if result.schedule else None,
        "colors": (sorted(result.schedule.colors.items())
                   if result.schedule else None),
    }


def _assert_identical(ddg, machine, backend, time_limit):
    # Each leg starts from a cold per-process context registry so the
    # "off" run cannot be polluted and the "on" run's reuse is entirely
    # intra-sweep — the configuration the bench measures.
    clear_contexts()
    on = schedule_loop(
        ddg, machine, backend=backend, time_limit_per_t=time_limit,
        max_extra=30,
    )
    clear_contexts()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(incremental, "context_for", _no_context)
        off = schedule_loop(
            ddg, machine, backend=backend, time_limit_per_t=time_limit,
            max_extra=30,
        )
    assert _result_fields(on) == _result_fields(off), ddg.name
    if on.schedule is not None:
        verify_schedule(on.schedule)
    # No cut may fire with the context disabled.
    assert not any(
        "cut_skip" in a.model_stats for a in off.attempts
    ), ddg.name


@pytest.mark.parametrize("path", SMOKE_FILES, ids=lambda p: p.stem)
def test_incremental_smoke_highs(path, machine):
    _assert_identical(
        parse_ddg(path.read_text(encoding="utf-8")), machine, "highs", 10.0
    )


def test_incremental_smoke_bnb(machine):
    for path in FILES:
        ddg = parse_ddg(path.read_text(encoding="utf-8"))
        if ddg.num_ops <= BNB_MAX_OPS:
            _assert_identical(ddg, machine, "bnb", 20.0)
            break
    else:
        pytest.skip("no corpus loop small enough for the bnb solver")


def test_incremental_smoke_motivating_machine():
    """The hazard-heavy motivating machine exercises coloring + repair."""
    mach = motivating_machine()
    for ddg in _generated_sample(mach)[:3]:
        if ddg.num_ops <= BNB_MAX_OPS:
            _assert_identical(ddg, mach, "bnb", 20.0)


@pytest.mark.slow
@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_incremental_corpus_highs(path, machine):
    _assert_identical(
        parse_ddg(path.read_text(encoding="utf-8")), machine, "highs", 10.0
    )


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["powerpc604", "coreblocks"])
def test_incremental_generated_full_highs(preset):
    mach = {"powerpc604": powerpc604, "coreblocks": coreblocks}[preset]()
    for ddg in _generated_sample(mach):
        _assert_identical(ddg, mach, "highs", 10.0)


@pytest.mark.slow
def test_incremental_generated_full_bnb(machine):
    for ddg in _generated_sample(machine):
        if ddg.num_ops > BNB_MAX_OPS:
            continue
        _assert_identical(ddg, machine, "bnb", 20.0)


@pytest.mark.slow
def test_incremental_generated_full_bnb_motivating():
    mach = motivating_machine()
    for ddg in _generated_sample(mach):
        if ddg.num_ops > BNB_MAX_OPS:
            continue
        _assert_identical(ddg, mach, "bnb", 20.0)
