"""Differential tests: sequential sweep vs. multiprocess period race.

For every loop in ``corpus/``, ``schedule_loop(jobs=2)`` must return the
identical achieved period and the identical ``is_rate_optimal_proven``
flag as the in-process :func:`repro.core.schedule_loop` — racing is a
pure wall-clock optimization, never a semantic change.

The corpus-wide sweeps (and everything under the pure-python ``bnb``
backend) are marked ``slow`` and excluded from the default tier-1 run;
a small smoke subset always runs.
"""

import pathlib

import pytest

from repro.core import schedule_loop, verify_schedule
from repro.corpusgen import default_families, generate_corpus
from repro.ddg.builders import parse_ddg
from repro.ddg.generators import GenParams
from repro.machine.presets import coreblocks, powerpc604
from repro.parallel import run_batch
from repro.store.tiering import clear_tiers

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "corpus"
FILES = sorted(CORPUS_DIR.glob("*.ddg"))
SMOKE_FILES = FILES[:4]

#: Loops whose ILPs stay small enough for the pure-python solver.
BNB_MAX_OPS = 8


@pytest.fixture(scope="module")
def machine():
    return powerpc604()


def _assert_equivalent(path, machine, backend, time_limit):
    ddg = parse_ddg(path.read_text(encoding="utf-8"))
    seq = schedule_loop(
        ddg, machine, backend=backend, time_limit_per_t=time_limit,
        max_extra=30,
    )
    par = schedule_loop(
        ddg, machine, backend=backend, time_limit_per_t=time_limit,
        max_extra=30, jobs=2,
    )
    assert par.achieved_t == seq.achieved_t, path.name
    assert par.is_rate_optimal_proven == seq.is_rate_optimal_proven, path.name
    if par.schedule is not None:
        verify_schedule(par.schedule)
    # The proof obligation rests on the same periods in both drivers:
    # every admissible period below the winner was dispatched, none
    # sits in a "cancelled" limbo.
    if par.schedule is not None:
        below = [
            a for a in par.attempts if a.t_period < par.achieved_t
        ]
        assert all(a.status != "cancelled" for a in below)


@pytest.mark.parametrize("path", SMOKE_FILES, ids=lambda p: p.stem)
def test_equivalence_smoke_highs(path, machine):
    _assert_equivalent(path, machine, "highs", 10.0)


@pytest.mark.slow
@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_equivalence_corpus_highs(path, machine):
    _assert_equivalent(path, machine, "highs", 10.0)


@pytest.mark.slow
@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_equivalence_corpus_bnb(path, machine):
    ddg = parse_ddg(path.read_text(encoding="utf-8"))
    if ddg.num_ops > BNB_MAX_OPS:
        pytest.skip(
            f"{path.name}: {ddg.num_ops} ops is beyond the pure-python "
            "solver's practical size"
        )
    _assert_equivalent(path, machine, "bnb", 20.0)


# ---------------------------------------------------------------------------
# Generated-corpus differential: sequential sweep vs. period race vs.
# store-warmed batch must all report the same achieved period and the
# same proven-optimality flag.  The sample is the seeded 50-loop corpus
# the issue pins (master seed 604, mixed families); a small slice runs
# in tier-1, the full sample and the ``bnb`` backend are ``slow``.
# ---------------------------------------------------------------------------

GEN_SAMPLE_SEED = 604
GEN_SAMPLE_SIZE = 50


def _generated_sample(machine):
    return generate_corpus(
        GEN_SAMPLE_SEED, machine,
        default_families(GEN_SAMPLE_SIZE, base=GenParams(max_ops=12)),
    )


@pytest.fixture
def fresh_store_state():
    clear_tiers()
    yield
    clear_tiers()


def _timed_out_below_winner(result):
    """True when a sub-winner period attempt died on the wall clock.

    The proven-optimality flag is then legitimately load-dependent: one
    driver may prove T-1 infeasible inside the limit while another,
    racing several periods on the same cores, times out on it.
    """
    if result.achieved_t is None:
        return True
    return any(
        a.status == "time_limit" and a.t_period < result.achieved_t
        for a in result.attempts
    )


def _assert_triple_equivalent(ddg, machine, backend, time_limit, store_root):
    seq = schedule_loop(
        ddg, machine, backend=backend, time_limit_per_t=time_limit,
        max_extra=30,
    )
    par = schedule_loop(
        ddg, machine, backend=backend, time_limit_per_t=time_limit,
        max_extra=30, jobs=2,
    )
    assert par.achieved_t == seq.achieved_t, ddg.name
    if not (_timed_out_below_winner(seq) or _timed_out_below_winner(par)):
        assert par.is_rate_optimal_proven == seq.is_rate_optimal_proven, \
            ddg.name
    if par.schedule is not None:
        verify_schedule(par.schedule)
    # Third leg: batch through a cold store, then again through the
    # now-warm store.  The cold run must agree with the sequential
    # sweep; the warm run replays whatever the cold run published, so
    # it must agree with the cold entry bit-for-bit on the flags.
    cold = warm = None
    for leg in ("cold", "warm"):
        report = run_batch(
            [ddg], machine, backend=backend, jobs=1,
            time_limit_per_t=time_limit, max_extra=30, store=store_root,
        )
        entry = report.entries[0]
        assert entry.error is None, (ddg.name, leg, entry.error)
        assert entry.result.achieved_t == seq.achieved_t, (ddg.name, leg)
        if leg == "cold":
            cold = entry.result
        else:
            warm = entry.result
    if not (_timed_out_below_winner(seq) or _timed_out_below_winner(cold)):
        assert cold.is_rate_optimal_proven == seq.is_rate_optimal_proven, \
            ddg.name
    if warm.schedule is not None and warm.store.hit:
        assert warm.is_rate_optimal_proven == cold.is_rate_optimal_proven, \
            ddg.name


def test_generated_differential_smoke(machine, tmp_path,
                                      fresh_store_state):
    for ddg in _generated_sample(machine)[:5]:
        _assert_triple_equivalent(
            ddg, machine, "highs", 10.0, tmp_path / "store"
        )


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["powerpc604", "coreblocks"])
def test_generated_differential_full_highs(preset, tmp_path,
                                           fresh_store_state):
    mach = {"powerpc604": powerpc604, "coreblocks": coreblocks}[preset]()
    for ddg in _generated_sample(mach):
        _assert_triple_equivalent(
            ddg, mach, "highs", 10.0, tmp_path / "store"
        )


@pytest.mark.slow
def test_generated_differential_full_bnb(machine, tmp_path,
                                         fresh_store_state):
    for ddg in _generated_sample(machine):
        if ddg.num_ops > BNB_MAX_OPS:
            continue
        _assert_triple_equivalent(
            ddg, machine, "bnb", 20.0, tmp_path / "store"
        )
