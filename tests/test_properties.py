"""Property-based tests over random DDGs (sequential + parallel drivers).

For seeded random loops from :mod:`repro.ddg.generators`, any schedule
either driver returns must:

* pass :func:`repro.core.verify_schedule` (the independent oracle),
* achieve ``T >= T_lb`` (no driver may beat the lower bound),
* report a non-negative ``delta_from_lb``,

and a proven-rate-optimal result must have actually proven every smaller
admissible period infeasible.  The parallel driver runs in-process
(``jobs=1``) for most seeds — the multiprocess path is exercised by
``tests/parallel/`` and the differential suite — keeping this file fast
enough for tier 1.
"""

import random

import pytest

from repro.core import (
    Formulation,
    FormulationOptions,
    schedule_loop,
    verify_schedule,
)
from repro.core.bounds import modulo_feasible_t
from repro.core.scheduler import HEURISTIC
from repro.ddg.generators import GeneratorConfig, random_ddg
from repro.ilp.solution import SolveStatus
from repro.machine.presets import powerpc604

SEEDS = list(range(12))
CONFIG = GeneratorConfig(min_ops=2, max_ops=12)


@pytest.fixture(scope="module")
def machine():
    return powerpc604()


def _random_loop(seed, machine):
    rng = random.Random(seed)
    return random_ddg(rng, machine, CONFIG, name=f"prop{seed}")


def _check_invariants(result, ddg, machine):
    assert result.bounds.t_lb >= 1
    if result.schedule is None:
        assert result.achieved_t is None
        assert result.delta_from_lb is None
        return
    verify_schedule(result.schedule)
    assert result.achieved_t >= result.bounds.t_lb
    assert result.delta_from_lb is not None
    assert result.delta_from_lb >= 0
    if result.is_rate_optimal_proven:
        for attempt in result.attempts:
            if attempt.t_period >= result.achieved_t:
                continue
            assert attempt.status in (
                SolveStatus.INFEASIBLE.value, "modulo_infeasible",
            )
            if attempt.status == "modulo_infeasible":
                assert not modulo_feasible_t(
                    ddg, machine, attempt.t_period
                )


@pytest.mark.parametrize("seed", SEEDS)
def test_sequential_driver_invariants(seed, machine):
    ddg = _random_loop(seed, machine)
    result = schedule_loop(ddg, machine, time_limit_per_t=10.0,
                           max_extra=20)
    assert result.schedule is not None, ddg.name
    _check_invariants(result, ddg, machine)


@pytest.mark.parametrize("seed", SEEDS)
def test_parallel_driver_invariants(seed, machine):
    ddg = _random_loop(seed, machine)
    jobs = 2 if seed < 3 else 1  # a few seeds exercise the real pool
    result = schedule_loop(ddg, machine, time_limit_per_t=10.0,
                           max_extra=20, jobs=jobs)
    assert result.schedule is not None, ddg.name
    _check_invariants(result, ddg, machine)


@pytest.mark.parametrize("seed", SEEDS[:6])
def test_drivers_agree_on_random_loops(seed, machine):
    ddg = _random_loop(seed, machine)
    seq = schedule_loop(ddg, machine, time_limit_per_t=10.0, max_extra=20)
    par = schedule_loop(ddg, machine, time_limit_per_t=10.0, max_extra=20,
                        jobs=2)
    assert par.achieved_t == seq.achieved_t
    assert par.is_rate_optimal_proven == seq.is_rate_optimal_proven


def _verdict(status):
    """``True`` (schedulable), ``False`` (proven not) or ``None`` (no
    solver verdict: budget expired, or the period was never modeled)."""
    if status in (SolveStatus.OPTIMAL.value, SolveStatus.FEASIBLE.value,
                  HEURISTIC):
        return True
    if status == SolveStatus.INFEASIBLE.value:
        return False
    return None


def _assert_presolve_equivalent(ddg, machine, backend, time_limit_per_t,
                                max_extra):
    """Presolve must not change the achieved T or any per-period verdict.

    The sweep (presolve always on) is replayed period by period against
    the paper-literal formulation (``FormulationOptions(presolve=False)``)
    on the same backend and budget.  Attempts that expired their time
    budget on either side are exempt: a presolve pass that turns a
    timed-out model into a solved one is a speedup, not a disagreement.
    Whenever both sides reached a definitive verdict at a period, those
    verdicts must match exactly.
    """
    on = schedule_loop(ddg, machine, backend=backend,
                       time_limit_per_t=time_limit_per_t,
                       max_extra=max_extra)
    for attempt in on.attempts:
        if attempt.status == "modulo_infeasible":
            continue
        literal = Formulation(ddg, machine, attempt.t_period,
                              FormulationOptions(presolve=False))
        literal.build()
        solution = literal.solve(backend=backend,
                                 time_limit=time_limit_per_t)
        v_on = _verdict(attempt.status)
        v_off = _verdict(solution.status.value)
        if v_on is not None and v_off is not None:
            assert v_on == v_off, (ddg.name, attempt.t_period)
        if solution.status.has_solution:
            verify_schedule(literal.extract(solution))
    if on.schedule is not None:
        verify_schedule(on.schedule)


@pytest.mark.parametrize("seed", SEEDS[:8])
def test_presolve_differential_highs(seed, machine):
    ddg = _random_loop(seed, machine)
    _assert_presolve_equivalent(
        ddg, machine, "highs", time_limit_per_t=10.0, max_extra=20
    )


@pytest.mark.parametrize("seed", SEEDS[:4])
def test_presolve_differential_sat(seed, machine):
    ddg = _random_loop(seed, machine)
    _assert_presolve_equivalent(
        ddg, machine, "sat", time_limit_per_t=10.0, max_extra=20
    )


@pytest.mark.slow
@pytest.mark.parametrize("backend", ("highs", "sat"))
def test_presolve_differential_corpus(machine, backend):
    """>= 50 random loops per backend: the sweep and the paper-literal
    formulation must reach identical per-period verdicts."""
    for seed in range(50):
        rng = random.Random(5000 + seed)
        ddg = random_ddg(rng, machine, CONFIG, name=f"corpus{seed}")
        _assert_presolve_equivalent(
            ddg, machine, backend, time_limit_per_t=15.0, max_extra=20
        )
