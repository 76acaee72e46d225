"""The ``backend="sat"`` entry point, differentially against the ILP
backends.

Agreement is structural (every decoded model is re-checked against the
ILP rows before being returned), so these tests focus on the status
surface: SAT and the ILP backends must return the same
feasible/infeasible verdict per (loop, T), and the Solution metadata
(stats, budget clamps, warm-start short-circuit) must round-trip.
"""

import pytest

from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.scheduler import AttemptConfig, attempt_period
from repro.core.verify import verify_schedule
from repro.ddg.generators import suite
from repro.ddg.kernels import motivating_example
from repro.ilp import Model
from repro.ilp.errors import SolverError
from repro.ilp.solution import SolveStatus
from repro.ilp.solve import set_process_time_budget, solve
from repro.machine.presets import motivating_machine
from repro.sat.backend import SAT_CARD_ENV
from repro.sat.errors import SatEncodeError


@pytest.fixture
def machine():
    return motivating_machine()


@pytest.fixture(autouse=True)
def _clean_budget():
    yield
    set_process_time_budget(None)


def _formulation(ddg, machine, t_period, **options):
    f = Formulation(
        ddg, machine, t_period, FormulationOptions(**options)
    )
    f.build()
    return f


class TestStatusSurface:
    def test_infeasible_period_maps_to_infeasible(self, machine):
        f = _formulation(motivating_example(), machine, 3)
        solution = solve(f.model, backend="sat")
        assert solution.status == SolveStatus.INFEASIBLE
        assert solution.backend == "sat"

    def test_feasible_period_maps_to_optimal(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        solution = solve(f.model, backend="sat")
        assert solution.status == SolveStatus.OPTIMAL
        assert solution.values

    def test_phase_stats_recorded(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        solution = solve(f.model, backend="sat")
        for key in (
            "sat_encode_seconds",
            "sat_search_seconds",
            "sat_decode_seconds",
            "sat_vars",
            "sat_clauses",
            "sat_conflicts",
            "sat_learned_clauses",
        ):
            assert key in solution.stats, key

    def test_bare_model_rejected(self):
        m = Model("bare")
        x = m.add_var("x", lb=0, ub=1, integer=True)
        m.add(x >= 1)
        m.minimize(x)
        with pytest.raises(SolverError, match="bare"):
            solve(m, backend="sat")

    def test_non_feasibility_objective_rejected(self, machine):
        f = _formulation(
            motivating_example(), machine, 4, objective="min_sum_t"
        )
        with pytest.raises((SatEncodeError, SolverError),
                           match="feasibility-only"):
            solve(f.model, backend="sat")


class TestAttemptPeriodIntegration:
    @pytest.fixture(autouse=True)
    def _cold_contexts(self):
        # A warm SweepContext from earlier tests can settle T=3 via a
        # recycled cut before any backend runs (backend stays "");
        # these tests are about the sat backend actually answering.
        from repro.core.incremental import clear_contexts

        clear_contexts()
        yield
        clear_contexts()

    def test_attempt_carries_backend_and_verifies(self, machine):
        outcome = attempt_period(
            motivating_example(), machine, 4,
            AttemptConfig(backend="sat"),
        )
        assert outcome.attempt.status == "optimal"
        assert outcome.attempt.backend == "sat"
        verify_schedule(outcome.schedule)

    def test_infeasible_attempt(self, machine):
        outcome = attempt_period(
            motivating_example(), machine, 3,
            AttemptConfig(backend="sat"),
        )
        assert outcome.attempt.status == "infeasible"
        assert outcome.attempt.backend == "sat"


class TestDifferentialAgainstIlp:
    @pytest.mark.parametrize("ilp_backend", ["auto", "bnb"])
    def test_verdicts_agree_on_seeded_suite(self, machine, ilp_backend):
        checked = 0
        for ddg in suite(6, machine, seed=604):
            bounds = lower_bounds(ddg, machine)
            for t in range(bounds.t_lb, bounds.t_lb + 3):
                if not modulo_feasible_t(ddg, machine, t):
                    continue
                f = _formulation(ddg, machine, t)
                sat = solve(f.model, backend="sat", time_limit=30.0)
                ilp = solve(
                    f.model, backend=ilp_backend, time_limit=30.0
                )
                assert (
                    sat.status.has_solution == ilp.status.has_solution
                ), f"{ddg.name} T={t}: sat={sat.status} ilp={ilp.status}"
                checked += 1
                break  # first admissible T per loop keeps this fast
        assert checked >= 4

    @pytest.mark.parametrize("card", ["sequential", "totalizer"])
    def test_card_env_changes_encoding_not_verdict(
        self, machine, card, monkeypatch
    ):
        ddg = motivating_example()
        baseline = {}
        for t in (3, 4):
            f = _formulation(ddg, machine, t)
            baseline[t] = solve(f.model, backend="sat").status
        monkeypatch.setenv(SAT_CARD_ENV, card)
        for t in (3, 4):
            f = _formulation(ddg, machine, t)
            solution = solve(f.model, backend="sat")
            assert solution.status == baseline[t], f"card={card} T={t}"

    def test_bad_card_env_raises(self, machine, monkeypatch):
        monkeypatch.setenv(SAT_CARD_ENV, "bogus")
        f = _formulation(motivating_example(), machine, 4)
        with pytest.raises((SatEncodeError, SolverError)):
            solve(f.model, backend="sat")


class TestWarmStartAndMemo:
    def test_valid_start_short_circuits(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        incumbent = solve(f.model, backend="sat")
        assert incumbent.status == SolveStatus.OPTIMAL
        again = solve(
            f.model, backend="sat", mip_start=incumbent.values
        )
        assert again.status == SolveStatus.OPTIMAL
        assert again.stats.get("sat_warm_shortcircuit") == 1.0

    def test_invalid_start_still_solves(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        bogus = {var: 0.0 for var in f.model.variables}
        solution = solve(f.model, backend="sat", mip_start=bogus)
        assert solution.status == SolveStatus.OPTIMAL
        assert "sat_warm_shortcircuit" not in solution.stats


class TestBudgetClamp:
    def test_process_budget_recorded_on_solution(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        set_process_time_budget(5.0)
        solution = solve(f.model, backend="sat", time_limit=60.0)
        assert solution.effective_time_limit == 5.0
        assert solution.time_limit_clamped

    def test_unclamped_limit_not_flagged(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        solution = solve(f.model, backend="sat", time_limit=60.0)
        assert solution.effective_time_limit == 60.0
        assert not solution.time_limit_clamped

    def test_clamp_flows_into_attempt_stats(self, machine):
        set_process_time_budget(5.0)
        outcome = attempt_period(
            motivating_example(), machine, 4,
            AttemptConfig(backend="sat", time_limit=60.0),
        )
        stats = outcome.attempt.model_stats
        assert stats.get("effective_time_limit") == 5.0
        assert stats.get("time_limit_clamped") == 1.0
