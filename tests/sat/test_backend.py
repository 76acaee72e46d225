"""The ``backend="sat"`` entry point, differentially against the ILP
backends.

Agreement is structural (every decoded model is re-checked against the
ILP rows before being returned), so these tests focus on the status
surface: SAT and the ILP backends must return the same
feasible/infeasible verdict per (loop, T), and the Solution metadata
(stats, budget clamps, warm-start short-circuit) must round-trip.
"""

import pathlib

import pytest

from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.scheduler import AttemptConfig, attempt_period
from repro.core.verify import verify_schedule
from repro.core.warmstart import compute_warmstart, warmstart_assignment
from repro.ddg.builders import parse_ddg
from repro.ddg.generators import suite
from repro.ddg.kernels import motivating_example
from repro.ilp import Model
from repro.ilp.errors import SolverError
from repro.ilp.solution import SolveStatus
from repro.ilp.solve import solve
from repro.machine.presets import motivating_machine, powerpc604
from repro.sat import cardinality
from repro.sat.encode import encode_formulation
from repro.sat.errors import SatEncodeError

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "corpus"


@pytest.fixture
def machine():
    return motivating_machine()


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

    def test_valid_start_does_not_bypass_the_objective_check(self):
        # A valid warm start proves feasibility, not min_fu optimality:
        # the backend must refuse rather than report optimal, gap 0.
        ddg = parse_ddg((CORPUS / "loop0000.ddg").read_text())
        machine = powerpc604()
        ws = compute_warmstart(ddg, machine, 10)
        f = _formulation(ddg, machine, ws.ii, objective="min_fu")
        start = warmstart_assignment(f, ws.schedule)
        assert start is not None
        with pytest.raises(SatEncodeError, match="feasibility-only"):
            solve(f.model, backend="sat", mip_start=start)


class TestAttemptPeriodIntegration:
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

    @pytest.mark.parametrize("card,min_lits", [
        pytest.param("sequential", 10**9, id="sequential"),
        pytest.param("totalizer", 0, id="totalizer"),
    ])
    def test_card_env_changes_encoding_not_verdict(
        self, machine, card, min_lits, monkeypatch
    ):
        """Forcing either capacity encoding (through the size threshold
        that picks it) changes the CNF, never the verdict."""
        ddg = motivating_example()
        baseline = {}
        for t in (3, 4):
            f = _formulation(ddg, machine, t)
            baseline[t] = solve(f.model, backend="sat").status
        monkeypatch.setattr(cardinality, "_TOTALIZER_MIN_LITS", min_lits)
        for t in (3, 4):
            f = _formulation(ddg, machine, t)
            assert card in encode_formulation(f).card_encodings
            solution = solve(f.model, backend="sat")
            assert solution.status == baseline[t], f"card={card} T={t}"


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
