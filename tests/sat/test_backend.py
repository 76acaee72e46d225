"""The ``backend="sat"`` entry point, differentially against HiGHS.

The backend lowers the formulation's structure and never builds its ILP
rows, so agreement with HiGHS is asserted here: SAT and HiGHS return
the same feasible/infeasible verdict per (loop, T), and every SAT
schedule lifts to a point of the HiGHS model.  The attempt's one
verify (every backend's answer checked before it becomes a schedule)
must still catch a broken encoding, and the Solution metadata must
round-trip.
"""

import copy
import pathlib

import pytest

from repro.core import schedule_loop
from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.errors import VerificationError
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.scheduler import AttemptConfig, attempt_period
from repro.core.verify import verify_schedule
from repro.core.warmstart import compute_warmstart, warmstart_assignment
from repro.corpusgen import default_families, iter_corpus, resolve_machine
from repro.ddg.builders import parse_ddg
from repro.ddg.generators import suite
from repro.ddg.kernels import motivating_example
from repro.ilp.errors import SolverError
from repro.ilp.solution import SolveStatus
from repro.machine.presets import motivating_machine, powerpc604
from repro.sat import backend as sat_backend
from repro.sat import cardinality
from repro.sat import encode as sat_encode
from repro.sat.encode import encode_formulation
from repro.sat.errors import SatEncodeError
from repro.supervision.records import SupervisionPolicy

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "corpus"


@pytest.fixture
def machine():
    return motivating_machine()


def _formulation(ddg, machine, t_period, **options):
    return Formulation(
        ddg, machine, t_period, FormulationOptions(**options)
    )


class TestStatusSurface:
    def test_infeasible_period_maps_to_infeasible(self, machine):
        # Without presolve, T=3 reaches the solver, which answers UNSAT.
        f = _formulation(motivating_example(), machine, 3, presolve=False)
        solution = f.solve(backend="sat")
        assert solution.status == SolveStatus.INFEASIBLE
        assert solution.backend == "sat"

    def test_ruled_out_period_never_reaches_the_backend(
        self, machine, monkeypatch
    ):
        def no_encode(formulation):
            raise AssertionError("a ruled-out period was encoded")

        monkeypatch.setattr(sat_backend, "encode_formulation", no_encode)
        f = _formulation(motivating_example(), machine, 3)
        assert f.ruled_out == "copy_packing"
        solution = f.solve(backend="sat")
        assert solution.status == SolveStatus.INFEASIBLE
        assert solution.backend == ""

    def test_feasible_period_maps_to_optimal(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        solution = f.solve(backend="sat")
        assert solution.status == SolveStatus.OPTIMAL
        assert solution.values

    def test_phase_stats_recorded(self, machine):
        f = _formulation(motivating_example(), machine, 4)
        solution = f.solve(backend="sat")
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

    def test_non_feasibility_objective_rejected(self, machine):
        f = _formulation(
            motivating_example(), machine, 4, objective="min_sum_t"
        )
        with pytest.raises((SatEncodeError, SolverError),
                           match="feasibility-only"):
            f.solve(backend="sat")

    def test_valid_start_does_not_bypass_the_objective_check(self):
        # A valid warm start proves feasibility, not min_fu optimality:
        # the backend must refuse rather than report optimal, gap 0.
        ddg = parse_ddg((CORPUS / "loop0000.ddg").read_text())
        machine = powerpc604()
        ws = compute_warmstart(ddg, machine, 10)
        f = _formulation(ddg, machine, ws.ii, objective="min_fu")
        assert warmstart_assignment(f, ws.schedule) is not None
        with pytest.raises(SatEncodeError, match="feasibility-only"):
            f.solve(backend="sat")


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
        # Presolve rules T=3 out (copy packing): no backend is reached.
        outcome = attempt_period(
            motivating_example(), machine, 3,
            AttemptConfig(backend="sat"),
        )
        assert outcome.attempt.status == "infeasible"
        assert outcome.attempt.backend == ""
        assert outcome.attempt.model_stats["presolve_reason"] == (
            "copy_packing"
        )

    def test_solver_unsat_attempt(self):
        # A slice loop whose T=6 presolve leaves open and CDCL refutes.
        machine = resolve_machine("deep-unclean")
        ddg = next(
            ddg for _, _, ddg in iter_corpus(11, machine,
                                             default_families(40))
            if ddg.name == "gen00018"
        )
        outcome = attempt_period(ddg, machine, 6,
                                 AttemptConfig(backend="sat"))
        assert outcome.attempt.status == "infeasible"
        assert outcome.attempt.backend == "sat"
        assert "presolve_reason" not in outcome.attempt.model_stats
        assert outcome.attempt.model_stats["sat_clauses"] > 0

    def test_rows_are_never_built(self, machine, monkeypatch):
        def no_rows(self):
            raise AssertionError("the sat backend built ILP rows")

        monkeypatch.setattr(Formulation, "build", no_rows)
        outcome = attempt_period(
            motivating_example(), machine, 4,
            AttemptConfig(backend="sat"),
        )
        assert outcome.attempt.status == "optimal"
        assert outcome.attempt.model_stats["sat_clauses"] > 0
        verify_schedule(outcome.schedule)


def _drop_dependence_clauses(monkeypatch):
    """Make the SAT backend encode every loop as if it had no edges."""
    real = sat_encode.encode_formulation

    def encode_without_dependences(formulation):
        shadow = copy.copy(formulation)
        shadow.ddg = copy.copy(formulation.ddg)
        shadow.ddg.deps = []
        return real(shadow)

    monkeypatch.setattr(sat_backend, "encode_formulation",
                        encode_without_dependences)


class TestDecodeCheck:
    """A broken encoding must surface as a failed attempt, never as a
    schedule: the attempt verifies every backend's answer."""

    def test_attempt_raises(self, machine, monkeypatch):
        _drop_dependence_clauses(monkeypatch)
        with pytest.raises(VerificationError, match="dependence"):
            attempt_period(motivating_example(), machine, 4,
                           AttemptConfig(backend="sat"))

    def test_sweep_records_solver_error(self, machine, monkeypatch):
        _drop_dependence_clauses(monkeypatch)
        result = schedule_loop(
            motivating_example(), machine, backend="sat",
            warmstart=False, max_extra=2,
            policy=SupervisionPolicy(max_retries=0),
        )
        assert result.schedule is None
        statuses = {a.t_period: a.status for a in result.attempts}
        assert statuses == {
            3: "infeasible", 4: "solver_error", 5: "solver_error",
        }


class TestDifferentialAgainstIlp:
    def test_verdicts_agree_on_seeded_suite(self, machine):
        checked = lifted = 0
        for ddg in suite(6, machine, seed=604):
            bounds = lower_bounds(ddg, machine)
            for t in range(bounds.t_lb, bounds.t_lb + 3):
                if not modulo_feasible_t(ddg, machine, t):
                    continue
                f = _formulation(ddg, machine, t)
                sat = f.solve(backend="sat", time_limit=30.0)
                ilp = f.solve(backend="highs", time_limit=30.0)
                assert (
                    sat.status.has_solution == ilp.status.has_solution
                ), f"{ddg.name} T={t}: sat={sat.status} ilp={ilp.status}"
                if sat.status.has_solution:
                    # The SAT schedule is a point of the HiGHS model.
                    schedule = f.extract(sat)
                    assert warmstart_assignment(
                        _formulation(ddg, machine, t), schedule
                    ) is not None, f"{ddg.name} T={t}"
                    lifted += 1
                checked += 1
                break  # first admissible T per loop keeps this fast
        assert checked >= 4
        assert lifted >= 1

    @pytest.mark.parametrize("card,min_lits", [
        pytest.param("sequential", 10**9, id="sequential"),
        pytest.param("totalizer", 0, id="totalizer"),
    ])
    def test_card_env_changes_encoding_not_verdict(
        self, machine, card, min_lits, monkeypatch
    ):
        """Forcing either capacity encoding (through the size threshold
        that picks it) changes the CNF, never the verdict.  Presolve
        rules out T=3 (copy packing) before any capacity row exists, so
        that leg is built without it."""
        ddg = motivating_example()
        presolve_at = {3: False, 4: True}
        baseline = {}
        for t in (3, 4):
            f = _formulation(ddg, machine, t, presolve=presolve_at[t])
            baseline[t] = f.solve(backend="sat").status
        monkeypatch.setattr(cardinality, "_TOTALIZER_MIN_LITS", min_lits)
        for t in (3, 4):
            f = _formulation(ddg, machine, t, presolve=presolve_at[t])
            assert card in encode_formulation(f).card_encodings
            solution = f.solve(backend="sat")
            assert solution.status == baseline[t], f"card={card} T={t}"
