"""One infeasibility chain: modulo check, presolve, backend.

A period presolve rules out is answered before any backend: the attempt
records ``infeasible`` with ``backend ""`` and ``presolve_reason``, and
that record still counts as a proof.  ``explain_infeasibility`` reads the
same chain, so each period a sweep proved below its T without a solver
gets the matching :class:`Reason`, and no full formulation is solved
for it.
"""

import pathlib

import pytest

import repro.core.formulation as formulation_module
import repro.ilp.solve as ilp_solve
from repro.core import schedule_loop
from repro.core.explain import Reason, explain_infeasibility
from repro.core.formulation import Formulation
from repro.corpusgen import default_families, iter_corpus, resolve_machine
from repro.ddg.builders import parse_ddg
from repro.ddg.kernels import motivating_example
from repro.machine.presets import motivating_machine
from repro.sat import backend as sat_backend
from repro.sat.solver import CdclSolver

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "corpus"

#: The reason ``explain`` gives for each presolve reason.
EXPECTED = {
    "dependence_cycle": Reason.DEPENDENCE,
    "empty_window": Reason.DEPENDENCE,
    "resource_floor": Reason.CAPACITY,
    "copy_packing": Reason.MAPPING,
}


def _forbid(monkeypatch, owner, name):
    def refuse(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    monkeypatch.setattr(owner, name, refuse)


@pytest.mark.parametrize("backend", ["highs", "sat"])
def test_ruled_out_period_never_reaches_a_backend(backend, monkeypatch):
    # The heuristic settles T=4 and presolve rules T=3 out (copy
    # packing), so no row, clause or solver call is needed at all.
    _forbid(monkeypatch, Formulation, "build")
    _forbid(monkeypatch, sat_backend, "encode_formulation")
    _forbid(monkeypatch, CdclSolver, "solve")
    _forbid(monkeypatch, ilp_solve, "solve")
    _forbid(monkeypatch, formulation_module, "solve_ilp")
    result = schedule_loop(motivating_example(), motivating_machine(),
                           backend=backend)
    assert result.achieved_t == 4
    first = result.attempts[0]
    assert (first.t_period, first.status, first.backend) == (
        3, "infeasible", ""
    )
    assert first.model_stats["presolve_reason"] == "copy_packing"
    assert result.is_rate_optimal_proven
    # No backend solve at all: the heuristic settled the loop.
    assert result.warmstart.ilp_solves == 0
    assert result.warmstart.skipped_all_ilp


def _loops():
    ppc = resolve_machine("powerpc604")
    for path in sorted(CORPUS.glob("*.ddg")):
        yield parse_ddg(path.read_text(encoding="utf-8")), ppc
    for name in ("motivating", "powerpc604", "deep-unclean"):
        machine = resolve_machine(name)
        for _, _, ddg in iter_corpus(11, machine, default_families(40)):
            yield ddg, machine


def test_explain_reads_the_chain(monkeypatch):
    """Every period a sweep settled below T without a backend gets the
    reason of the link that settled it, with no full-formulation solve."""
    cases = []
    for ddg, machine in _loops():
        result = schedule_loop(ddg, machine, time_limit_per_t=10.0)
        assert result.is_rate_optimal_proven, ddg.name
        for attempt in result.attempts:
            reason = attempt.model_stats.get("presolve_reason")
            if attempt.status == "modulo_infeasible":
                cases.append((ddg, machine, attempt.t_period, Reason.MODULO))
            elif reason:
                cases.append((ddg, machine, attempt.t_period,
                               EXPECTED[reason]))

    solved_mappings = []
    real_solve = Formulation.solve

    def recording_solve(self, *args, **kwargs):
        solved_mappings.append(self.options.mapping)
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(Formulation, "solve", recording_solve)
    for ddg, machine, t_period, expected in cases:
        diagnosis = explain_infeasibility(ddg, machine, t_period)
        assert diagnosis.reason == expected, (
            ddg.name, t_period, diagnosis.detail
        )
    # Only counting relaxations (mapping=False) were solved.
    assert all(mapping is False for mapping in solved_mappings)
    explained = [case[3] for case in cases]
    assert explained.count(Reason.MODULO) == 17
    assert explained.count(Reason.MAPPING) >= 9


def test_copy_packing_diagnosis_names_the_type():
    diagnosis = explain_infeasibility(
        motivating_example(), motivating_machine(), 3
    )
    assert diagnosis.reason == Reason.MAPPING
    assert "'FP'" in diagnosis.detail
    assert "no fixed FU assignment" in diagnosis.detail
    assert diagnosis.counting_schedule is not None
