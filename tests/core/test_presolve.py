"""Tests for the ILP presolve pass (:mod:`repro.core.presolve`).

Soundness checks on the analysis itself (windows contain the optimum,
infeasibility verdicts agree with the solver), plus differential tests
asserting the presolve never changes a scheduling outcome — only the
model the solver has to chew through.
"""

import pathlib

import pytest

from repro.core import Formulation, FormulationOptions, verify_schedule
import repro.core.presolve as presolve_module
from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.errors import CoreError
from repro.core.presolve import ALWAYS, MAYBE, NEVER, presolve
from repro.core.scheduler import AttemptConfig, attempt_period
from repro.corpusgen import default_families, generate_corpus
from repro.ddg import Ddg
from repro.ddg.builders import parse_ddg
from repro.ddg.kernels import motivating_example
from repro.enumerative import search_at_period
from repro.machine.presets import (
    clean_machine,
    motivating_machine,
    powerpc604,
)
from repro.sat.encode import encode_formulation

CORPUS = pathlib.Path(__file__).resolve().parents[2] / "corpus"


def _fp_ops(count: int) -> Ddg:
    g = Ddg(f"fp{count}")
    for i in range(count):
        g.add_op(f"f{i}", "fadd")
    return g


def _cyclic_pair() -> Ddg:
    """Two ops on a carried cycle: a -> b (flow), b -> a (distance 1)."""
    g = Ddg("cyc2")
    g.add_op("a", "add")
    g.add_op("b", "add")
    g.add_dep("a", "b", latency=2)
    g.add_dep("b", "a", distance=1, latency=2)
    return g


class TestAnalysis:
    def test_windows_cover_min_sum_t_optimum(self):
        """asap/latest are implied bounds for minimal solutions, so the
        min_sum_t optimum (a minimal solution by definition) must sit
        inside every op's window."""
        ddg = motivating_example()
        machine = motivating_machine()
        options = FormulationOptions(
            objective="min_sum_t", presolve=False
        )
        f = Formulation(ddg, machine, 4, options)
        schedule = f.extract(f.solve())
        info = presolve(ddg, machine, 4, objective="min_sum_t", k_max=20)
        assert not info.infeasible
        assert info.anchor is None  # min_sum_t is not shift-invariant
        for i, start in enumerate(schedule.starts):
            assert info.asap[i] <= start <= info.latest[i], i
            assert info.slot_allowed(i, start % 4), i

    def test_anchor_pinned_to_slot_zero(self):
        ddg = motivating_example()
        info = presolve(ddg, motivating_machine(), 4, k_max=20)
        assert info.anchor is not None
        assert [t for t in range(4)
                if info.slot_allowed(info.anchor, t)] == [0]

    def test_positive_cycle_marks_infeasible(self):
        # Cycle separation 4 with distance 1 forces T >= 4.
        info = presolve(_cyclic_pair(), clean_machine(), 3, k_max=20)
        assert info.infeasible
        assert info.reason == "dependence_cycle"

    def test_pair_classification_covers_colored_pairs(self):
        ddg = motivating_example()
        machine = motivating_machine()
        f = Formulation(ddg, machine, 4)
        f.build()
        info = f.presolve_info
        assert info is not None and not info.infeasible
        fp_ops = sorted(f.color)
        for a in range(len(fp_ops)):
            for b in range(a + 1, len(fp_ops)):
                pair = (fp_ops[a], fp_ops[b])
                assert pair in info.pairs
                assert info.pairs[pair].kind in (NEVER, ALWAYS, MAYBE)

    def test_never_pairs_have_no_overlap_rows(self):
        ddg = motivating_example()
        machine = motivating_machine()
        f = Formulation(ddg, machine, 4)
        model = f.build()
        info = f.presolve_info
        names = [c.name for c in model.constraints]
        for (i, j), verdict in info.pairs.items():
            prefix = f"ov[{i},{j},"
            rows = [x for x in names if x.startswith(prefix)]
            if verdict.kind == NEVER:
                assert not rows, (i, j)
                assert (i, j) not in f.overlap
            elif verdict.kind == ALWAYS:
                assert not rows, (i, j)  # o folded into the hu rows
                assert (i, j) not in f.overlap


class TestOrderedSymmetry:
    def test_rank_rows_emitted(self):
        """With 3 colored ops on 2 FP units there is one rank row, and
        it pins the earliest-window op to color 1."""
        f = Formulation(_fp_ops(3), motivating_machine(), 4)
        model = f.build()
        sym_rows = [
            c.name for c in model.constraints
            if c.name.startswith("sym[")
        ]
        assert sym_rows == ["sym[FP,0]"]


class TestDifferential:
    @pytest.mark.parametrize("backend", ("highs", "sat"))
    def test_infeasible_period_agrees_with_solver(self, backend):
        """Presolve's dependence-infeasibility verdict (T=3 < cycle
        bound 4) must match what both solvers say, with and without the
        presolve row shortcut."""
        ddg = _cyclic_pair()
        machine = clean_machine()
        for presolve_on in (True, False):
            options = FormulationOptions(presolve=presolve_on)
            f = Formulation(ddg, machine, 3, options)
            status = f.solve(backend=backend).status
            assert not status.has_solution, (backend, presolve_on)

    @pytest.mark.parametrize("backend", ("highs", "sat"))
    def test_motivating_statuses_match(self, backend):
        """Presolve on/off agree period by period on the §2 loop."""
        ddg = motivating_example()
        machine = motivating_machine()
        for t_period in (3, 4, 5):
            verdicts = {}
            for presolve_on in (True, False):
                options = FormulationOptions(presolve=presolve_on)
                f = Formulation(ddg, machine, t_period, options)
                solution = f.solve(backend=backend, time_limit=30.0)
                verdicts[presolve_on] = solution.status.has_solution
                if solution.status.has_solution:
                    verify_schedule(f.extract(solution))
            assert verdicts[True] == verdicts[False], (backend, t_period)

    def test_min_fu_counts_unchanged(self):
        """Satellite check: the capacity-row fix for Variable capacities
        plus presolve must not change min_fu's answer."""
        ddg = _fp_ops(3)
        machine = motivating_machine()
        for t_period, expected in ((6, 1), (4, 2)):
            counts = {}
            for presolve_on in (True, False):
                options = FormulationOptions(
                    objective="min_fu", presolve=presolve_on
                )
                f = Formulation(ddg, machine, t_period, options)
                solution = f.solve()
                assert solution.status.has_solution
                schedule = f.extract(solution)
                verify_schedule(schedule)
                counts[presolve_on] = schedule.fu_counts_used["FP"]
            assert counts[True] == counts[False] == expected, t_period

    def test_min_fu_infeasible_t_unchanged(self):
        for presolve_on in (True, False):
            options = FormulationOptions(
                objective="min_fu", presolve=presolve_on
            )
            f = Formulation(_fp_ops(3), motivating_machine(), 3, options)
            assert not f.solve().status.has_solution, presolve_on


class TestCopyPacking:
    """The FP table ``100/010/011`` uses stage 3 twice, so one of the two
    FP copies hosts at most floor(T/2) ops: 7 ops need T >= 8, although
    the resource floor (14 uses over 2 copies) allows T = 7."""

    def test_rules_out_unpackable_period(self):
        machine = motivating_machine()
        f = Formulation(_fp_ops(7), machine, 7)
        assert f.presolve_info.reason == "copy_packing"
        assert f.presolve_info.fu_type == "FP"
        assert not f.solve(backend="highs").status.has_solution
        # Nothing was built to emit rows or clauses from.
        with pytest.raises(CoreError, match="copy_packing"):
            f.build()
        with pytest.raises(CoreError, match="copy_packing"):
            encode_formulation(f)

        f = Formulation(_fp_ops(7), machine, 8)
        f.build()
        assert not f.presolve_info.infeasible

    def test_uncolored_types_are_not_checked(self):
        f = Formulation(
            _fp_ops(7), motivating_machine(), 7,
            FormulationOptions(mapping=False),
        )
        f.build()
        assert not f.presolve_info.infeasible

    def test_search_past_its_cap_rules_nothing_out(self, monkeypatch):
        monkeypatch.setattr(presolve_module, "_PACK_NODE_CAP", 1)
        f = Formulation(_fp_ops(7), motivating_machine(), 7)
        f.build()
        assert not f.presolve_info.infeasible

    def test_reason_reaches_attempt_record(self):
        outcome = attempt_period(
            _fp_ops(7), motivating_machine(), 7,
            AttemptConfig(backend="sat"),
        )
        assert outcome.attempt.status == "infeasible"
        assert outcome.attempt.model_stats["presolve_reason"] == (
            "copy_packing"
        )
        doc = outcome.attempt.to_json_dict()
        assert doc["model"]["presolve_reason"] == "copy_packing"


@pytest.mark.slow
def test_copy_packing_agrees_with_exact_searches():
    """Every copy-packing verdict on ``corpus/`` and a generated
    ``motivating`` sample is a real infeasibility: the enumerator finds
    no schedule wherever it decides, and neither does HiGHS without
    presolve on loops of at most 10 ops."""
    cases = [
        (parse_ddg(path.read_text()), powerpc604())
        for path in sorted(CORPUS.glob("*.ddg"))
    ]
    machine = motivating_machine()
    cases += [
        (ddg, machine)
        for ddg in generate_corpus(11, machine, default_families(40))
    ]
    verdicts = enumerated = solved = 0
    for ddg, machine in cases:
        t_lb = lower_bounds(ddg, machine).t_lb
        for t_period in range(t_lb, t_lb + 11):
            if not modulo_feasible_t(ddg, machine, t_period):
                continue
            f = Formulation(ddg, machine, t_period)
            if f.presolve_info.reason != "copy_packing":
                break  # bins of a larger T only pack more easily
            verdicts += 1
            where = f"{ddg.name} T={t_period}"
            outcome = search_at_period(
                ddg, machine, t_period, time_limit=2.0
            )
            assert outcome.feasible is not True, where
            enumerated += outcome.feasible is False
            if ddg.num_ops <= 10:
                plain = Formulation(
                    ddg, machine, t_period,
                    FormulationOptions(presolve=False),
                )
                status = plain.solve(backend="highs", time_limit=120.0)
                assert status.status.value == "infeasible", where
                solved += 1
    assert verdicts >= 5 and enumerated >= 5 and solved >= 3


class TestModelReduction:
    def test_presolve_only_shrinks_the_model(self):
        """On the ppc604 T_lb instance of a mid-size loop, presolve must
        strictly reduce row count and never add variables."""
        import random

        from repro.ddg.generators import GeneratorConfig, random_ddg

        machine = powerpc604()
        rng = random.Random(604)
        ddg = random_ddg(
            rng, machine, GeneratorConfig(min_ops=6, max_ops=10)
        )
        t_lb = lower_bounds(ddg, machine).t_lb
        on = Formulation(ddg, machine, t_lb).build()
        off = Formulation(
            ddg, machine, t_lb, FormulationOptions(presolve=False)
        ).build()
        assert on.num_constraints <= off.num_constraints
        assert on.num_vars <= off.num_vars

    def test_stats_account_for_eliminated_rows(self):
        f_on = Formulation(motivating_example(), motivating_machine(), 4)
        f_on.build()
        f_off = Formulation(
            motivating_example(), motivating_machine(), 4,
            FormulationOptions(presolve=False),
        )
        f_off.build()
        stats = f_on.model_stats
        assert stats.eliminated_constraints > 0
        assert stats.eliminated_variables > 0
        assert (
            stats.constraints + stats.eliminated_constraints
            == f_off.model_stats.constraints
        )
        assert (
            stats.variables + stats.eliminated_variables
            == f_off.model_stats.variables
        )
