"""Unit tests for the pure-python CDCL core.

The solver is differential-tested against brute-force enumeration on
random 3-SAT near the phase transition, and against the canonical
pigeonhole family for UNSAT (no polynomial resolution proof exists, so
any shortcut bug shows up as a wrong SAT answer, not a slow one).
"""

import itertools
import json
import random

import pytest

from repro.sat.solver import SAT, UNKNOWN, UNSAT, CdclSolver
from tests.sat.test_search_golden import (
    COUNTERS, DATA, _encoding, _golden_case, _loops,
)


def _brute_force(num_vars, clauses):
    """Exhaustive satisfiability check for tiny formulas."""
    for bits in itertools.product([False, True], repeat=num_vars):
        model = (None,) + bits  # 1-based
        if all(
            any(model[abs(lit)] == (lit > 0) for lit in clause)
            for clause in clauses
        ):
            return True
    return False


def _check_model(clauses, model):
    assert all(
        any(model[abs(lit)] == (lit > 0) for lit in clause)
        for clause in clauses
    )


def _pigeonhole(holes):
    """PHP(holes+1, holes): pigeons+1 into holes — classically UNSAT."""
    pigeons = holes + 1
    var = lambda p, h: p * holes + h + 1  # noqa: E731
    clauses = []
    for p in range(pigeons):
        clauses.append([var(p, h) for h in range(holes)])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                clauses.append([-var(p1, h), -var(p2, h)])
    return pigeons * holes, clauses


class TestBasics:
    def test_empty_formula_is_sat(self):
        result = CdclSolver(0, []).solve()
        assert result.status == SAT
        assert bool(result)

    def test_empty_clause_is_unsat(self):
        result = CdclSolver(1, [[]]).solve()
        assert result.status == UNSAT
        assert not bool(result)

    def test_unit_propagation_only(self):
        result = CdclSolver(3, [[1], [-1, 2], [-2, 3]]).solve()
        assert result.status == SAT
        assert result.model[1] and result.model[2] and result.model[3]
        assert result.stats.decisions == 0

    def test_contradictory_units(self):
        result = CdclSolver(1, [[1], [-1]]).solve()
        assert result.status == UNSAT

    def test_duplicate_and_tautological_clauses(self):
        # [1, 1] collapses to a unit; [1, -1] is dropped as a tautology.
        result = CdclSolver(2, [[1, 1], [1, -1], [-1, 2]]).solve()
        assert result.status == SAT
        assert result.model[1] and result.model[2]

    def test_solver_is_resolvable_twice(self):
        solver = CdclSolver(2, [[1, 2]])
        assert solver.solve().status == SAT
        assert solver.solve().status == SAT


class TestPigeonhole:
    @pytest.mark.parametrize("holes", [2, 3, 4])
    def test_php_is_unsat(self, holes):
        num_vars, clauses = _pigeonhole(holes)
        result = CdclSolver(num_vars, clauses).solve()
        assert result.status == UNSAT
        if holes >= 3:
            # A genuine resolution refutation was needed.
            assert result.stats.conflicts > 0
            assert result.stats.learned_clauses > 0

    def test_php_sat_when_one_pigeon_removed(self):
        num_vars, clauses = _pigeonhole(4)
        # Drop pigeon 0's "somewhere" clause: remaining 4 fit in 4.
        result = CdclSolver(num_vars, clauses[1:]).solve()
        assert result.status == SAT


class TestRandomDifferential:
    def test_random_3sat_matches_brute_force(self):
        rng = random.Random(20260807)
        for trial in range(60):
            n = rng.randint(4, 9)
            m = int(n * rng.uniform(2.5, 5.5))
            clauses = [
                [
                    v * rng.choice([-1, 1])
                    for v in rng.sample(range(1, n + 1), 3)
                ]
                for _ in range(m)
            ]
            expected = _brute_force(n, clauses)
            result = CdclSolver(n, clauses).solve()
            assert (result.status == SAT) == expected, (
                f"trial {trial}: n={n} m={m}"
            )
            if result.status == SAT:
                _check_model(clauses, result.model)


class TestAssumptions:
    @pytest.fixture
    def solver(self):
        # x1 -> x2, x2 -> x3; all free otherwise.
        return CdclSolver(3, [[-1, 2], [-2, 3]])

    def test_assumptions_pin_literals(self, solver):
        result = solver.solve(assumptions=[1])
        assert result.status == SAT
        assert result.model[1] and result.model[2] and result.model[3]

    def test_negative_assumptions(self, solver):
        result = solver.solve(assumptions=[-3])
        assert result.status == SAT
        assert not result.model[1] and not result.model[2]

    def test_conflicting_assumptions_flagged(self, solver):
        result = solver.solve(assumptions=[1, -3])
        assert result.status == UNSAT
        assert result.assumption_conflict
        # The formula itself is still satisfiable afterwards.
        assert solver.solve().status == SAT

    def test_out_of_range_assumption_rejected(self, solver):
        with pytest.raises(ValueError, match="out of range"):
            solver.solve(assumptions=[4])


class TestBudgets:
    def test_conflict_limit_yields_unknown(self):
        num_vars, clauses = _pigeonhole(6)
        result = CdclSolver(num_vars, clauses).solve(conflict_limit=5)
        assert result.status == UNKNOWN
        assert result.model is None

    def test_zero_time_limit_yields_unknown_or_answer(self):
        # An already-expired budget must return promptly, never hang.
        num_vars, clauses = _pigeonhole(5)
        result = CdclSolver(num_vars, clauses).solve(time_limit=1e-9)
        assert result.status in (UNKNOWN, UNSAT)


def _load_one_by_one(num_vars, clauses):
    """A solver whose clauses all went through the general path."""
    solver = CdclSolver(num_vars, [])
    for clause in clauses:
        solver._add_input_clause(clause)
    return solver


def _loaded_state(solver):
    return (solver.clauses, solver.watches, solver._audit, solver.trail,
            solver.ok)


class TestInputValidation:
    @pytest.mark.parametrize("clause", [
        [1, 4],        # duplicate-free
        [-4, 2],
        [0, 1],
        [1, 1, 4],     # repeated literal
        [2, 0, 2],
        [1, -1, 4],    # a tautology is checked too
        [1, 2, 4],     # ternary
        [-4, 1, 2],
        [1, 2, 0],
        [1, 0, -1],
    ])
    def test_out_of_range_literal_rejected(self, clause):
        with pytest.raises(ValueError, match="out of range for 3 vars"):
            CdclSolver(3, [[1, 2], clause])

    def test_error_names_the_first_bad_literal(self):
        with pytest.raises(ValueError, match="literal -5 out of range"):
            CdclSolver(3, [[1, -5, 0]])
        with pytest.raises(ValueError, match="literal 0 out of range"):
            CdclSolver(3, [[0, 9]])

    @pytest.mark.parametrize("clause", [[1, 2, -1], [1, -2, 2], [-3, 3, 1]])
    def test_ternary_tautology_dropped(self, clause):
        solver = CdclSolver(3, [[1, 2], clause])
        assert solver.clauses == [[1, 2]]
        assert solver._audit == [[1, 2]]

    @pytest.mark.parametrize("clause,loaded", [
        ([1, 2, 1], [1, 2]),
        ([1, 1, 2], [1, 2]),
        ([1, 2, 2], [1, 2]),
    ])
    def test_ternary_repeat_collapsed(self, clause, loaded):
        solver = CdclSolver(3, [clause])
        assert solver.clauses == [loaded]
        assert solver._audit == [clause]

    @pytest.mark.parametrize("clause", [[2, 2], [2, 2, 2]])
    def test_repeated_literal_becomes_unit(self, clause):
        solver = CdclSolver(3, [[1, 3], clause])
        assert solver.clauses == [[1, 3]]
        assert solver.trail == [2]
        assert solver._audit == [[1, 3], clause]

    def test_repeated_literals_and_tautologies_load(self):
        clauses = [[1, 2, 1, 2], [-1, -1], [3, -3], [2, -3, 2]]
        result = CdclSolver(3, clauses).solve()
        assert result.status == SAT
        assert not result.model[1] and result.model[2]
        _check_model(clauses, result.model)

    def test_inline_load_matches_general_path_on_golden_cnfs(self):
        """Inline short-clause loading equals the general path's."""
        golden = json.loads(DATA.read_text(encoding="utf-8"))
        keys = sorted({(c["source"], c["machine"], c["loop"], c["t"])
                       for c in golden["cases"]})
        loops = _loops()
        for source, machine_name, loop, t_period in keys:
            ddg, machine = loops[(source, machine_name, loop)]
            cnf = _encoding(ddg, machine, t_period).cnf
            inline = CdclSolver(cnf.num_vars, cnf.clauses)
            general = _load_one_by_one(cnf.num_vars, cnf.clauses)
            assert _loaded_state(inline) == _loaded_state(general), loop

    @pytest.mark.parametrize("seed", range(20))
    def test_inline_load_matches_general_path_on_mixed_clauses(
            self, seed):
        # Lengths 1 to 4 (and an empty clause every fifth seed), with
        # repeats and complements, so the two paths interleave.
        rng = random.Random(seed)
        num_vars = 6
        clauses = [
            [rng.choice((-1, 1)) * rng.randint(1, num_vars)
             for _ in range(rng.choice((1, 2, 2, 3, 3, 3, 4)))]
            for _ in range(60)
        ]
        if seed % 5 == 0:
            clauses.insert(30, [])
        inline = CdclSolver(num_vars, clauses)
        general = _load_one_by_one(num_vars, clauses)
        assert _loaded_state(inline) == _loaded_state(general)


class TestModelAudit:
    def test_violating_model_raises(self):
        solver = CdclSolver(2, [[1, 2], [-1, -2, -1]])
        with pytest.raises(RuntimeError, match="violates clause"):
            solver._audit_model([False, True, True])
        with pytest.raises(RuntimeError, match="violates clause"):
            solver._audit_model([False, False, False])

    def test_audit_checks_clauses_as_given(self):
        clauses = [[1, 1, 2], [2, -2], [-1, 3, -1]]
        solver = CdclSolver(3, clauses)
        result = solver.solve()
        assert result.status == SAT
        solver._audit_model(result.model)
        with pytest.raises(RuntimeError, match=r"\[-1, 3, -1\]"):
            solver._audit_model([False, True, True, False])


class TestActivityRescale:
    @pytest.mark.parametrize("before", [10, 15, 20, 25])
    def test_decision_after_rescale_follows_current_activities(
            self, before):
        """A rescale rebuilds the heap, so no stale key steers a decision.

        After ``before`` ordinary conflicts ``var_inc`` is set just below
        the rescale threshold: the next conflict bumps its variables to
        about 0.99e100 and the one after rescales every activity.  The
        next decision must be the unassigned variable with the highest
        (activity, index), not one keyed by its pre-rescale activity.
        """
        num_vars, clauses = _pigeonhole(5)
        solver = CdclSolver(num_vars, clauses)
        assert solver.solve(conflict_limit=before).status == UNKNOWN
        solver.var_inc = 0.99e100
        assert solver.solve(conflict_limit=before + 2).status == UNKNOWN
        assert solver.var_inc < 10.0  # the activities were rescaled
        free = [v for v in range(1, num_vars + 1) if solver.value[v] == 0]
        expected = max(free, key=lambda v: (solver.activity[v], v))
        assert solver._pick_branch_var() == expected


class TestPrefer:
    def test_first_decision_is_the_first_preferred_literal(self):
        # Unseeded, the highest variable is decided first, False.
        assert CdclSolver(3, [[1, 2, 3]]).solve().model[1:] == [
            True, False, False]
        result = CdclSolver(3, [[1, 2, 3]], prefer=[2]).solve()
        assert result.model[1:] == [False, True, False]
        assert result.stats.decisions == 3
        result = CdclSolver(3, [[1, 2, 3]], prefer=[-1, 3]).solve()
        assert result.model[1:] == [False, False, True]

    def test_decisions_follow_the_preferred_rank(self):
        solver = CdclSolver(5, [], prefer=[-3, 1, 4])
        picks = [solver._pick_branch_var() for _ in range(5)]
        assert picks == [3, 1, 4, 5, 2]
        assert [solver.phase[v] for v in picks] == [
            False, True, True, False, False]

    @pytest.mark.parametrize("prefer", [[0], [4], [-4], [1, 5]])
    def test_out_of_range_literal_rejected(self, prefer):
        with pytest.raises(ValueError, match="out of range for 3 vars"):
            CdclSolver(3, [[1, 2]], prefer=prefer)

    def test_empty_order_replays_a_golden_search(self):
        case, encoding = _golden_case(lambda c: c["source"] == "corpus"
                                      and not c.get("prefer")
                                      and c["conflicts"] > 0)
        cnf = encoding.cnf
        stats = CdclSolver(cnf.num_vars, cnf.clauses, prefer=()).solve().stats
        assert stats.conflicts > 0
        assert {name: getattr(stats, name) for name in COUNTERS} == {
            name: case[name] for name in COUNTERS}
