"""Exhaustive correctness tests for the at-most-k encodings.

Every encoding is checked semantically, the size-chosen entry point
:func:`at_most_k` and each concrete encoding it can pick alike: for each assignment of the
*input* literals, the encoded CNF (with auxiliary variables projected
out by the solver) must be satisfiable iff the assignment respects the
bound.  Small n makes full enumeration cheap and leaves no corner
untested.
"""

import itertools

import pytest

from repro.sat.cardinality import (
    _sequential,
    _totalizer,
    at_most_k,
    at_most_one,
    exactly_one,
)
from repro.sat.cnf import Cnf
from repro.sat.solver import SAT, CdclSolver


def _holds(cnf, inputs, bits):
    """Is the CNF satisfiable with the input literals pinned to bits?"""
    assumptions = [
        lit if bit else -lit for lit, bit in zip(inputs, bits)
    ]
    solver = CdclSolver(cnf.num_vars, cnf.clauses)
    return solver.solve(assumptions=assumptions).status == SAT


def _fresh(n):
    cnf = Cnf()
    return cnf, [cnf.new_var() for _ in range(n)]


class TestAtMostK:
    @pytest.mark.parametrize("encode", [
        pytest.param(at_most_k, id="auto"),
        pytest.param(_sequential, id="sequential"),
        pytest.param(_totalizer, id="totalizer"),
    ])
    @pytest.mark.parametrize("n,k", [
        (1, 1), (2, 1), (3, 1), (3, 2), (4, 2), (5, 2), (5, 3), (6, 4),
    ])
    def test_exhaustive_semantics(self, encode, n, k):
        cnf, inputs = _fresh(n)
        encode(cnf, inputs, k)
        for bits in itertools.product([False, True], repeat=n):
            assert _holds(cnf, inputs, bits) == (sum(bits) <= k), (
                f"{encode.__name__}: n={n} k={k} bits={bits}"
            )

    def test_k_zero_forces_all_false(self):
        cnf, inputs = _fresh(3)
        assert at_most_k(cnf, inputs, 0) == "trivial"
        for bits in itertools.product([False, True], repeat=3):
            assert _holds(cnf, inputs, bits) == (sum(bits) == 0)

    def test_negative_k_is_unsat(self):
        cnf, inputs = _fresh(2)
        assert at_most_k(cnf, inputs, -1) == "trivial"
        solver = CdclSolver(cnf.num_vars, cnf.clauses)
        assert solver.solve().status != SAT

    def test_slack_bound_adds_nothing(self):
        cnf, inputs = _fresh(3)
        before = cnf.num_clauses
        assert at_most_k(cnf, inputs, 3) == "trivial"
        assert cnf.num_clauses == before

    def test_auto_picks_a_real_encoding(self):
        cnf, inputs = _fresh(6)
        used = at_most_k(cnf, inputs, 3)
        assert used in ("sequential", "totalizer", "pairwise", "trivial")


class TestAtMostOne:
    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_exhaustive(self, n):
        cnf, inputs = _fresh(n)
        at_most_one(cnf, inputs)
        for bits in itertools.product([False, True], repeat=n):
            assert _holds(cnf, inputs, bits) == (sum(bits) <= 1)


class TestExactlyOne:
    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_exhaustive(self, n):
        cnf, inputs = _fresh(n)
        exactly_one(cnf, inputs)
        for bits in itertools.product([False, True], repeat=n):
            assert _holds(cnf, inputs, bits) == (sum(bits) == 1)

    def test_empty_is_unsat(self):
        cnf = Cnf()
        exactly_one(cnf, [])
        solver = CdclSolver(cnf.num_vars, cnf.clauses)
        assert solver.solve().status != SAT
