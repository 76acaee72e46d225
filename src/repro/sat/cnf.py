"""A minimal CNF formula container.

Literals are DIMACS-style signed integers: variable ``v`` (1-based)
appears positively as ``v`` and negatively as ``-v``.  Clauses are
plain lists of literals; the container only allocates variables and
accumulates clauses — all reasoning lives in
:class:`repro.sat.solver.CdclSolver`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List


class Cnf:
    """A growable CNF formula."""

    __slots__ = ("num_vars", "clauses")

    def __init__(self) -> None:
        self.num_vars = 0
        self.clauses: List[List[int]] = []

    def new_var(self) -> int:
        """Allocate a fresh variable; returns its (positive) literal."""
        self.num_vars += 1
        return self.num_vars

    def new_vars(self, count: int) -> List[int]:
        """Allocate ``count`` fresh variables in one block, ascending."""
        first = self.num_vars + 1
        self.num_vars += max(count, 0)
        return list(range(first, self.num_vars + 1))

    def add_clause(self, lits: Iterable[int]) -> None:
        """Add one clause (a disjunction of literals).

        An empty iterable is a legitimate empty clause — it makes the
        formula trivially unsatisfiable, which the encoder uses for
        constraints it can refute structurally.
        """
        self.clauses.append(list(lits))

    def add(self, *lits: int) -> None:
        """Variadic convenience for :meth:`add_clause`."""
        self.clauses.append(list(lits))

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    @property
    def num_literals(self) -> int:
        return sum(len(c) for c in self.clauses)

    def stats(self) -> Dict[str, int]:
        return {
            "variables": self.num_vars,
            "clauses": self.num_clauses,
            "literals": self.num_literals,
        }

    def __repr__(self) -> str:
        return (
            f"Cnf({self.num_vars} vars, {self.num_clauses} clauses, "
            f"{self.num_literals} literals)"
        )
