"""A small linear-programming modeling layer.

Provides :class:`Variable`, :class:`LinExpr`, :class:`Constraint` and
:class:`Model`.  Expressions support natural operator syntax::

    m = Model("demo")
    x = m.add_var("x", lb=0, ub=4, integer=True)
    y = m.add_var("y", lb=0)
    m.add(2 * x + y <= 10, name="cap")
    m.minimize(x + 3 * y)
    sol = m.solve()

Only what the scheduling formulation needs is implemented: affine
expressions over real/integer variables, ``<=``/``>=``/``==`` constraints,
and a single linear objective.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.ilp.errors import ModelError

Number = Union[int, float]

#: Senses a constraint may have.
LE, GE, EQ = "<=", ">=", "=="


@dataclass
class ModelStats:
    """Size and timing record for one built/lowered/solved model.

    The ``eliminated_*`` counters report how much smaller the presolve
    pass (:mod:`repro.core.presolve`) made the model relative to the
    plain encoding; the ``*_seconds`` fields split wall time across the
    pipeline phases (presolve analysis, Python model construction,
    lowering to arrays, and the solver itself).  Every model is built
    from its (ddg, machine, T) triple alone, so these describe exactly
    the model the attempt solved.
    """

    variables: int = 0
    integer_variables: int = 0
    constraints: int = 0
    nonzeros: int = 0
    eliminated_variables: int = 0
    eliminated_constraints: int = 0
    eliminated_nonzeros: int = 0
    presolve_seconds: float = 0.0
    build_seconds: float = 0.0
    lower_seconds: float = 0.0
    solve_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Build + lower + solve wall time (presolve counts as build)."""
        return (self.presolve_seconds + self.build_seconds
                + self.lower_seconds + self.solve_seconds)

    def to_dict(self) -> Dict[str, float]:
        data = asdict(self)
        data["total_seconds"] = self.total_seconds
        return data


#: One batched row: (terms, sense, rhs, name).  See :meth:`Model.add_rows`.
RowSpec = Tuple[Dict["Variable", float], str, float, str]


class Variable:
    """A decision variable owned by a :class:`Model`.

    Variables are created through :meth:`Model.add_var`; they are hashable
    by identity and ordered by creation index, which makes expression
    dictionaries deterministic.
    """

    __slots__ = ("name", "lb", "ub", "integer", "index", "_model_id")

    def __init__(
        self,
        name: str,
        lb: float,
        ub: Optional[float],
        integer: bool,
        index: int,
        model_id: int,
    ) -> None:
        self.name = name
        self.lb = float(lb)
        self.ub = math.inf if ub is None else float(ub)
        self.integer = integer
        self.index = index
        self._model_id = model_id

    def __repr__(self) -> str:
        kind = "int" if self.integer else "cont"
        return f"Variable({self.name!r}, [{self.lb}, {self.ub}], {kind})"

    # -- expression building -------------------------------------------------
    def _as_expr(self) -> "LinExpr":
        return LinExpr({self: 1.0}, 0.0)

    def __add__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() + other

    def __radd__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() + other

    def __sub__(self, other: "ExprLike") -> "LinExpr":
        return self._as_expr() - other

    def __rsub__(self, other: "ExprLike") -> "LinExpr":
        return (-self._as_expr()) + other

    def __mul__(self, k: Number) -> "LinExpr":
        return self._as_expr() * k

    def __rmul__(self, k: Number) -> "LinExpr":
        return self._as_expr() * k

    def __neg__(self) -> "LinExpr":
        return self._as_expr() * -1.0

    def __le__(self, other: "ExprLike") -> "Constraint":
        return self._as_expr() <= other

    def __ge__(self, other: "ExprLike") -> "Constraint":
        return self._as_expr() >= other

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return self._as_expr() == other
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)


ExprLike = Union[Variable, "LinExpr", Number]


class LinExpr:
    """An affine expression ``sum(coef * var) + const``."""

    __slots__ = ("terms", "const")

    def __init__(
        self, terms: Optional[Dict[Variable, float]] = None, const: float = 0.0
    ) -> None:
        self.terms: Dict[Variable, float] = dict(terms) if terms else {}
        self.const = float(const)

    @staticmethod
    def coerce(value: ExprLike) -> "LinExpr":
        """Turn a variable or number into a :class:`LinExpr`."""
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Variable):
            return value._as_expr()
        if isinstance(value, (int, float)):
            return LinExpr({}, float(value))
        raise TypeError(f"cannot build a linear expression from {value!r}")

    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.const)

    # -- arithmetic -----------------------------------------------------------
    def _iadd(self, other: ExprLike, sign: float) -> "LinExpr":
        other = LinExpr.coerce(other)
        result = self.copy()
        for var, coef in other.terms.items():
            new = result.terms.get(var, 0.0) + sign * coef
            if new == 0.0:
                result.terms.pop(var, None)
            else:
                result.terms[var] = new
        result.const += sign * other.const
        return result

    def __add__(self, other: ExprLike) -> "LinExpr":
        return self._iadd(other, 1.0)

    def __radd__(self, other: ExprLike) -> "LinExpr":
        return self._iadd(other, 1.0)

    def __sub__(self, other: ExprLike) -> "LinExpr":
        return self._iadd(other, -1.0)

    def __rsub__(self, other: ExprLike) -> "LinExpr":
        return (self * -1.0)._iadd(other, 1.0)

    def __mul__(self, k: Number) -> "LinExpr":
        if not isinstance(k, (int, float)):
            raise TypeError("linear expressions can only be scaled by numbers")
        if k == 0:
            return LinExpr({}, 0.0)
        return LinExpr({v: c * k for v, c in self.terms.items()}, self.const * k)

    def __rmul__(self, k: Number) -> "LinExpr":
        return self * k

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- constraint building ---------------------------------------------------
    def __le__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - other, LE)

    def __ge__(self, other: ExprLike) -> "Constraint":
        return Constraint(self - other, GE)

    def __eq__(self, other: object):  # type: ignore[override]
        if isinstance(other, (Variable, LinExpr, int, float)):
            return Constraint(self - other, EQ)
        return NotImplemented

    def __hash__(self) -> int:  # expressions are mutable-ish; hash by id
        return id(self)

    # -- evaluation -------------------------------------------------------------
    def value(self, assignment: Dict[Variable, float]) -> float:
        """Evaluate the expression under a variable assignment."""
        return self.const + sum(
            coef * assignment[var] for var, coef in self.terms.items()
        )

    def __repr__(self) -> str:
        parts = [f"{c:+g}*{v.name}" for v, c in sorted(
            self.terms.items(), key=lambda kv: kv[0].index)]
        if self.const or not parts:
            parts.append(f"{self.const:+g}")
        return " ".join(parts)


def lin_sum(items: Iterable[ExprLike]) -> LinExpr:
    """Sum an iterable of variables/expressions efficiently.

    Unlike ``sum(...)`` this builds a single accumulator dictionary instead
    of a chain of intermediate expressions, which matters for the dense
    resource constraints (hundreds of terms each).
    """
    terms: Dict[Variable, float] = {}
    const = 0.0
    for item in items:
        if isinstance(item, Variable):
            terms[item] = terms.get(item, 0.0) + 1.0
        elif isinstance(item, LinExpr):
            for var, coef in item.terms.items():
                terms[var] = terms.get(var, 0.0) + coef
            const += item.const
        elif isinstance(item, (int, float)):
            const += item
        else:
            raise TypeError(f"cannot sum {item!r} into a linear expression")
    return LinExpr({v: c for v, c in terms.items() if c != 0.0}, const)


class Constraint:
    """A linear constraint ``expr <sense> 0``.

    Stored normalized with everything moved to the left-hand side, so the
    right-hand side for backends is ``-expr.const``.
    """

    __slots__ = ("expr", "sense", "name")

    def __init__(self, expr: LinExpr, sense: str, name: str = "") -> None:
        if sense not in (LE, GE, EQ):
            raise ModelError(f"unknown constraint sense {sense!r}")
        self.expr = expr
        self.sense = sense
        self.name = name

    @property
    def rhs(self) -> float:
        return -self.expr.const

    def violation(self, assignment: Dict[Variable, float]) -> float:
        """Non-negative amount by which the assignment violates this row."""
        lhs = self.expr.value(assignment)
        if self.sense == LE:
            return max(0.0, lhs)
        if self.sense == GE:
            return max(0.0, -lhs)
        return abs(lhs)

    def __repr__(self) -> str:
        return f"Constraint({self.name or '?'}: {self.expr!r} {self.sense} 0)"


class Model:
    """A mixed-integer linear program.

    Holds variables, constraints and one objective; delegates solving to a
    backend chosen in :meth:`solve` (``"highs"``, ``"bnb"`` or ``"auto"``).
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: List[Variable] = []
        self.constraints: List[Constraint] = []
        self.objective: LinExpr = LinExpr()
        self.sense_minimize: bool = True

    # -- construction ------------------------------------------------------------
    def add_var(
        self,
        name: str,
        lb: float = 0.0,
        ub: Optional[float] = None,
        integer: bool = False,
    ) -> Variable:
        """Create and register a new variable.

        ``lb`` must be finite (the scheduling formulation never needs free
        variables, and finite lower bounds keep the simplex conversion
        simple).
        """
        if not math.isfinite(lb):
            raise ModelError(f"variable {name!r} needs a finite lower bound")
        if ub is not None and ub < lb:
            raise ModelError(f"variable {name!r} has ub {ub} < lb {lb}")
        var = Variable(name, lb, ub, integer, len(self.variables), id(self))
        self.variables.append(var)
        return var

    def add_binary(self, name: str) -> Variable:
        """Shorthand for a 0-1 integer variable."""
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint built with ``<=``/``>=``/``==``."""
        if not isinstance(constraint, Constraint):
            raise ModelError(
                "Model.add expects a Constraint; did you compare two numbers?"
            )
        self._check_owned(constraint.expr)
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self.constraints)}"
        self.constraints.append(constraint)
        return constraint

    def add_rows(self, rows: Iterable[RowSpec]) -> List[Constraint]:
        """Register a block of rows without building one expression per term.

        Each spec is ``(terms, sense, rhs, name)`` where ``terms`` maps
        variables to coefficients.  The dict is taken by reference (the
        caller must hand over a fresh dict per row), which lets the
        formulation emit its capacity/coloring blocks as plain dict
        merges instead of chained :class:`LinExpr` arithmetic.
        """
        mid = id(self)
        added: List[Constraint] = []
        for terms, sense, rhs, name in rows:
            if sense not in (LE, GE, EQ):
                raise ModelError(f"unknown constraint sense {sense!r}")
            for var in terms:
                if var._model_id != mid:
                    raise ModelError(
                        f"variable {var.name!r} belongs to a different model"
                    )
            expr = LinExpr.__new__(LinExpr)
            expr.terms = terms
            expr.const = -float(rhs)
            con = Constraint(expr, sense,
                             name or f"c{len(self.constraints)}")
            self.constraints.append(con)
            added.append(con)
        return added

    def minimize(self, expr: ExprLike) -> None:
        expr = LinExpr.coerce(expr)
        self._check_owned(expr)
        self.objective = expr
        self.sense_minimize = True

    def maximize(self, expr: ExprLike) -> None:
        expr = LinExpr.coerce(expr)
        self._check_owned(expr)
        self.objective = expr
        self.sense_minimize = False

    def _check_owned(self, expr: LinExpr) -> None:
        mid = id(self)
        for var in expr.terms:
            if var._model_id != mid:
                raise ModelError(
                    f"variable {var.name!r} belongs to a different model"
                )

    # -- introspection -------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @property
    def num_integer_vars(self) -> int:
        return sum(1 for v in self.variables if v.integer)

    def iter_rows(self) -> Iterator[Constraint]:
        return iter(self.constraints)

    def stats(self) -> Dict[str, int]:
        """Size summary used by the experiment harness."""
        nonzeros = sum(len(c.expr.terms) for c in self.constraints)
        return {
            "variables": self.num_vars,
            "integer_variables": self.num_integer_vars,
            "constraints": self.num_constraints,
            "nonzeros": nonzeros,
        }

    # -- solving ---------------------------------------------------------------------
    def solve(
        self,
        backend: str = "auto",
        time_limit: Optional[float] = None,
        mip_start: Optional[Dict["Variable", float]] = None,
    ):
        """Solve the model and return a :class:`repro.ilp.Solution`.

        ``backend`` is ``"highs"`` (scipy/HiGHS), ``"bnb"`` (the built-in
        branch-and-bound over the pure-python simplex), ``"sat"`` (CDCL,
        for scheduling formulations only), or ``"auto"``, which is
        HiGHS.  ``mip_start`` optionally warm-starts the search with a
        feasible assignment.
        """
        from repro.ilp import solve as _solve

        return _solve.solve(self, backend=backend, time_limit=time_limit,
                            mip_start=mip_start)

    def render(self, max_rows: Optional[int] = 40) -> str:
        """Human-readable model dump (debugging aid).

        Shows the objective, up to ``max_rows`` constraints, and a
        bounds summary; pass ``max_rows=None`` for everything.  For a
        machine-readable export use :func:`repro.ilp.lp_format.write_lp`.
        """
        sense = "min" if self.sense_minimize else "max"
        lines = [
            f"model {self.name!r}: {self.num_vars} vars "
            f"({self.num_integer_vars} integer), "
            f"{self.num_constraints} rows",
            f"  {sense} {self.objective!r}",
        ]
        shown = self.constraints
        truncated = 0
        if max_rows is not None and len(shown) > max_rows:
            truncated = len(shown) - max_rows
            shown = shown[:max_rows]
        for con in shown:
            lines.append(
                f"  {con.name}: {con.expr!r} {con.sense} 0"
            )
        if truncated:
            lines.append(f"  ... {truncated} more row(s)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"int={self.num_integer_vars}, rows={self.num_constraints})"
        )

