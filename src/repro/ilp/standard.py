"""Conversion of a :class:`repro.ilp.Model` to array form for backends."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro.ilp.errors import ModelError
from repro.ilp.model import EQ, GE, LE, Model, Variable


@dataclass
class ArrayForm:
    """Array representation of a model.

    The constraint matrix is assembled as COO triplets and stored sparse
    (CSR), which HiGHS consumes directly.  The objective is always stored as *minimize* ``c @ x + c0``; for a
    maximization model ``c``/``c0`` are pre-negated and ``flipped`` is set
    so callers can restore the user-facing objective value.
    """

    c: np.ndarray
    c0: float
    a_csr: sp.csr_matrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integrality: np.ndarray
    flipped: bool
    row_names: List[str]

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_rows(self) -> int:
        return int(self.a_csr.shape[0])

    @property
    def nnz(self) -> int:
        return int(self.a_csr.nnz)

    def user_objective(self, minimized_value: float) -> float:
        """Map a minimized objective value back to the model's sense."""
        return -minimized_value if self.flipped else minimized_value


def to_arrays(model: Model) -> ArrayForm:
    """Lower a model to :class:`ArrayForm` via COO-triplet assembly.

    Rows are encoded with two-sided bounds ``row_lower <= A x <= row_upper``
    as HiGHS takes them.  Duplicate (row, col)
    triplets sum, matching the ``+=`` semantics of the old dense path.
    """
    n = model.num_vars
    c = np.zeros(n)
    for var, coef in model.objective.terms.items():
        c[var.index] += coef
    c0 = model.objective.const
    flipped = not model.sense_minimize
    if flipped:
        c = -c
        c0 = -c0

    m = model.num_constraints
    coo_rows: List[int] = []
    coo_cols: List[int] = []
    coo_data: List[float] = []
    row_lower = np.full(m, -np.inf)
    row_upper = np.full(m, np.inf)
    row_names = []
    for r, con in enumerate(model.constraints):
        row_names.append(con.name)
        for var, coef in con.expr.terms.items():
            coo_rows.append(r)
            coo_cols.append(var.index)
            coo_data.append(coef)
        rhs = con.rhs
        if con.sense == LE:
            row_upper[r] = rhs
        elif con.sense == GE:
            row_lower[r] = rhs
        elif con.sense == EQ:
            row_lower[r] = rhs
            row_upper[r] = rhs
        else:  # pragma: no cover - Constraint guards senses already
            raise ModelError(f"unknown sense {con.sense!r}")

    a_csr = sp.csr_matrix(
        (coo_data, (coo_rows, coo_cols)), shape=(m, n), dtype=float
    )
    lb = np.array([v.lb for v in model.variables], dtype=float)
    ub = np.array([v.ub for v in model.variables], dtype=float)
    integrality = np.array([v.integer for v in model.variables], dtype=bool)
    return ArrayForm(
        c=c,
        c0=c0,
        a_csr=a_csr,
        row_lower=row_lower,
        row_upper=row_upper,
        lb=lb,
        ub=ub,
        integrality=integrality,
        flipped=flipped,
        row_names=row_names,
    )


def start_vector(
    model: Model,
    form: ArrayForm,
    values: Optional[Dict[Variable, float]],
    tol: float = 1e-6,
) -> Optional[np.ndarray]:
    """Dense vector for a warm start, or None if it is not usable.

    A usable start assigns every variable, respects the bounds, is
    integral on the integer variables, and satisfies every row.  A
    stale or converted-wrong start thus silently degrades to a cold
    solve instead of corrupting the search with an unattainable
    incumbent objective.
    """
    if not values:
        return None
    x = np.empty(form.num_vars)
    for var in model.variables:
        if var not in values:
            return None
        x[var.index] = float(values[var])
    if np.any(x < form.lb - tol) or np.any(x > form.ub + tol):
        return None
    ints = form.integrality
    if np.any(np.abs(x[ints] - np.round(x[ints])) > tol):
        return None
    x[ints] = np.round(x[ints])
    np.clip(x, form.lb, form.ub, out=x)
    if form.num_rows:
        ax = form.a_csr @ x
        if (np.any(ax < form.row_lower - tol)
                or np.any(ax > form.row_upper + tol)):
            return None
    return x
