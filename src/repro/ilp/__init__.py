"""Integer linear programming substrate.

The paper solves its unified scheduling+mapping formulation with a
commercial ILP solver (IBM OSL).  This subpackage provides the equivalent,
self-contained stack:

* :mod:`repro.ilp.model` — a small modeling layer (variables, affine
  expressions, linear constraints, objectives) in the spirit of PuLP.
* :mod:`repro.ilp.standard` — the sparse (CSR) array form the solver
  reads, and warm-start validation.
* :mod:`repro.ilp.highs` — an adapter to :func:`scipy.optimize.milp`
  (HiGHS), the MILP backend.
* :mod:`repro.ilp.solve` — parameter checks and the HiGHS call.  The
  CDCL SAT backend of :mod:`repro.sat` reads the scheduling
  formulation's structure, not rows, so
  :meth:`repro.core.formulation.Formulation.solve` picks the backend.

The public surface is :class:`Model`, :class:`Variable`, :class:`LinExpr`,
:class:`Solution`, and :class:`SolveStatus`; everything needed by
:mod:`repro.core.formulation`.
"""

from repro.ilp.errors import IlpError, ModelError, SolverError
from repro.ilp.model import (
    Constraint,
    LinExpr,
    Model,
    ModelStats,
    Variable,
    lin_sum,
)
from repro.ilp.solution import Solution, SolveStatus, relative_gap

__all__ = [
    "Constraint",
    "IlpError",
    "LinExpr",
    "Model",
    "ModelError",
    "ModelStats",
    "Solution",
    "SolveStatus",
    "relative_gap",
    "SolverError",
    "Variable",
    "lin_sum",
]
