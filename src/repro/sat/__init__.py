"""SAT backend: CNF lowering + pure-python CDCL solver.

The paper's unified formulation is nearly propositional — 0-1 slot
variables, pair-interference conflicts, small integer stage counts —
so it lowers naturally to CNF (Roorda's SMT pipeliner and Tirelli's
SAT-MapIt both exploit exactly this).  This subpackage mirrors how
:mod:`repro.ilp` is layered:

* :mod:`repro.sat.cnf` — a minimal CNF container (DIMACS-style
  signed-integer literals).
* :mod:`repro.sat.cardinality` — sequential-counter and totalizer
  at-most-k encodings plus exactly-one helpers.
* :mod:`repro.sat.solver` — a self-contained CDCL core (two-watched
  literals, 1-UIP learning, VSIDS, phase saving, Luby restarts,
  assumptions), the propositional counterpart of HiGHS in
  ``ilp/highs.py``.
* :mod:`repro.sat.encode` — lowers the structure of a
  :class:`repro.core.formulation.Formulation` (slot windows, k bounds,
  usage terms, pair verdicts) to CNF, without its ILP rows.
* :mod:`repro.sat.backend` — the ``backend="sat"`` side of
  :meth:`Formulation.solve`, returning the same
  :class:`repro.ilp.Solution` surface as ``ilp/highs.py`` so
  extraction, verification and the store work unchanged.

The backend is feasibility-only (the sweep's hot path): a SATISFIABLE
answer maps to ``OPTIMAL`` under the constant objective, UNSAT to
``INFEASIBLE``, and an expired budget to ``TIME_LIMIT``.
"""

from repro.sat.cnf import Cnf
from repro.sat.errors import SatEncodeError
from repro.sat.solver import CdclSolver, SatResult, SatStats

__all__ = [
    "CdclSolver",
    "Cnf",
    "SatEncodeError",
    "SatResult",
    "SatStats",
]
