"""The paper's contribution: unified ILP scheduling + mapping.

* :mod:`repro.core.periodic` — the linear periodic schedule form
  ``T = T*K + A' * [0..T-1]'`` (paper Eq. 1/7/22).
* :mod:`repro.core.bounds` — ``T_dep``, ``T_res``, ``T_lb`` and the
  modulo-scheduling-constraint filter on candidate periods.
* :mod:`repro.core.formulation` — the ILP: basic clean-pipeline form [9],
  non-pipelined extension (§4.1), circular-arc-coloring mapping (§4.2),
  reservation-table structural hazards (§5), optional objectives.
* :mod:`repro.core.scheduler` — the driver that sweeps ``T`` upward from
  ``T_lb`` until the ILP is feasible (rate-optimal by construction).
* :mod:`repro.core.schedule` / :mod:`repro.core.verify` — the resulting
  schedule object and an independent validity checker.
"""

from repro.core.bounds import LowerBounds, lower_bounds, modulo_feasible_t, t_res
from repro.core.errors import (
    CoreError,
    MappingError,
    ModuloInfeasibleError,
    SchedulingError,
    VerificationError,
)
from repro.core.explain import Diagnosis, Reason, explain_infeasibility
from repro.core.formulation import Formulation, FormulationOptions
from repro.core.schedule import Schedule
from repro.core.scheduler import (
    HEURISTIC,
    AttemptConfig,
    AttemptOutcome,
    ScheduleAttempt,
    SchedulingResult,
    WarmStartStats,
    attempt_period,
    run_sweep,
    schedule_loop,
)
from repro.core.verify import verify_schedule
from repro.core.warmstart import WarmStart, compute_warmstart, warmstart_assignment

__all__ = [
    "AttemptConfig",
    "AttemptOutcome",
    "attempt_period",
    "CoreError",
    "Diagnosis",
    "Reason",
    "explain_infeasibility",
    "Formulation",
    "FormulationOptions",
    "LowerBounds",
    "MappingError",
    "ModuloInfeasibleError",
    "Schedule",
    "ScheduleAttempt",
    "SchedulingError",
    "SchedulingResult",
    "VerificationError",
    "HEURISTIC",
    "WarmStart",
    "WarmStartStats",
    "compute_warmstart",
    "lower_bounds",
    "modulo_feasible_t",
    "run_sweep",
    "schedule_loop",
    "t_res",
    "verify_schedule",
    "warmstart_assignment",
]
