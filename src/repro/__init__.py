"""repro — rate-optimal software pipelining with structural hazards.

A production-quality reproduction of

    Erik R. Altman, R. Govindarajan, Guang R. Gao.
    *Scheduling and Mapping: Software Pipelining in the Presence of
    Structural Hazards.*  PLDI 1995.

Quickstart::

    from repro import schedule_loop, kernels, presets

    machine = presets.motivating_machine()
    loop = kernels.motivating_example()
    result = schedule_loop(loop, machine)
    print(result.summary())
    print(result.schedule.render_kernel())

Layout:

* :mod:`repro.core`      — the unified ILP scheduling+mapping formulation
* :mod:`repro.ddg`       — dependence graphs, kernels, generators
* :mod:`repro.machine`   — reservation tables, FU types, machine presets
* :mod:`repro.ilp`       — modeling layer + HiGHS backend dispatch
* :mod:`repro.baselines` — iterative modulo scheduling, list scheduling
* :mod:`repro.sim`       — cycle-accurate replay (hazard cross-check)
* :mod:`repro.codegen`   — prolog/kernel/epilog emission
* :mod:`repro.parallel`  — multiprocess period racing + corpus batch runs
"""

from repro.core import (
    Formulation,
    FormulationOptions,
    LowerBounds,
    MappingError,
    ModuloInfeasibleError,
    Schedule,
    SchedulingResult,
    VerificationError,
    lower_bounds,
    schedule_loop,
    verify_schedule,
)
from repro.ddg import Ddg
from repro.ddg import generators, kernels
from repro.frontend import compile_loop
from repro.machine import Machine, ReservationTable
from repro.machine import presets

__version__ = "1.0.0"

__all__ = [
    "Ddg",
    "Formulation",
    "FormulationOptions",
    "LowerBounds",
    "Machine",
    "MappingError",
    "ModuloInfeasibleError",
    "ReservationTable",
    "Schedule",
    "SchedulingResult",
    "VerificationError",
    "__version__",
    "compile_loop",
    "generators",
    "kernels",
    "lower_bounds",
    "presets",
    "schedule_loop",
    "verify_schedule",
]
