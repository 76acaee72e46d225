"""Register allocation for software-pipelined kernels.

Values in a modulo schedule have *cyclic* live ranges: a range longer
than ``T`` overlaps the next iteration's instance of itself, so the
kernel is unrolled by the modulo-variable-expansion factor ``U`` (see
:func:`repro.registers.unroll_factor`) and every value instance becomes
a circular arc on a circle of ``U * T`` slots.  Allocation is then
circular-arc coloring — the same problem (and the same Hendren et
al. [10] framing) the paper uses for FU mapping, applied to registers,
with first-fit coloring in start order.

The allocator is exact about *conflicts* (two arcs sharing a register
never overlap — independently validated) and heuristic about *count*
(first-fit on circular arcs uses at most ``2 * MaxLive - 1`` registers;
in practice it lands close to the MaxLive lower bound).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.errors import VerificationError
from repro.core.schedule import Schedule
from repro.registers.pressure import (
    max_live,
    unroll_factor,
    value_live_ranges,
)


@dataclass(frozen=True)
class ValueRange:
    """One value's live range: producer op + absolute [def, last_use)."""

    producer: int
    define_time: int
    last_use: int

    @property
    def span(self) -> int:
        return self.last_use - self.define_time


@dataclass
class RegisterAllocation:
    """Result of :func:`allocate_registers`."""

    schedule: Schedule
    unroll: int
    num_registers: int
    #: (producer op, kernel copy 0..unroll-1) -> register index
    assignment: Dict[Tuple[int, int], int] = field(default_factory=dict)
    ranges: List[ValueRange] = field(default_factory=list)

    @property
    def circle(self) -> int:
        """Slots on the allocation circle (= unroll * T)."""
        return self.unroll * self.schedule.t_period

    def register_name(self, producer: int, copy: int) -> str:
        return f"r{self.assignment[(producer, copy)]}"

    def render(self) -> str:
        lines = [
            f"register allocation for {self.schedule.ddg.name!r}: "
            f"{self.num_registers} register(s), kernel unrolled "
            f"x{self.unroll} (circle {self.circle})"
        ]
        for value in self.ranges:
            op_name = self.schedule.ddg.ops[value.producer].name
            regs = ", ".join(
                self.register_name(value.producer, copy)
                for copy in range(self.unroll)
            )
            lines.append(
                f"  {op_name}: live [{value.define_time}, "
                f"{value.last_use}) -> {regs}"
            )
        return "\n".join(lines)


def value_ranges(schedule: Schedule) -> List[ValueRange]:
    """Live range per value-producing op (ops with flow consumers).

    A value is defined at its producer's completion and dies at its last
    consumer's start (across loop-carried uses); see
    :func:`repro.registers.pressure.value_live_ranges`.
    """
    return [
        ValueRange(producer=producer, define_time=define, last_use=last)
        for producer, define, last in value_live_ranges(schedule)
    ]


def _arcs_conflict(a_start: int, a_len: int, b_start: int, b_len: int,
                   circle: int) -> bool:
    """Whether two arcs on the circle intersect (cell-exact)."""
    a_cells = {(a_start + k) % circle for k in range(a_len)}
    return any((b_start + k) % circle in a_cells for k in range(b_len))


def allocate_registers(
    schedule: Schedule, max_registers: Optional[int] = None
) -> RegisterAllocation:
    """First-fit circular-arc register allocation.

    Raises :class:`VerificationError` if ``max_registers`` is given and
    insufficient, or if any live range spans the whole circle (cannot
    happen for ranges bounded by ``U * T`` by construction).
    """
    t_period = schedule.t_period
    unroll = unroll_factor(schedule)
    circle = unroll * t_period
    ranges = value_ranges(schedule)

    arcs: List[Tuple[int, int, int, int]] = []  # (start, len, producer, copy)
    for value in ranges:
        length = value.span
        if length >= circle:
            # By definition of the unroll factor, span <= unroll * T.
            length = circle  # pragma: no cover - defensive
        for copy in range(unroll):
            start = (value.define_time + copy * t_period) % circle
            arcs.append((start, length, value.producer, copy))

    arcs.sort(key=lambda a: (a[0], -a[1], a[2], a[3]))
    assignment: Dict[Tuple[int, int], int] = {}
    register_arcs: List[List[Tuple[int, int]]] = []  # per register
    for start, length, producer, copy in arcs:
        placed = False
        for register, existing in enumerate(register_arcs):
            if all(
                not _arcs_conflict(start, length, other, span, circle)
                for other, span in existing
            ):
                existing.append((start, length))
                assignment[(producer, copy)] = register
                placed = True
                break
        if not placed:
            register_arcs.append([(start, length)])
            assignment[(producer, copy)] = len(register_arcs) - 1
    num_registers = len(register_arcs)
    if max_registers is not None and num_registers > max_registers:
        raise VerificationError(
            f"allocation needs {num_registers} registers but only "
            f"{max_registers} are available"
        )
    allocation = RegisterAllocation(
        schedule=schedule,
        unroll=unroll,
        num_registers=num_registers,
        assignment=assignment,
        ranges=ranges,
    )
    validate_allocation(allocation)
    return allocation


def validate_allocation(allocation: RegisterAllocation) -> None:
    """Independent conflict check: no register holds two live values at
    one circle slot."""
    circle = allocation.circle
    t_period = allocation.schedule.t_period
    occupancy: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for value in allocation.ranges:
        for copy in range(allocation.unroll):
            register = allocation.assignment[(value.producer, copy)]
            start = (value.define_time + copy * t_period) % circle
            for k in range(value.span):
                slot = (start + k) % circle
                holder = occupancy.get((register, slot))
                if holder is not None and holder != (value.producer, copy):
                    raise VerificationError(
                        f"register r{register} holds two values at "
                        f"slot {slot}: op {holder[0]} copy {holder[1]} "
                        f"and op {value.producer} copy {copy}"
                    )
                occupancy[(register, slot)] = (value.producer, copy)

    lower = max_live(allocation.schedule)
    if allocation.num_registers < lower:
        raise VerificationError(
            f"allocation claims {allocation.num_registers} registers, "
            f"below the MaxLive lower bound {lower}"
        )
