"""Schedule objects and the deterministic greedy mapper.

A :class:`Schedule` records the periodic schedule (start times under the
linear form of Eq. 1), the fixed instruction-to-FU mapping (*colors*), and
helpers to inspect both (kernel rows, per-stage modulo usage tables for
Figure 2-style displays, the T/K/A matrices of Figure 3).

:func:`greedy_mapping` assigns physical FUs by first-fit over the modulo
reservation tables.  For *clean* pipelines it always succeeds (ops
conflict only when they share a start slot, and aggregate capacity bounds
each slot's population).  For unclean pipelines it may fail even when the
aggregate counts fit — that failure is precisely the phenomenon that
motivates the paper's coloring formulation, and it is surfaced as
:class:`repro.core.errors.MappingError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core import periodic
from repro.core.errors import MappingError, VerificationError
from repro.ddg.graph import Ddg
from repro.machine import Machine


def greedy_mapping(
    ddg: Ddg,
    machine: Machine,
    starts: List[int],
    t_period: int,
    partial: Optional[Dict[int, int]] = None,
) -> Dict[int, int]:
    """First-fit fixed FU assignment for the given start times.

    ``partial`` pins colors already chosen (e.g. by the ILP); they are
    stamped first and trusted-but-verified (a conflict raises
    :class:`VerificationError` since it means the solver lied).  Remaining
    ops are placed greedily in slot order; an op with no conflict-free FU
    copy raises :class:`MappingError`.
    """
    partial = dict(partial or {})
    occupancy: Dict[Tuple[str, int], np.ndarray] = {}

    def board(fu_name: str, copy: int) -> np.ndarray:
        key = (fu_name, copy)
        if key not in occupancy:
            stages = machine.stage_count(fu_name)
            occupancy[key] = np.zeros((stages, t_period), dtype=int)
        return occupancy[key]

    def cells(op_index: int) -> List[Tuple[int, int]]:
        op = ddg.ops[op_index]
        table = machine.reservation_for(op.op_class)
        offset = starts[op_index] % t_period
        return [
            (stage, (offset + cycle) % t_period)
            for stage, cycle in table.usage_offsets()
        ]

    def try_place(op_index: int, fu_name: str, copy: int,
                  strict: bool) -> bool:
        grid = board(fu_name, copy)
        spots = cells(op_index)
        if any(grid[s, t] for s, t in spots):
            if strict:
                raise VerificationError(
                    f"op {ddg.ops[op_index].name!r} collides on "
                    f"{fu_name}#{copy} under its pinned color"
                )
            return False
        for s, t in spots:
            grid[s, t] = 1
        return True

    for op_index, color in sorted(partial.items()):
        fu_name = machine.op_class(ddg.ops[op_index].op_class).fu_type
        try_place(op_index, fu_name, color, strict=True)

    order = sorted(
        (i for i in range(ddg.num_ops) if i not in partial),
        key=lambda i: (starts[i] % t_period, i),
    )
    colors = dict(partial)
    for op_index in order:
        fu = machine.fu_type_of(ddg.ops[op_index].op_class)
        for copy in range(fu.count):
            if try_place(op_index, fu.name, copy, strict=False):
                colors[op_index] = copy
                break
        else:
            raise MappingError(
                f"no fixed FU assignment: op {ddg.ops[op_index].name!r} "
                f"fits on none of the {fu.count} {fu.name} unit(s) at "
                f"T={t_period}"
            )
    return colors


@dataclass
class Schedule:
    """A software-pipelined schedule with fixed FU assignment.

    ``starts[i]`` is ``t_i`` (iteration ``j`` starts op ``i`` at
    ``j*T + t_i``); ``colors[i]`` is the 0-based physical copy of the
    op's FU type.  ``colors`` may be partial when the schedule was built
    by the counting-only relaxation and no mapping exists.
    """

    ddg: Ddg
    machine: Machine
    t_period: int
    starts: List[int]
    colors: Dict[int, int] = field(default_factory=dict)
    fu_counts_used: Optional[Dict[str, int]] = None

    # -- periodic form -----------------------------------------------------------
    @property
    def offsets(self) -> List[int]:
        return periodic.offsets(self.starts, self.t_period)

    @property
    def k_vector(self) -> List[int]:
        k, _ = periodic.decompose(self.starts, self.t_period)
        return k

    @property
    def a_matrix(self) -> np.ndarray:
        _, a = periodic.decompose(self.starts, self.t_period)
        return a

    @property
    def num_software_stages(self) -> int:
        """Depth of the software pipeline (max K + 1)."""
        return max(self.k_vector) + 1

    @property
    def span(self) -> int:
        """Cycles from iteration start to its last op's completion."""
        return max(
            t + self.machine.latency(op.op_class)
            for t, op in zip(self.starts, self.ddg.ops)
        )

    @property
    def has_complete_mapping(self) -> bool:
        return all(i in self.colors for i in range(self.ddg.num_ops))

    def fu_label(self, op_index: int) -> str:
        fu = self.machine.fu_type_of(self.ddg.ops[op_index].op_class)
        if op_index in self.colors:
            return f"{fu.name}{self.colors[op_index]}"
        return f"{fu.name}?"

    # -- inspection --------------------------------------------------------------------
    def kernel_rows(self) -> List[List[str]]:
        """Per-slot kernel contents: ``rows[t]`` lists ``"op/FUn(+k)"``."""
        rows: List[List[str]] = [[] for _ in range(self.t_period)]
        for op in self.ddg.ops:
            slot = self.starts[op.index] % self.t_period
            stage = self.starts[op.index] // self.t_period
            rows[slot].append(f"{op.name}/{self.fu_label(op.index)}(+{stage})")
        return rows

    def stage_usage_table(
        self, fu_name: str, copy: Optional[int] = None
    ) -> np.ndarray:
        """Modulo stage-usage counts for an FU type (Figure 2 display).

        With ``copy`` given, restrict to ops mapped to that physical unit
        — every entry must then be 0/1 for a valid schedule.  Without it,
        aggregate over all copies (entries bounded by the FU count).
        """
        stages = self.machine.stage_count(fu_name)
        grid = np.zeros((stages, self.t_period), dtype=int)
        for op in self.ddg.ops:
            cls = self.machine.op_class(op.op_class)
            if cls.fu_type != fu_name:
                continue
            if copy is not None and self.colors.get(op.index) != copy:
                continue
            table = self.machine.reservation_for(op.op_class)
            offset = self.starts[op.index] % self.t_period
            for stage, cycle in table.usage_offsets():
                grid[stage, (offset + cycle) % self.t_period] += 1
        return grid

    # -- rendering ----------------------------------------------------------------------
    def render_kernel(self) -> str:
        lines = [
            f"kernel of {self.ddg.name!r}: T={self.t_period}, "
            f"span={self.span}, stages={self.num_software_stages}"
        ]
        for t, entries in enumerate(self.kernel_rows()):
            content = "  ".join(entries) if entries else "-"
            lines.append(f"  slot {t}: {content}")
        return "\n".join(lines)

    def render_tka(self) -> str:
        """Figure 3-style T/K/A matrix rendering."""
        return periodic.format_tka(
            self.starts, self.t_period, [op.name for op in self.ddg.ops]
        )

    def render_usage(self, fu_name: str) -> str:
        """Figure 2-style per-unit stage usage tables."""
        fu = self.machine.fu_type(fu_name)
        blocks = []
        for copy in range(fu.count):
            grid = self.stage_usage_table(fu_name, copy)
            lines = [f"{fu_name}#{copy} (T={self.t_period})"]
            lines.append("          " + " ".join(f"{t:>2}" for t in range(self.t_period)))
            for stage in range(grid.shape[0]):
                row = " ".join(f"{v:>2}" for v in grid[stage])
                lines.append(f"  Stage {stage + 1} {row}")
            blocks.append("\n".join(lines))
        return "\n".join(blocks)

    # -- serialization --------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "loop": self.ddg.name,
            "t_period": self.t_period,
            "starts": list(self.starts),
            "colors": {str(k): v for k, v in self.colors.items()},
            "fu_counts_used": self.fu_counts_used,
        }

    @classmethod
    def from_dict(cls, data: dict, ddg: Ddg, machine: Machine) -> "Schedule":
        """Rebuild a schedule against its loop and machine.

        The DDG and machine are context, not payload (a schedule is
        meaningless without them); the loop name is cross-checked.
        """
        if data.get("loop") != ddg.name:
            raise VerificationError(
                f"schedule was saved for loop {data.get('loop')!r}, "
                f"not {ddg.name!r}"
            )
        starts = [int(v) for v in data["starts"]]
        if len(starts) != ddg.num_ops:
            raise VerificationError(
                f"saved schedule has {len(starts)} starts for "
                f"{ddg.num_ops} ops"
            )
        return cls(
            ddg=ddg,
            machine=machine,
            t_period=int(data["t_period"]),
            starts=starts,
            colors={int(k): int(v) for k, v in data["colors"].items()},
            fu_counts_used=data.get("fu_counts_used"),
        )

    def save_json(self, path) -> None:
        """Write the schedule to a JSON file (atomically: a crash or
        kill mid-write never leaves a truncated file at ``path``)."""
        import json

        from repro.supervision.atomicio import atomic_write_text

        atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True)
        )

    def __repr__(self) -> str:
        return (
            f"Schedule({self.ddg.name!r}, T={self.t_period}, "
            f"starts={self.starts}, colors={self.colors})"
        )
