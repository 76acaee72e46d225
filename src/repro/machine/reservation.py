"""Reservation tables (Kogge [15]) and their modulo arithmetic.

A reservation table is an ``s x d`` 0-1 matrix: entry ``(stage, cycle)``
is 1 when an operation issued at cycle 0 occupies ``stage`` at ``cycle``.
Software pipelining wraps the table modulo the initiation interval ``T``;
the paper's **modulo scheduling constraint** (§3, refs [5, 11, 19]) says a
single operation must never occupy one stage at two cycles that are equal
mod ``T`` — otherwise no fixed-FU schedule exists at that ``T`` at all.

The class also implements the *extension to T columns* technique of
Govindarajan–Altman–Gao [8] (zero-padding when ``d < T``) used by the
formulation and the Figure 2 resource-usage displays.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.machine.errors import MachineError


class ReservationTable:
    """An immutable stages-by-cycles usage matrix.

    The matrix is read-only, so what the schedulers ask of it on every
    period is derived once, on construction: each stage's occupied
    cycles and the forbidden latencies.  The accessors hand out fresh
    copies, so no caller can change the cache.
    """

    def __init__(self, rows: Sequence[Sequence[int]]) -> None:
        matrix = np.asarray(rows, dtype=int)
        if matrix.ndim != 2 or matrix.size == 0:
            raise MachineError("reservation table must be a non-empty 2-D matrix")
        if not np.isin(matrix, (0, 1)).all():
            raise MachineError("reservation table entries must be 0 or 1")
        if not matrix.any():
            raise MachineError("reservation table must use at least one stage")
        matrix.setflags(write=False)
        self._matrix = matrix
        self._stage_cycles = [
            [int(c) for c in np.flatnonzero(row)] for row in matrix
        ]
        self._forbidden = frozenset(
            b - a
            for cycles in self._stage_cycles
            for pos, a in enumerate(cycles)
            for b in cycles[pos + 1:]
        )

    # -- basic shape -----------------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def num_stages(self) -> int:
        return len(self._stage_cycles)

    @property
    def length(self) -> int:
        """Number of cycles the table spans (columns)."""
        return int(self._matrix.shape[1])

    def uses(self, stage: int, cycle: int) -> bool:
        """Whether the operation occupies ``stage`` at ``cycle`` (0-based)."""
        if 0 <= cycle < self.length:
            return bool(self._matrix[stage, cycle])
        return False

    def stage_cycles(self, stage: int) -> List[int]:
        """Cycles at which ``stage`` is occupied."""
        return list(self._stage_cycles[stage])

    def stage_usage_counts(self) -> List[int]:
        """Total uses of each stage by one operation."""
        return [int(n) for n in self._matrix.sum(axis=1)]

    @property
    def max_stage_usage(self) -> int:
        """Uses of the busiest stage — drives the resource bound T_res."""
        return int(max(self.stage_usage_counts()))

    # -- hazard structure ----------------------------------------------------------
    def forbidden_latencies(self) -> Set[int]:
        """Issue distances that collide on the *same* physical unit.

        Classic pipeline-hazard analysis: latency ``l > 0`` is forbidden
        when some stage is used at two cycles ``l`` apart.  A clean
        pipeline has no forbidden latencies; a non-pipelined unit of
        execution time ``d`` forbids ``1..d-1``.
        """
        return set(self._forbidden)

    @property
    def is_clean(self) -> bool:
        """True when a new operation may be issued every cycle."""
        return not self._forbidden

    def modulo_feasible(self, t_period: int) -> bool:
        """Check the paper's modulo scheduling constraint for period ``T``.

        Feasible iff no stage is used by one operation at two cycles that
        are congruent mod ``T`` — equivalently no forbidden latency is a
        multiple of ``T``.
        """
        if t_period <= 0:
            raise MachineError(f"period must be positive, got {t_period}")
        return not any(lat % t_period == 0 for lat in self._forbidden)

    # -- modulo wrapping -------------------------------------------------------------
    def modulo_table(self, t_period: int) -> np.ndarray:
        """Wrap the table mod ``T``: counts of uses per (stage, slot).

        This is the per-operation modulo reservation table shown in the
        paper's Figure 2(b).  Under a modulo-feasible ``T`` all entries
        are 0/1.
        """
        if t_period <= 0:
            raise MachineError(f"period must be positive, got {t_period}")
        wrapped = np.zeros((self.num_stages, t_period), dtype=int)
        for stage in range(self.num_stages):
            for cycle in self._stage_cycles[stage]:
                wrapped[stage, cycle % t_period] += 1
        return wrapped

    def usage_offsets(self) -> List[Tuple[int, int]]:
        """All (stage, cycle) pairs the operation occupies."""
        stages, cycles = np.nonzero(self._matrix)
        return [(int(s), int(c)) for s, c in zip(stages, cycles)]

    # -- constructors -----------------------------------------------------------------
    @classmethod
    def clean(cls, depth: int) -> "ReservationTable":
        """A hazard-free pipeline of ``depth`` stages (identity matrix)."""
        if depth < 1:
            raise MachineError("pipeline depth must be >= 1")
        return cls(np.eye(depth, dtype=int))

    @classmethod
    def non_pipelined(cls, busy: int) -> "ReservationTable":
        """A single-stage unit busy for ``busy`` consecutive cycles."""
        if busy < 1:
            raise MachineError("busy time must be >= 1")
        return cls(np.ones((1, busy), dtype=int))

    @classmethod
    def from_rows(cls, *rows: Iterable[int]) -> "ReservationTable":
        """Build from explicit stage rows, e.g. ``from_rows([1,0],[0,1])``."""
        return cls([list(r) for r in rows])

    # -- niceties -------------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReservationTable):
            return NotImplemented
        return (
            self._matrix.shape == other._matrix.shape
            and bool((self._matrix == other._matrix).all())
        )

    def __hash__(self) -> int:
        return hash((self._matrix.shape, self._matrix.tobytes()))

    def render(self, title: str = "") -> str:
        """ASCII rendering in the paper's Figure 2 style."""
        lines = []
        if title:
            lines.append(title)
        header = "         " + " ".join(f"{c:>2}" for c in range(self.length))
        lines.append(header)
        for stage in range(self.num_stages):
            cells = " ".join(f"{v:>2}" for v in self._matrix[stage])
            lines.append(f"Stage {stage + 1:>2} {cells}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        rows = ";".join("".join(str(v) for v in row) for row in self._matrix)
        return f"ReservationTable({rows})"
