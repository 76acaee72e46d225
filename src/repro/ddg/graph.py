"""The data dependence graph (DDG) data structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple, TYPE_CHECKING

from repro.ddg.errors import DdgError

if TYPE_CHECKING:
    from repro.machine import Machine


@dataclass(frozen=True)
class Op:
    """One operation of the loop body."""

    name: str
    op_class: str
    index: int

    def __repr__(self) -> str:
        return f"Op({self.name}:{self.op_class}@{self.index})"


@dataclass(frozen=True)
class Dep:
    """A dependence edge ``src -> dst`` with iteration distance ``m_ij``.

    ``distance`` counts how many iterations later the consumer runs
    (the omega of the classic notation).  ``kind`` is a free-form label
    ("flow", "anti", "output", "mem-flow", ...).

    ``latency`` optionally overrides the separation the edge enforces
    (``t_dst - t_src >= latency - T*m``); when ``None`` the producer's
    machine latency ``d_src`` applies.  Anti and output memory
    dependences use an override of 1: the conflicting access only has to
    *start* after the first, not wait for its result.
    """

    src: int
    dst: int
    distance: int
    kind: str = "flow"
    latency: Optional[int] = None

    def __repr__(self) -> str:
        extra = f", lat={self.latency}" if self.latency is not None else ""
        return (
            f"Dep({self.src}->{self.dst}, m={self.distance}, "
            f"{self.kind}{extra})"
        )


class Ddg:
    """A loop-body dependence graph.

    Build incrementally::

        g = Ddg("dotprod")
        a = g.add_op("i0", "load")
        b = g.add_op("i1", "fadd")
        g.add_dep(a, b)                      # intra-iteration
        g.add_dep(b, b, distance=1)          # loop-carried reduction
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self.ops: List[Op] = []
        self.deps: List[Dep] = []
        self._by_name: Dict[str, int] = {}

    # -- construction ---------------------------------------------------------
    def add_op(self, name: str, op_class: str) -> Op:
        if name in self._by_name:
            raise DdgError(f"duplicate op name {name!r}")
        op = Op(name, op_class, len(self.ops))
        self.ops.append(op)
        self._by_name[name] = op.index
        return op

    def add_dep(
        self,
        src,
        dst,
        distance: int = 0,
        kind: str = "flow",
        latency: Optional[int] = None,
    ) -> Dep:
        """Add a dependence; ``src``/``dst`` may be ops, names or indices."""
        s = self._resolve(src)
        d = self._resolve(dst)
        if distance < 0:
            raise DdgError(f"dependence distance must be >= 0, got {distance}")
        if latency is not None and latency < 0:
            raise DdgError(f"dependence latency must be >= 0, got {latency}")
        if s == d and distance == 0:
            raise DdgError(
                f"op {self.ops[s].name!r} cannot depend on itself in the "
                "same iteration"
            )
        dep = Dep(s, d, distance, kind, latency)
        self.deps.append(dep)
        return dep

    def _resolve(self, ref) -> int:
        if isinstance(ref, Op):
            if ref.index >= len(self.ops) or self.ops[ref.index] is not ref:
                raise DdgError(f"op {ref.name!r} belongs to a different DDG")
            return ref.index
        if isinstance(ref, str):
            try:
                return self._by_name[ref]
            except KeyError:
                raise DdgError(f"unknown op name {ref!r}") from None
        if isinstance(ref, int):
            if not 0 <= ref < len(self.ops):
                raise DdgError(f"op index {ref} out of range")
            return ref
        raise DdgError(f"cannot resolve op reference {ref!r}")

    # -- queries -------------------------------------------------------------------
    @property
    def num_ops(self) -> int:
        return len(self.ops)

    @property
    def num_deps(self) -> int:
        return len(self.deps)

    def op(self, ref) -> Op:
        return self.ops[self._resolve(ref)]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def __iter__(self) -> Iterator[Op]:
        return iter(self.ops)

    def successors(self, ref) -> List[Tuple[Op, Dep]]:
        idx = self._resolve(ref)
        return [(self.ops[d.dst], d) for d in self.deps if d.src == idx]

    def predecessors(self, ref) -> List[Tuple[Op, Dep]]:
        idx = self._resolve(ref)
        return [(self.ops[d.src], d) for d in self.deps if d.dst == idx]

    def classes_used(self) -> List[str]:
        """Distinct op classes, in first-appearance order."""
        seen: Dict[str, None] = {}
        for op in self.ops:
            seen.setdefault(op.op_class, None)
        return list(seen)

    # -- machine integration ------------------------------------------------------------
    def validate_against(self, machine: "Machine") -> None:
        """Check every op class exists on the machine."""
        for op in self.ops:
            machine.op_class(op.op_class)  # raises MachineError if unknown

    def latencies(self, machine: "Machine") -> List[int]:
        """Per-op dependence latency ``d_i`` under ``machine``."""
        return [machine.latency(op.op_class) for op in self.ops]

    def dep_latencies(self, machine: "Machine") -> List[int]:
        """Per-edge enforced separation, aligned with :attr:`deps`.

        Each edge's override if set, otherwise its producer's latency.
        """
        lat = self.latencies(machine)
        return [
            dep.latency if dep.latency is not None else lat[dep.src]
            for dep in self.deps
        ]

    def copy(self, name: Optional[str] = None) -> "Ddg":
        clone = Ddg(name or self.name)
        for op in self.ops:
            clone.add_op(op.name, op.op_class)
        for dep in self.deps:
            clone.add_dep(dep.src, dep.dst, dep.distance, dep.kind,
                          dep.latency)
        return clone

    def __repr__(self) -> str:
        return f"Ddg({self.name!r}, ops={self.num_ops}, deps={self.num_deps})"
