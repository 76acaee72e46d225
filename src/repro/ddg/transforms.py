"""DDG transformations: loop unrolling and renaming.

Unrolling replicates the loop body ``factor`` times and rewires
dependences: a dependence with distance ``m`` from copy ``a`` reaches
copy ``(a + m) mod factor`` of the destination at distance
``(a + m) // factor``.  Scheduling the unrolled body at period ``T'``
yields an effective per-original-iteration rate of ``T'/factor`` — the
classic way to beat a fractional recurrence bound, used by the unrolling
ablation bench.
"""

from __future__ import annotations

from repro.ddg.errors import DdgError
from repro.ddg.graph import Ddg


def unroll(ddg: Ddg, factor: int) -> Ddg:
    """Return the ``factor``-times unrolled body of ``ddg``.

    Op ``x`` of copy ``a`` is named ``{x}__u{a}``.  Intra-iteration
    dependences are replicated within each copy; loop-carried
    dependences step forward ``m`` copies, wrapping into the next
    unrolled iteration with the distance divided accordingly.
    """
    if factor < 1:
        raise DdgError(f"unroll factor must be >= 1, got {factor}")
    if factor == 1:
        return ddg.copy()
    unrolled = Ddg(f"{ddg.name}__x{factor}")
    for copy_index in range(factor):
        for op in ddg.ops:
            unrolled.add_op(f"{op.name}__u{copy_index}", op.op_class)

    def renamed(op_index: int, copy_index: int) -> str:
        return f"{ddg.ops[op_index].name}__u{copy_index}"

    for dep in ddg.deps:
        for copy_index in range(factor):
            target_copy = copy_index + dep.distance
            new_distance, dst_copy = divmod(target_copy, factor)
            unrolled.add_dep(
                renamed(dep.src, copy_index),
                renamed(dep.dst, dst_copy),
                distance=new_distance,
                kind=dep.kind,
                latency=dep.latency,
            )
    return unrolled


def scrambled(ddg: Ddg, rng, name: str = "", prefix: str = "q") -> Ddg:
    """An isomorphic copy with renamed ops, shuffled op and dep order.

    Structurally identical to ``ddg`` (same classes, same dependence
    structure) but textually unrecognizable — the adversarial input the
    canonical digest (:mod:`repro.ddg.canonical`) must see through.
    ``rng`` is a :class:`random.Random`.
    """
    order = list(range(ddg.num_ops))
    rng.shuffle(order)
    new_of_old = {old: new for new, old in enumerate(order)}
    copy = Ddg(name or f"{ddg.name}_scrambled")
    for new, old in enumerate(order):
        copy.add_op(f"{prefix}{new}", ddg.ops[old].op_class)
    deps = list(ddg.deps)
    rng.shuffle(deps)
    for dep in deps:
        copy.add_dep(new_of_old[dep.src], new_of_old[dep.dst],
                     dep.distance, dep.kind, dep.latency)
    return copy
