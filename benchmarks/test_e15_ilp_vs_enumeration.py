"""E15: ILP vs exhaustive search — the paper's §7 open question.

The conclusion asks whether "cleverly designed exhaustive search methods
[will] be superior to an ILP solver in terms of efficiency" (ref [2]).
This bench races the two exact methods over the tiny-loop corpus and the
hand kernels: they must agree on the optimal T everywhere (both are
exact), and we report who was faster and by how much.
"""

from conftest import once

from repro.core import schedule_loop
from repro.ddg.kernels import KERNELS
from repro.enumerative import enumerative_schedule_loop


def test_e15_ilp_vs_enumeration(benchmark, tiny_corpus, ppc604):
    def run():
        rows = []
        loops = [KERNELS[k]() for k in sorted(KERNELS)] + [
            g for g in tiny_corpus if g.num_ops <= 10
        ]
        for ddg in loops:
            # Cold: with the warm start on, the heuristic settles
            # almost every loop and "ilp s" would time it, not the MILP.
            # HiGHS by name: under feasibility ``auto`` runs SAT.
            ilp = schedule_loop(ddg, ppc604, backend="highs",
                                time_limit_per_t=10.0, max_extra=6,
                                warmstart=False)
            enumerated = enumerative_schedule_loop(
                ddg, ppc604, time_limit_per_t=10.0, max_extra=6
            )
            ilp_seconds = sum(a.seconds for a in ilp.attempts)
            rows.append((
                ddg.name, ddg.num_ops,
                ilp.achieved_t, enumerated.achieved_t,
                ilp_seconds, enumerated.seconds, enumerated.nodes,
            ))
        return rows

    rows = once(benchmark, run)

    print()
    print(f"{'loop':<12} {'ops':>4} {'T(ilp)':>7} {'T(enum)':>8} "
          f"{'ilp s':>8} {'enum s':>8} {'enum nodes':>11}")
    enum_wins = 0
    compared = 0
    for name, ops, t_ilp, t_enum, s_ilp, s_enum, nodes in rows:
        print(f"{name:<12} {ops:>4} {str(t_ilp):>7} {str(t_enum):>8} "
              f"{s_ilp:>8.4f} {s_enum:>8.4f} {nodes:>11}")
        if t_ilp is not None and t_enum is not None:
            assert t_ilp == t_enum, name  # both exact -> must agree
            compared += 1
            if s_enum < s_ilp:
                enum_wins += 1
    print(f"\nenumeration faster on {enum_wins}/{compared} loops "
          "(the paper's open question, answered for this corpus)")
    assert compared >= len(rows) * 3 // 4
