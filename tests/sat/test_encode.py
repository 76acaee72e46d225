"""The CNF lowering of dependences: exact, and linear in T and K.

Each dependence ``T*(k_dst - k_src) + v_dst - v_src >= rho`` is lowered
over order literals for the stage counters and the slot residues, so
its clause count grows with the slot window and the stage range, not
with their product.  The brute-force test pins every (stage, slot)
assignment of a two-op loop to the arithmetic; the linearity test pins
the clause count on the adversarial loop whose quadratic lowering made
the SAT backend time out at T=70.
"""

import time

import pytest

from repro.core.formulation import Formulation, FormulationOptions
from repro.corpusgen import FamilySpec, iter_corpus
from repro.ddg import Ddg
from repro.ddg.generators import GenParams, adversarial_params
from repro.ilp.solution import SolveStatus
from repro.machine.presets import by_name, clean_machine
from repro.sat.encode import _encode_dependence, encode_formulation
from repro.sat.solver import SAT, CdclSolver


def _pair(distance: int) -> Ddg:
    g = Ddg("pair")
    g.add_op("m", "fmul")
    g.add_op("l", "load")
    g.add_dep("m", "l", distance=distance)
    return g


def _fix(encoding, op, k, v):
    """Unit clauses pinning op's stage to ``k`` and its slot to ``v``."""
    units = [[encoding.slot_lits[op][v]]]
    lb = encoding.k_lb[op]
    for j, lit in enumerate(encoding.k_lits[op]):
        units.append([lit] if k >= lb + j + 1 else [-lit])
    return units


@pytest.mark.parametrize("t_period", (1, 2, 3, 5, 8))
@pytest.mark.parametrize("distance", (0, 1, 2, 3))
@pytest.mark.parametrize("presolve", (True, False))
def test_dependence_clauses_match_the_arithmetic(t_period, distance,
                                                 presolve):
    machine = clean_machine()
    ddg = _pair(distance)
    formulation = Formulation(ddg, machine, t_period,
                              FormulationOptions(presolve=presolve))
    encoding = encode_formulation(formulation)
    rho = ddg.dep_latencies(machine)[0] - t_period * distance

    def stages(op):
        lb = encoding.k_lb[op]
        return range(lb, lb + len(encoding.k_lits[op]) + 1)

    for k_m in stages(0):
        for v_m in encoding.slot_lits[0]:
            for k_l in stages(1):
                for v_l in encoding.slot_lits[1]:
                    clauses = (encoding.cnf.clauses
                               + _fix(encoding, 0, k_m, v_m)
                               + _fix(encoding, 1, k_l, v_l))
                    result = CdclSolver(encoding.cnf.num_vars,
                                        clauses).solve()
                    holds = (t_period * (k_l - k_m) + v_l - v_m) >= rho
                    assert (result.status == SAT) == holds, (
                        k_m, v_m, k_l, v_l
                    )


def _gen00133():
    """``test_corpus_scaling``'s adversarial ``coreblocks`` loop 13."""
    machine = by_name("coreblocks")
    families = [
        FamilySpec("guaranteed", 120, "ddg", GenParams()),
        FamilySpec("adversarial", 20, "ddg", adversarial_params(max_ops=24)),
    ]
    for _family, _seed, ddg in iter_corpus(42, machine, families):
        if ddg.name == "gen00133":
            return ddg, machine
    raise AssertionError("gen00133 not generated")


def test_one_dependence_is_linear_in_t_and_k():
    ddg, machine = _gen00133()
    t_period = 70
    formulation = Formulation(ddg, machine, t_period, FormulationOptions())
    encoding = encode_formulation(formulation)
    separations = ddg.dep_latencies(machine)
    cnf = encoding.cnf
    for e, dep in enumerate(ddg.deps):
        if dep.src == dep.dst:
            continue
        stages = max(len(encoding.k_lits[dep.src]),
                     len(encoding.k_lits[dep.dst])) + 1
        before = cnf.num_clauses
        _encode_dependence(encoding, dep.src, dep.dst,
                           separations[e] - t_period * dep.distance,
                           t_period)
        assert cnf.num_clauses - before <= 3 * (t_period + stages), dep


@pytest.mark.slow
def test_sat_proves_gen00133_infeasible_at_t70_within_the_cap():
    ddg, machine = _gen00133()
    formulation = Formulation(ddg, machine, 70, FormulationOptions())
    start = time.monotonic()
    solution = formulation.solve(backend="sat", time_limit=10.0)
    assert solution.status == SolveStatus.INFEASIBLE
    assert time.monotonic() - start < 10.0
