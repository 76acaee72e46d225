"""The SAT backend's decision order changes the search, never the verdict.

:func:`repro.sat.backend.solve_formulation` seeds the CDCL kernel with
every op's slot literals (:func:`repro.sat.backend.decision_order`), so
its first decisions place op after op in its earliest slot, the way a
list scheduler would.  These tests capture every CNF a cold SAT sweep
hands the kernel and replay it without the order: the status must be
the same.  On ``corpus/`` the seeded sweep needs no conflict at all,
where the unseeded replay needs hundreds, so dropping the order fails
here.
"""

import pytest

import repro.sat.backend as backend
from repro.core import schedule_loop
from repro.corpusgen import FamilySpec, iter_corpus, resolve_machine
from repro.ddg.generators import GenParams, adversarial_params
from repro.sat.solver import CdclSolver
from tests.sat.test_search_golden import _loops

TIME_LIMIT = 10.0


def _sweep_cells(loops, max_extra=10):
    """``(num_vars, clauses, prefer, result)`` of every SAT solve."""
    cells = []

    class Recording(CdclSolver):
        def __init__(self, num_vars, clauses, prefer=()):
            super().__init__(num_vars, clauses, prefer)
            self.cell = [num_vars, clauses, prefer]
            cells.append(self.cell)

        def solve(self, *args, **kwargs):
            result = super().solve(*args, **kwargs)
            self.cell.append(result)
            return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(backend, "CdclSolver", Recording)
        for ddg, machine in loops:
            schedule_loop(ddg, machine, backend="sat", warmstart=False,
                          time_limit_per_t=TIME_LIMIT, max_extra=max_extra)
    return [tuple(cell) for cell in cells]


def _replay_unseeded(cells):
    """Total unseeded conflicts; asserts each status matches the sweep's."""
    conflicts = 0
    for num_vars, clauses, prefer, seeded in cells:
        assert prefer, "the backend passed no decision order"
        plain = CdclSolver(num_vars, clauses).solve(time_limit=TIME_LIMIT)
        assert plain.status == seeded.status, (num_vars, len(clauses))
        conflicts += plain.stats.conflicts
    return conflicts


@pytest.fixture(scope="module")
def golden_cells():
    """The sweep's CNFs on the golden test's loops, by source."""
    by_source = {}
    for (source, _machine, _name), loop in _loops().items():
        by_source.setdefault(source, []).append(loop)
    return {source: _sweep_cells(loops)
            for source, loops in by_source.items()}


def test_corpus_sweep_needs_no_conflict(golden_cells):
    cells = golden_cells["corpus"]
    assert len(cells) >= 20
    assert sum(cell[3].stats.conflicts for cell in cells) == 0
    assert _replay_unseeded(cells) > 0


def test_slice_verdicts_do_not_depend_on_the_order(golden_cells):
    cells = golden_cells["slice"]
    assert len(cells) >= 100
    seeded = sum(cell[3].stats.conflicts for cell in cells)
    assert seeded < _replay_unseeded(cells)


@pytest.mark.slow
def test_coreblocks_adversarial_verdicts_do_not_depend_on_the_order():
    """``test_corpus_scaling``'s adversarial ``coreblocks`` family."""
    machine = resolve_machine("coreblocks")
    families = [
        FamilySpec("guaranteed", 120, "ddg", GenParams()),
        FamilySpec("adversarial", 20, "ddg", adversarial_params(max_ops=24)),
    ]
    loops = [(ddg, machine)
             for family, _seed, ddg in iter_corpus(42, machine, families)
             if family.name == "adversarial"]
    cells = _sweep_cells(loops, max_extra=20)
    assert len(cells) >= 30
    _replay_unseeded(cells)
