"""The cell race's settlement and admission rules, in-process.

Cells here are plain functions returning a verdict label, so every rule
is checked without solvers or worker processes; the race, batch, serve
and fault-matrix suites cover the same race over real work and pools.
"""

import pytest

from repro.supervision.cells import (
    CANCELLED,
    CLEAN,
    FAILED,
    PROOF,
    WIN,
    Cell,
    CellRace,
    Group,
)

VERDICTS = {"win": WIN, "proof": PROOF, "clean": CLEAN, "error": FAILED}
CALLS = []


def _answer(label):
    CALLS.append(label)
    if label == "raise":
        raise ValueError("cannot express this cell")
    return label


def _group(key, *labels, period=True):
    cells = [Cell(f"b{i}", _answer, (label,)) for i, label in
             enumerate(labels)]
    return Group(key, cells, VERDICTS.__getitem__, period=period)


def _race(groups, window=None):
    CALLS.clear()
    race = CellRace(workers=0, window=window)
    race.add(groups)
    return list(race.run())


def test_first_decisive_cell_settles_and_siblings_are_cancelled():
    group = _group(3, "clean", "proof", "win")
    assert _race([group]) == [group]
    assert CALLS == ["clean", "proof"]  # the third cell never ran
    assert group.winner is group.cells[1]
    assert [c.verdict for c in group.cells] == [CLEAN, PROOF, CANCELLED]
    assert group.killed_running == group.cancelled_queued == 0


def test_no_decisive_cell_settles_to_the_best_ranked():
    group = _group(0, "error", "clean", "clean", period=False)
    _race([group])
    assert group.winner is None
    assert group.rep is group.cells[1]  # clean beats error; roster order


def test_wide_window_records_every_cell_above_a_win():
    groups = [_group(t, "proof" if t < 4 else "win") for t in range(3, 7)]
    _race(groups)
    assert CALLS == ["proof", "win"]
    assert [g.rep.verdict for g in groups] == [PROOF, WIN, CANCELLED,
                                               CANCELLED]


def test_window_one_admits_nothing_above_a_win():
    pulled = []

    def feed():
        for t in range(3, 7):
            pulled.append(t)
            yield _group(t, "proof" if t < 4 else "win")

    settled = _race(feed(), window=1)
    assert [g.key for g in settled] == [3, 4]
    assert pulled == [3, 4, 5]  # 5 was pulled to see the feed end


def test_ready_made_result_reports_on_admission():
    ready = Group(5, [Cell("", result="win")], VERDICTS.__getitem__,
                  period=True)
    group = _group(4, "clean")
    settled = _race([group, ready])
    assert {g.key for g in settled} == {4, 5}
    assert ready.winner is ready.cells[0]
    assert CALLS == ["clean"]


def test_roster_of_one_lets_the_exception_propagate():
    with pytest.raises(ValueError, match="cannot express"):
        _race([_group(3, "raise")])


def test_wider_roster_fails_only_the_raising_cell():
    group = _group(3, "raise", "proof")
    _race([group])
    failed, proved = group.cells
    assert failed.verdict == FAILED
    assert failed.failure.kind == "solver_error"
    assert "cannot express" in failed.failure.detail
    assert group.winner is proved


def test_in_flight_counts_cells_not_yet_run():
    # Callers that admit work while in_flight() is below their worker
    # count must see accepted cells before any step runs them.
    race = CellRace(workers=0)
    race.add([_group(0, "clean", period=False),
              _group(1, "clean", "clean", period=False)])
    assert race.in_flight() == 3
    race.step()
    assert race.in_flight() == 2
    list(race.run())
    assert race.in_flight() == 0
