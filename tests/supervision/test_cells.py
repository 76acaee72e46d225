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
)

VERDICTS = {"win": WIN, "proof": PROOF, "clean": CLEAN, "error": FAILED}
CALLS = []


def _answer(label):
    CALLS.append(label)
    if label == "raise":
        raise ValueError("cannot express this cell")
    return label


def _cell(key, label, period=True):
    return Cell(key, VERDICTS.__getitem__, _answer, (label,),
                period=period)


def _race(cells, window=None):
    CALLS.clear()
    race = CellRace(workers=0, window=window)
    race.add(cells)
    return list(race.run())


def test_wide_window_records_every_cell_above_a_win():
    cells = [_cell(t, "proof" if t < 4 else "win") for t in range(3, 7)]
    _race(cells)
    assert CALLS == ["proof", "win"]
    assert [c.verdict for c in cells] == [PROOF, WIN, CANCELLED,
                                          CANCELLED]


def test_window_one_admits_nothing_above_a_win():
    pulled = []

    def feed():
        for t in range(3, 7):
            pulled.append(t)
            yield _cell(t, "proof" if t < 4 else "win")

    settled = _race(feed(), window=1)
    assert [c.key for c in settled] == [3, 4]
    assert pulled == [3, 4, 5]  # 5 was pulled to see the feed end


def test_ready_made_result_reports_on_admission():
    ready = Cell(5, VERDICTS.__getitem__, result="win", period=True)
    cell = _cell(4, "clean")
    settled = _race([cell, ready])
    assert {c.key for c in settled} == {4, 5}
    assert ready.verdict == WIN
    assert CALLS == ["clean"]


def test_in_process_exception_propagates():
    with pytest.raises(ValueError, match="cannot express"):
        _race([_cell(3, "raise")])


def test_in_flight_counts_cells_not_yet_run():
    # Callers that admit work while in_flight() is below their worker
    # count must see accepted cells before any step runs them.
    race = CellRace(workers=0)
    race.add([_cell(0, "clean", period=False),
              _cell(1, "clean", period=False),
              _cell(2, "clean", period=False)])
    assert race.in_flight() == 3
    race.step()
    assert race.in_flight() == 2
    list(race.run())
    assert race.in_flight() == 0
