"""Numbers the docs quote must match the committed BENCH files."""

import json
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _flat_text(relpath):
    """The doc with all whitespace runs collapsed (line wraps vanish)."""
    text = (ROOT / relpath).read_text(encoding="utf-8")
    return " ".join(text.split())


def test_portfolio_paragraph_matches_bench_portfolio():
    doc = json.loads(
        (ROOT / "BENCH_portfolio.json").read_text(encoding="utf-8")
    )
    text = _flat_text("docs/performance.md")
    singles = doc["single_backend"]
    portfolio = doc["portfolio"]
    quoted = {
        "sat 0.32 s": singles["sat"]["wall_seconds"],
        "highs 1.17 s": singles["highs"]["wall_seconds"],
        "bnb 295.9 s": singles["bnb"]["wall_seconds"],
        "finished in 3.6 s": portfolio["wall_seconds"],
    }
    for phrase, seconds in quoted.items():
        assert phrase in text, phrase
        figure = phrase.split()[-2]
        decimals = len(figure.partition(".")[2])
        assert round(seconds, decimals) == float(figure), (phrase, seconds)
    assert portfolio["jobs"] == 4 and "with 4 jobs" in text
    assert portfolio["scheduled"] == portfolio["proven"] == 29
    assert "all 29 loops scheduled and proven" in text
    assert portfolio["wins"] == {"highs": 19, "bnb": 8, "sat": 2}
    assert "`highs` 19, `bnb` 8, `sat` 2" in text
    assert portfolio["killed_running"] == 119
    assert portfolio["cancelled_queued"] == 73
    assert "119 running losers killed and 73 queued ones dropped" in text


def test_warmstart_paragraph_matches_bench_warmstart():
    doc = json.loads(
        (ROOT / "BENCH_warmstart.json").read_text(encoding="utf-8")
    )
    text = _flat_text("docs/performance.md")
    assert list(doc["backends"]) == ["highs"]
    highs = doc["backends"]["highs"]
    on, off = highs["warmstart_on"], highs["warmstart_off"]
    assert highs["loops"] == doc["corpus_size"] == 40
    assert "over the motivating-machine corpus (40 loops, 10 s" in text
    assert highs["time_limit_per_t"] == 10.0
    reduction = round(100 * highs["time_reduction"])
    assert (
        f"**-{reduction}% wall-clock** ({off['seconds']:.2f} s → "
        f"{on['seconds']:.2f} s)" in text
    )
    assert (
        f"{highs['skipped_ilp']}/40 loops settled by the heuristic alone "
        f"({off['ilp_solves']} → {on['ilp_solves']} ILP solves)" in text
    )
    assert on["scheduled"] == off["scheduled"] == 40
    assert "all 40 scheduled both ways" in text


def test_store_paragraph_matches_bench_store():
    doc = json.loads((ROOT / "BENCH_store.json").read_text(encoding="utf-8"))
    runs = doc["runs"]
    speedup = f"{doc['warm_speedup']:.1f}x"
    text = _flat_text("docs/performance.md")
    assert (
        f"cold {runs['cold']['seconds']:.3f}s → warm "
        f"{runs['warm']['seconds']:.3f}s (**{speedup}**, "
        f"{runs['warm']['store_hits']}/40 hits, zero ILP solves)" in text
    )
    assert runs["warm"]["ilp_solves"] == 0
    assert f"Measured: {speedup} wall-clock reduction" in _flat_text(
        "README.md"
    )
