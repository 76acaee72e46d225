"""The crash drill behind ``repro loadgen``, end to end.

Boots a real ``repro serve`` subprocess, submits a seeded mix of corpus
loops, SIGKILLs the daemon while the accepted jobs are still unfinished,
restarts it on the same journal and drains it.  No accepted job may be
lost, and the restarted daemon must have re-admitted at least one job
from the journal — otherwise the kill caught no unfinished work and the
drill proved nothing.
"""

import json
import pathlib
import shutil

from repro.cli import main

CORPUS_DIR = pathlib.Path(__file__).resolve().parents[2] / "corpus"


def test_sigkill_mid_load_loses_no_accepted_job(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FSYNC", "off")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for path in sorted(CORPUS_DIR.glob("*.ddg"))[:6]:
        shutil.copy(path, corpus)
    out = tmp_path / "drill.json"
    code = main([
        "loadgen", "--corpus", str(corpus), "--machine", "powerpc604",
        "--requests", "6", "--time-limit", "3", "--no-warmstart",
        "--out", str(out),
    ])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    restart = doc["restart"]
    assert restart["lost_jobs"] == []
    assert restart["resumed_terminal"] == restart["accepted_before_kill"]
    assert restart["accepted_before_kill"] >= 2
    assert doc["resumed"] >= 1
    assert doc["drain"] == {"draining": True}
    assert doc["exit_code"] == 0
