"""The CNF the encoder emits for each ``corpus/`` loop is pinned.

``tests/data/cnf_identity.json`` records, per loop on PowerPC 604 at
its lower bound T_lb, the variable count and a SHA-256 of the clause
list that :func:`repro.sat.encode.encode_formulation` produces.  The
search the kernel runs depends on variable numbering and clause order,
so an encoder change meant only to be faster must reproduce every
record; one that changes the CNF on purpose regenerates the file and
says why.

Regenerate (from the repository root)::

    PYTHONPATH=src python -m tests.sat.test_cnf_identity --write
"""

import hashlib
import json
import pathlib
import sys

from repro.core.bounds import lower_bounds, modulo_feasible_t
from repro.core.formulation import Formulation
from repro.corpusgen import resolve_machine
from repro.ddg.builders import parse_ddg
from repro.sat.encode import encode_formulation

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data" / "cnf_identity.json"


def _records():
    """``{loop: record}`` for every ``corpus/`` loop at T_lb."""
    machine = resolve_machine("powerpc604")
    records = {}
    for path in sorted((ROOT / "corpus").glob("*.ddg")):
        ddg = parse_ddg(path.read_text(encoding="utf-8"))
        t_lb = lower_bounds(ddg, machine).t_lb
        record = {"t": t_lb}
        if not modulo_feasible_t(ddg, machine, t_lb):
            record["skipped"] = "modulo_infeasible"
        else:
            formulation = Formulation(ddg, machine, t_lb)
            if formulation.ruled_out:
                record["skipped"] = formulation.ruled_out
            else:
                cnf = encode_formulation(formulation).cnf
                text = json.dumps(cnf.clauses, separators=(",", ":"))
                record["num_vars"] = cnf.num_vars
                record["clauses_sha256"] = hashlib.sha256(
                    text.encode("ascii")).hexdigest()
        records[path.stem] = record
    return records


def test_corpus_cnfs_are_unchanged():
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    assert _records() == pinned


def test_pinned_set_encodes_most_loops():
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    assert len(pinned) == len(list((ROOT / "corpus").glob("*.ddg")))
    encoded = [r for r in pinned.values() if "clauses_sha256" in r]
    assert len(encoded) >= len(pinned) // 2


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.sat.test_cnf_identity --write")
    DATA.write_text(json.dumps(_records(), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {DATA}")
