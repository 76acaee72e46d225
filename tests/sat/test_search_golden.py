"""The CDCL kernel's search is pinned: same decisions, same models.

``tests/data/sat_search_golden.json`` records, for a fixed set of CNFs
lowered from real scheduling formulations, what the solver did on each:
status, decision/conflict/propagation/restart counts, learned clauses
and literals, and a digest of the model.  Any change to the kernel that
is meant to be a pure speed-up must reproduce every record exactly; a
change that alters the search must regenerate the file on purpose and
say why.

The CNFs come from :func:`repro.sat.encode.encode_formulation` on the
``corpus/`` loops (PowerPC 604) and on the ``repro.corpusgen`` slice
with seed 11 and ``default_families(40)`` on ``motivating``,
``powerpc604`` and ``deep-unclean``, each at T_lb and at the period the
cold SAT sweep achieves.  Only CNFs the solver settles in at most 300
conflicts with at most 12,000 clauses are kept, so the test stays fast.

Regenerate (from the repository root)::

    PYTHONPATH=src python -m tests.sat.test_search_golden --write
"""

import hashlib
import json
import pathlib
import sys

from repro.core.bounds import modulo_feasible_t
from repro.core.formulation import Formulation, FormulationOptions
from repro.corpusgen import default_families, iter_corpus, resolve_machine
from repro.ddg.builders import parse_ddg
from repro.sat.encode import encode_formulation
from repro.sat.solver import CdclSolver

ROOT = pathlib.Path(__file__).resolve().parents[2]
DATA = ROOT / "tests" / "data" / "sat_search_golden.json"
SLICE_SEED = 11
SLICE_COUNT = 40
SLICE_MACHINES = ("motivating", "powerpc604", "deep-unclean")
MAX_CONFLICTS = 300
MAX_CLAUSES = 12_000
COUNTERS = (
    "decisions", "conflicts", "propagations", "restarts",
    "learned_clauses", "learned_literals", "deleted_clauses",
)


def _loops():
    """``{(source, machine, loop): (ddg, machine)}`` in a fixed order."""
    loops = {}
    ppc = resolve_machine("powerpc604")
    for path in sorted((ROOT / "corpus").glob("*.ddg")):
        ddg = parse_ddg(path.read_text(encoding="utf-8"))
        loops[("corpus", "powerpc604", path.stem)] = (ddg, ppc)
    families = default_families(SLICE_COUNT)
    for name in SLICE_MACHINES:
        machine = resolve_machine(name)
        for _family, _seed, ddg in iter_corpus(SLICE_SEED, machine,
                                                families):
            loops[("slice", name, ddg.name)] = (ddg, machine)
    return loops


def _cnf(ddg, machine, t_period):
    """The CNF the SAT backend solves at ``t_period``, or None."""
    if not modulo_feasible_t(ddg, machine, t_period):
        return None
    formulation = Formulation(ddg, machine, t_period, FormulationOptions())
    if formulation.presolve_info.infeasible:
        return None
    return encode_formulation(formulation).cnf


def _digest(model):
    if model is None:
        return None
    bits = "".join("1" if value else "0" for value in model[1:])
    return hashlib.sha256(bits.encode("ascii")).hexdigest()[:16]


def _record(cnf):
    result = CdclSolver(cnf.num_vars, cnf.clauses).solve()
    record = {"status": result.status}
    for name in COUNTERS:
        record[name] = getattr(result.stats, name)
    record["model"] = _digest(result.model)
    return record


def test_kernel_reproduces_every_pinned_search():
    golden = json.loads(DATA.read_text(encoding="utf-8"))
    loops = _loops()
    mismatches = []
    for case in golden["cases"]:
        ddg, machine = loops[(case["source"], case["machine"], case["loop"])]
        cnf = _cnf(ddg, machine, case["t"])
        assert cnf is not None, case
        got = _record(cnf)
        want = {key: case[key] for key in got}
        if got != want:
            mismatches.append((case["machine"], case["loop"], case["t"],
                               want, got))
    assert not mismatches, mismatches[:3]


def test_pinned_set_exercises_the_search():
    """Both verdicts, restarts and learning are covered."""
    cases = json.loads(DATA.read_text(encoding="utf-8"))["cases"]
    assert len(cases) >= 100
    assert {case["status"] for case in cases} == {"sat", "unsat"}
    assert {case["source"] for case in cases} == {"corpus", "slice"}
    assert {case["machine"] for case in cases} == {
        "motivating", "powerpc604", "deep-unclean",
    }
    assert sum(case["restarts"] for case in cases) > 0
    assert sum(case["learned_clauses"] for case in cases) > 1000


def _write():
    """Record the current kernel's search on every selected CNF."""
    from repro.core import schedule_loop

    cases = []
    for (source, machine_name, name), (ddg, machine) in _loops().items():
        result = schedule_loop(ddg, machine, backend="sat",
                               warmstart=False, time_limit_per_t=10.0)
        periods = {result.bounds.t_lb, result.achieved_t} - {None}
        for t_period in sorted(periods):
            cnf = _cnf(ddg, machine, t_period)
            if cnf is None or cnf.num_clauses > MAX_CLAUSES:
                continue
            record = _record(cnf)
            if record["conflicts"] > MAX_CONFLICTS:
                continue
            cases.append({"source": source, "machine": machine_name,
                          "loop": name, "t": t_period, **record})
    lines = ",\n".join(json.dumps(case) for case in cases)
    DATA.write_text('{"cases": [\n' + lines + "\n]}\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {DATA}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python -m tests.sat.test_search_golden --write")
    _write()
