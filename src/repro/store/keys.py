"""Content-addressed keys for the persistent schedule store.

A store entry answers the question "what does the §6 sweep produce for
*this* loop on *this* machine under *these* semantics?", so its key is
built from exactly three canonical digests:

* the **loop**: the canonical DDG digest of :mod:`repro.ddg.canonical`
  — invariant to loop/op naming and op/edge order, so structurally
  identical loops from different files share one entry;
* the **machine**: a canonicalized machine digest — invariant to the
  machine's display name *and* to FU-type renaming (an FU type is
  identified by its content: copy count, cost, reservation rows, and
  the set of op classes bound to it — the binding structure is what
  decides which ops compete for capacity);
* the **semantic fingerprint** of the sweep configuration: the fields
  that change *what* the result is (objective, mapping relaxation,
  modulo repair, sweep range), not *how fast* it was obtained.  Solver
  backend, time limits and the warm-start flag are recorded as
  provenance on the entry but kept out of the key — the repo's
  differential test suites pin down that they do not change results.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict

from repro.machine import Machine

#: Entry schema version; bump on incompatible entry layout changes.
#: Mismatched entries read as misses (never as garbage results).
#: v2: the ``result`` payload is the report's result form (per-attempt
#: ``t``/``model``/``backend``), not a store-only attempt form.
STORE_VERSION = 2


def canonical_machine_digest(machine: Machine) -> str:
    """Scheduling-content digest of a machine, invariant to naming.

    Digests every op class (the names the DDG actually references) with
    its latency, effective reservation table, and the *content
    signature* of the FU type it is bound to.  An FU signature includes
    the sorted list of class names bound to it, so two classes sharing
    one FU type (competing for its copies) never digest equal to the
    same classes on separate identical FU types.
    """
    bound: Dict[str, list] = {name: [] for name in machine.fu_types}
    for cls_name in sorted(machine.op_classes):
        bound[machine.op_classes[cls_name].fu_type].append(cls_name)
    fu_sig = {
        name: repr((fu.count, fu.cost, fu.table.matrix.tolist(),
                    tuple(bound[name])))
        for name, fu in machine.fu_types.items()
    }
    parts = []
    for cls_name in sorted(machine.op_classes):
        cls = machine.op_classes[cls_name]
        table = machine.reservation_for(cls_name)
        parts.append(repr((
            cls_name, cls.latency, table.matrix.tolist(),
            fu_sig[cls.fu_type],
        )))
    blob = "\n".join(parts).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def config_fingerprint(config, max_extra: int) -> dict:
    """The semantic slice of an :class:`~repro.core.scheduler.AttemptConfig`.

    Only fields that partition result *content* enter the key; see the
    module docstring for why backend/budget/warm-start do not.
    """
    return {
        "objective": config.objective,
        "mapping": config.mapping,
        "repair_modulo": config.repair_modulo,
        "max_extra": max_extra,
    }


def fingerprint_digest(fingerprint: dict) -> str:
    blob = json.dumps(fingerprint, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def store_key(ddg_digest: str, machine_digest: str,
              fingerprint: dict) -> str:
    """The content address of one store entry."""
    blob = "\n".join([
        f"store-v{STORE_VERSION}",
        ddg_digest,
        machine_digest,
        fingerprint_digest(fingerprint),
    ]).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()
