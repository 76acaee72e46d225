"""The pinned slice every workload draws its loops from.

``repro.corpusgen`` generates it in-process: default ``mixed`` families
(guaranteed + DSL + adversarial), default op range, on three machines.
The slice seed is pinned (11), so every run of every workload sees the
same loops, in the same order, and their figures can be compared.
The run's ``--seed`` drives ``serve``'s request mix: which loops are
repeated and which repeats are renamed and scrambled.  The loop count follows the run length: ``serve`` offers
``RATE`` requests a second, ``1 - REPEAT_SHARE`` of them first-seen, and
every slice loop is first seen exactly once.

Each run prints the manifest checksum of every machine's slice and of
the request mix, so two runs can prove they used the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List

from repro.corpusgen import Manifest, LoopRecord, default_families, iter_corpus
from repro.corpusgen import resolve_machine, sha256_text
from repro.ddg.builders import serialize_ddg
from repro.ddg.graph import Ddg
from repro.ddg.transforms import scrambled
from repro.machine import Machine

SLICE_SEED = 11
MACHINES = ("motivating", "powerpc604", "deep-unclean")
TIME_LIMIT = 10.0
MAX_EXTRA = 10
#: Open-loop offered rate of ``serve`` (the ``repro loadgen`` default).
RATE = 8.0
REPEAT_SHARE = 0.4
#: Every fifth request pattern position that is a repeat (40 %).
REPEAT_SLOTS = (1, 3)
#: In ``serve``, a repeat's text differs from the loop's previous request
#: only when that request was due at least this long before, so it has
#: been answered.  Two different texts of one loop in flight together
#: are coalesced, and the follower is answered with the other text's
#: schedule, which does not fit it (see README.md); ``serve-coalesce``
#: drops the rule.
TEXT_CHANGE_GAP_S = 13.0


@dataclass
class SliceLoop:
    machine_name: str
    machine: Machine
    ddg: Ddg
    sha256: str


@dataclass
class Slice:
    seed: int
    count: int
    loops: List[SliceLoop]
    manifests: Dict[str, str]

    @property
    def checksum(self) -> str:
        joined = json.dumps(self.manifests, sort_keys=True)
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()


def count_for(seconds: float) -> int:
    """Loops per machine so that ``serve`` offers ``seconds`` of load."""
    first_seen = seconds * RATE * (1.0 - REPEAT_SHARE)
    return max(1, round(first_seen / len(MACHINES)))


def build(seconds: float, seed: int = SLICE_SEED) -> Slice:
    """Generate the slice, interleaved across machines in manifest order."""
    count = count_for(seconds)
    families = default_families(count)
    per_machine: List[List[SliceLoop]] = []
    manifests: Dict[str, str] = {}
    for name in MACHINES:
        machine = resolve_machine(name)
        loops: List[SliceLoop] = []
        records: List[LoopRecord] = []
        for family, derived, ddg in iter_corpus(seed, machine, families):
            text = serialize_ddg(ddg)
            digest = sha256_text(text)
            loops.append(SliceLoop(name, machine, ddg, digest))
            records.append(LoopRecord(
                name=ddg.name, family=family.name, seed=derived,
                file=f"{ddg.name}.ddg", sha256=digest,
                ops=ddg.num_ops, deps=ddg.num_deps,
            ))
        manifest = Manifest(seed=seed, machine=name, families=families,
                            loops=records)
        manifests[name] = sha256_text(manifest.to_json())
        per_machine.append(loops)
    interleaved = [
        loops[i] for i in range(count) for loops in per_machine
    ]
    return Slice(seed, count, interleaved, manifests)


@dataclass
class Request:
    """One ``serve`` submission: due at ``index / RATE`` seconds."""

    index: int
    loop: SliceLoop
    text: str
    #: Index of the request this one repeats (-1 when first-seen).
    repeat_of: int = -1
    variant: str = "first"


def request_mix(slice_: Slice, seed: int,
                text_change_gap_s: float = TEXT_CHANGE_GAP_S
                ) -> List[Request]:
    """First-seen loops in slice order plus 40 % seeded repeats.

    Positions follow a fixed pattern (two of every five requests are
    repeats), so first-seen loops are due at the same times in every
    run; the seed picks which earlier loop each repeat repeats and
    whether it is renamed and scrambled (isomorphic, textually
    different, so the daemon must canonicalize it to find the stored
    solve).  Half of the repeats try to be scrambled: they pick among
    loops whose latest request was due ``text_change_gap_s`` or more
    before (answered by then).  The rest, and those that find no such
    loop, resend a loop's latest text verbatim (coalesced onto the
    running solve, or a store hit).
    """
    min_gap = round(text_change_gap_s * RATE)
    rng = random.Random(f"perfbench-serve:{seed}")
    requests: List[Request] = []
    #: first-seen request index -> (index, text) of its latest request
    latest: Dict[int, tuple] = {}
    fresh = iter(slice_.loops)
    index = 0
    while True:
        if index % 5 not in REPEAT_SLOTS:
            loop = next(fresh, None)
            if loop is None:
                return requests
            text = serialize_ddg(loop.ddg)
            requests.append(Request(index, loop, text))
            latest[index] = (index, text)
        else:
            settled = [first for first, (last, _text) in latest.items()
                       if index - last >= min_gap]
            if rng.random() < 0.5 and settled:
                first = rng.choice(settled)
                loop = requests[first].loop
                ddg = scrambled(loop.ddg, rng,
                                name=f"{loop.ddg.name}_r{index}",
                                prefix=f"r{index}_")
                text, variant = serialize_ddg(ddg), "scrambled"
            else:
                first = rng.choice(sorted(latest))
                text, variant = latest[first][1], "verbatim"
            requests.append(Request(index, requests[first].loop, text,
                                    first, variant))
            latest[first] = (index, text)
        index += 1


def mix_checksum(requests: List[Request]) -> str:
    digest = hashlib.sha256()
    for request in requests:
        digest.update(request.loop.machine_name.encode("utf-8"))
        digest.update(request.text.encode("utf-8"))
    return digest.hexdigest()
