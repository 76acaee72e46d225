"""Classical pipeline-hazard theory: collision vectors and MAL (Kogge [15]).

The paper's §5 reasons about unclean pipelines through their reservation
tables; this module supplies the classical analysis toolkit for a single
such pipeline:

* the **initial collision vector** (which issue distances collide);
* the **state diagram** of collision vectors under issue/advance moves;
* **greedy cycles** and the **minimum average latency (MAL)** — the best
  sustained initiation rate one pipeline copy can support;
* the MAL-based refinement of the per-FU-type resource bound: a single
  copy cannot start more than one op per MAL cycles *on average*, no
  matter the schedule, so ``T >= ceil(N_r * MAL_r / R_r)`` — at least as
  strong as the busiest-stage bound whenever the table has hazards.

These are used by :func:`repro.core.bounds` consumers and the ablation
experiments, and they give machine designers a way to evaluate a
reservation table *before* scheduling anything on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from repro.machine.errors import MachineError
from repro.machine.reservation import ReservationTable


def initial_collision_vector(table: ReservationTable) -> Tuple[int, ...]:
    """Bit ``l-1`` is 1 when issuing two ops ``l`` cycles apart collides.

    Returned as a tuple ``(c_1, ..., c_{d-1})`` indexed by latency;
    empty for single-cycle tables.
    """
    horizon = table.length - 1
    forbidden = table.forbidden_latencies()
    return tuple(
        1 if latency in forbidden else 0
        for latency in range(1, horizon + 1)
    )


State = Tuple[int, ...]


@dataclass(frozen=True)
class StateDiagram:
    """The reachable collision-vector states of one pipeline.

    ``transitions[state][latency] = next_state`` for every *permissible*
    issue latency (bit clear).  Latencies greater than the vector length
    always return to the initial state.
    """

    initial: State
    transitions: Dict[State, Dict[int, State]]

    @property
    def num_states(self) -> int:
        return len(self.transitions)

    def permissible_latencies(self, state: State) -> List[int]:
        return sorted(self.transitions[state])


def build_state_diagram(table: ReservationTable) -> StateDiagram:
    """Enumerate the collision-vector state machine of ``table``."""
    initial = initial_collision_vector(table)
    width = len(initial)
    transitions: Dict[State, Dict[int, State]] = {}
    worklist = [initial]
    while worklist:
        state = worklist.pop()
        if state in transitions:
            continue
        moves: Dict[int, State] = {}
        for latency in range(1, width + 1):
            if state[latency - 1]:
                continue  # collision — latency not permissible
            shifted = state[latency:] + (0,) * latency
            nxt = tuple(
                s | i for s, i in zip(shifted, initial)
            ) if width else ()
            moves[latency] = nxt
            if nxt not in transitions:
                worklist.append(nxt)
        # A latency beyond the vector width always drains the pipe and
        # re-enters at the initial state; represent it with width+1.
        moves[width + 1] = initial
        transitions[state] = moves
    return StateDiagram(initial=initial, transitions=transitions)


def greedy_cycle(table: ReservationTable) -> List[int]:
    """The greedy cycle: always issue at the smallest permissible latency.

    Returns the repeating latency sequence (e.g. ``[1]`` for a clean
    pipe, ``[d]`` for a non-pipelined unit of busy time ``d``).
    """
    diagram = build_state_diagram(table)
    state = diagram.initial
    seen: Dict[State, int] = {}
    path: List[int] = []
    while state not in seen:
        seen[state] = len(path)
        latency = min(diagram.transitions[state])
        path.append(latency)
        state = diagram.transitions[state][latency]
    start = seen[state]
    return path[start:]


def minimum_average_latency(table: ReservationTable) -> Fraction:
    """MAL: the best achievable average issue distance on one copy.

    Found by minimum-mean-cycle search over the state diagram (Karp-style
    dynamic programming).  Lower-bounded by ``max_stage_usage`` (each
    issue burns that many cells of the busiest stage) and upper-bounded
    by the greedy cycle's average — both classical results, both asserted
    in the test-suite.
    """
    diagram = build_state_diagram(table)
    states = list(diagram.transitions)
    index = {s: i for i, s in enumerate(states)}
    n = len(states)
    # Karp: dp[k][v] = min weight of a k-edge path ending at v.
    inf = float("inf")
    dp = [[inf] * n for _ in range(n + 1)]
    dp[0][index[diagram.initial]] = 0.0
    # Make every state reachable a valid start (cycles may avoid initial).
    for i in range(n):
        dp[0][i] = 0.0
    for k in range(1, n + 1):
        for state in states:
            u = index[state]
            if dp[k - 1][u] == inf:
                continue
            for latency, nxt in diagram.transitions[state].items():
                v = index[nxt]
                weight = dp[k - 1][u] + latency
                if weight < dp[k][v]:
                    dp[k][v] = weight
    best = None
    for v in range(n):
        if dp[n][v] == inf:
            continue
        worst_ratio = None
        for k in range(n):
            if dp[k][v] == inf:
                continue
            ratio = Fraction(int(dp[n][v] - dp[k][v]), n - k)
            if worst_ratio is None or ratio > worst_ratio:
                worst_ratio = ratio
        if worst_ratio is not None and (best is None or worst_ratio < best):
            best = worst_ratio
    if best is None:  # pragma: no cover - diagram always has a cycle
        raise MachineError("state diagram has no cycle")
    return best


def analyze(table: ReservationTable) -> Dict[str, object]:
    """One-stop report for a reservation table (used by the CLI)."""
    diagram = build_state_diagram(table)
    cycle = greedy_cycle(table)
    mal = minimum_average_latency(table)
    return {
        "forbidden_latencies": sorted(table.forbidden_latencies()),
        "initial_collision_vector": diagram.initial,
        "num_states": diagram.num_states,
        "greedy_cycle": cycle,
        "greedy_average": Fraction(sum(cycle), len(cycle)),
        "mal": mal,
        "max_stage_usage": table.max_stage_usage,
        "is_clean": table.is_clean,
    }
