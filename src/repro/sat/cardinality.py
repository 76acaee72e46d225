"""Cardinality constraint encodings over CNF.

Two at-most-k encodings, chosen by constraint size because they trade
size against propagation strength differently on our two constraint
families:

* **sequential counter** (Sinz 2005, LT-SEQ) — ``n*k`` auxiliary
  variables, arc-consistent, compact for the small bounds that dominate
  FU capacities (count <= 4 in every preset machine);
* **totalizer** (Bailleux & Boutonnet 2003) — a balanced tree of unary
  counters, ``O(n log n)`` auxiliaries with outputs capped at ``k+1``,
  better when many literals share one constraint (wide capacity rows on
  large T).

Both handle duplicate literals (a coefficient-2 contribution is just
the literal listed twice).  ``exactly_one`` / ``at_most_one`` cover the
assignment and color rows, pairwise below a size threshold and a
1-bounded sequential ladder above it.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.sat.cnf import Cnf

#: Pairwise at-most-one is smaller than the ladder up to this size.
_PAIRWISE_MAX = 5
#: :func:`at_most_k` switches to the totalizer at this many literals.
_TOTALIZER_MIN_LITS = 32


def exactly_one(cnf: Cnf, lits: Sequence[int]) -> None:
    """Exactly one of ``lits`` is true."""
    if not lits:
        cnf.add_clause([])
        return
    cnf.add_clause(list(lits))
    at_most_one(cnf, lits)


def at_most_one(cnf: Cnf, lits: Sequence[int]) -> None:
    """At most one of ``lits`` is true."""
    n = len(lits)
    if n <= 1:
        return
    if n <= _PAIRWISE_MAX:
        for i in range(n):
            for j in range(i + 1, n):
                cnf.add(-lits[i], -lits[j])
        return
    _sequential(cnf, lits, 1)


def at_most_k(cnf: Cnf, lits: Sequence[int], k: int) -> str:
    """Constrain ``sum(lits) <= k``; returns the encoding actually used."""
    n = len(lits)
    if k < 0:
        cnf.add_clause([])
        return "trivial"
    if k == 0:
        for lit in lits:
            cnf.add(-lit)
        return "trivial"
    if n <= k:
        return "trivial"
    if k == 1:
        at_most_one(cnf, lits)
        return "sequential" if n > _PAIRWISE_MAX else "pairwise"
    if n >= _TOTALIZER_MIN_LITS:
        _totalizer(cnf, lits, k)
        return "totalizer"
    _sequential(cnf, lits, k)
    return "sequential"


def _sequential(cnf: Cnf, lits: Sequence[int], k: int) -> None:
    """Sinz's sequential unary counter for ``sum(lits) <= k``.

    ``r[i][j]`` reads "at least ``j+1`` of the first ``i+1`` literals
    are true"; the final row is elided — only its overflow clause is
    emitted.
    """
    n = len(lits)
    prev: List[int] = []
    for i in range(n - 1):
        x = lits[i]
        cur = cnf.new_vars(k)
        cnf.add(-x, cur[0])
        if prev:
            for j in range(k):
                cnf.add(-prev[j], cur[j])
            for j in range(1, k):
                cnf.add(-x, -prev[j - 1], cur[j])
            cnf.add(-x, -prev[k - 1])
        else:
            for j in range(1, k):
                cnf.add(-cur[j])
        prev = cur
    if prev:
        cnf.add(-lits[-1], -prev[k - 1])


def _totalizer(cnf: Cnf, lits: Sequence[int], k: int) -> None:
    """Bailleux–Boutonnet totalizer for ``sum(lits) <= k``.

    Builds a balanced merge tree whose node outputs are unary counts
    truncated at ``k+1``; only the "sum propagates up" direction is
    emitted (sufficient for an upper bound), then output ``k+1`` is
    forbidden.
    """
    limit = k + 1

    def build(lo: int, hi: int) -> List[int]:
        if hi - lo == 1:
            return [lits[lo]]
        mid = (lo + hi) // 2
        left = build(lo, mid)
        right = build(mid, hi)
        m = min(hi - lo, limit)
        out = cnf.new_vars(m)
        for alpha in range(min(len(left), m) + 1):
            for beta in range(min(len(right), m) + 1):
                sigma = alpha + beta
                if sigma == 0 or sigma > m:
                    continue
                clause = [out[sigma - 1]]
                if alpha:
                    clause.append(-left[alpha - 1])
                if beta:
                    clause.append(-right[beta - 1])
                cnf.add_clause(clause)
        return out

    out = build(0, len(lits))
    if len(out) >= limit:
        cnf.add(-out[limit - 1])
