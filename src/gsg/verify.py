"""Whole-group property sweeps backing the ``gsg verify`` subcommand.

The presentation check lists the defining relations of G(m,1,n) on the
generators s_1..s_{n-1}, t_1..t_n as (lhs, rhs) pairs, each commuting pair
once, and passes when every pair is equal.  The budget is checked once,
before any other work.  Every per-element check, and both equidistribution
histograms, share one pass over the group, each reading its own functions
so that a fault fails one check alone.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .group_core import (
    DEFAULT_BUDGET,
    enumerate_group,
    gen_s,
    gen_t,
    group_order,
    identity,
    inverse,
    multiply,
    power,
)
from .statistics import (
    _block_roots,
    _inversions,
    _negatives,
    fmaj,
    inv_closed,
    inversion_table,
    poincare,
    rank,
    unrank,
)

__all__ = ["run_property_checks"]


def _check_presentation(m: int, n: int) -> bool:
    e = identity(m, n)
    s = {i: gen_s(m, n, i) for i in range(1, n)}
    t = {i: gen_t(m, n, i) for i in range(1, n + 1)}
    both_orders = lambda a, b: (multiply(a, b), multiply(b, a))
    relations = [
        *((power(s[i], 2), e) for i in s),
        *((power(multiply(s[i], s[i + 1]), 3), e) for i in range(1, n - 1)),
        *((power(multiply(s[i], s[j]), 2), e) for i in s for j in range(i + 2, n)),
        *((power(t[i], m), e) for i in t),
        *(both_orders(t[i], t[j]) for i, j in combinations(t, 2)),
        *((multiply(multiply(s[i], t[i]), s[i]), t[i + 1]) for i in s),
        *(both_orders(s[i], t[j]) for i in s for j in t if j not in (i, i + 1)),
    ]
    return all(lhs == rhs for lhs, rhs in relations)


def run_property_checks(
    m: int, n: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, bool]]:
    """Run the invariant sweep over the whole group; (name, passed) pairs.

    Root-system checks need m >= 2 and are skipped for m = 1 (the inversion
    table then falls back to the closed form throughout).
    """
    elements = enumerate_group(m, n, budget)  # checks the budget before any work
    e = identity(m, n)
    order = group_order(m, n)
    inverse_ok = rank_ok = True
    oracle_ok = additive_ok = m >= 2
    if m >= 2:
        # the blocks partition the simple-side set: their counts sum to the length
        blocks = [_block_roots(m, n, i) for i in range(1, n + 1)]
    hit = bytearray(order + 1)  # hit[r]: rank r already taken
    inv_counts, fmaj_counts = Counter(), Counter()
    for w in elements:
        if inverse_ok:
            v = inverse(w)
            if multiply(v, w) != e or multiply(w, v) != e:
                inverse_ok = False
        if rank_ok:
            r = rank(w)
            if not 1 <= r <= order or hit[r] or unrank(r, m, n) != w:
                rank_ok = False
            else:
                hit[r] = 1
        if oracle_ok or additive_ok:
            counts = [_negatives(w, block) for block in blocks]
            if oracle_ok and counts != [inv_closed(w, i) for i in range(1, n + 1)]:
                oracle_ok = False
            if additive_ok and sum(inversion_table(w).entries) != sum(counts):
                additive_ok = False
        inv_counts[sum(_inversions(w))] += 1
        fmaj_counts[fmaj(w)] += 1
    # distinct ranks in 1..order, one per element, cover 1..order
    rank_ok = rank_ok and hit.count(1) == order
    expected = {k: c for k, c in enumerate(poincare(m, n).coeffs) if c}
    equidistributed = inv_counts == expected and fmaj_counts == expected
    results = [
        ("presentation relations", _check_presentation(m, n)),
        ("inverse law", inverse_ok),
        ("rank bijection", rank_ok),
        ("equidistribution inv/fmaj/poincare", equidistributed),
    ]
    if m >= 2:
        results.insert(1, ("oracle agreement", oracle_ok))
        results.append(("length additivity", additive_ok))
    return results
