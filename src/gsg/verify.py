"""Whole-group property sweeps backing the ``gsg verify`` subcommand.

The presentation check lists the defining relations of G(m,1,n) on the
generators s_1..s_{n-1}, t_1..t_n as (lhs, rhs) pairs, each commuting pair
once, and passes when every pair is equal.  The root checks count, block by
block, the roots of ``delta_block(m, n, i)`` that an element sends negative,
i = n down to 1: "oracle agreement" compares the counts with its
:func:`inversion_table` digits, least significant first, and "length
additivity" their sum with its :func:`length_L`.  That sum is also the
``inv`` value the equidistribution tally counts, so a wrong root count moves
the tally too.  The budget counts root tests, |G| * max(1, |Delta|), and is
checked once, before any other work: past it, "N root tests for G(m,1,n)
exceed budget B", without N where the order's product passed the budget
before its last factor.  The per-element checks and both
equidistribution histograms share one pass over the group, taken in chunks
of ``_CHUNK`` elements: each chunk's columns are built whole, one function
mapped over the chunk at a time, and each check then compares one computed
column with its expected one, so a fault fails one check alone.  A failed
check still builds its columns in the chunks after it but is not compared
again.  ``_CHECKS`` fixes the order the results are returned and printed in.
Memory is bounded by one chunk of elements and the lists built from it.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice, repeat

from .group_core import (
    DEFAULT_BUDGET,
    _dims,
    _order_within,
    _require_budget,
    enumerate_group,
    gen_s,
    gen_t,
    identity,
    inverse,
    multiply,
    power,
)
from .statistics import (
    _negatives,
    delta_block,
    fmaj,
    inversion_table,
    length_L,
    poincare,
    rank,
    unrank,
)

__all__ = ["run_property_checks"]

_CHUNK = 256  # elements per column-wise pass of run_property_checks

_CHECKS = (  # in the order gsg verify prints them
    "presentation relations", "oracle agreement", "inverse law", "rank bijection",
    "equidistribution inv/fmaj/poincare", "length additivity",
)


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
    """Run the invariant sweep over the whole group; (name, passed) pairs."""
    m, n = _dims(m, n)
    # each element is tested against all |Delta| = m*n*(n+1)/2 - n roots
    roots = max(1, m * n * (n + 1) // 2 - n)
    # order * roots <= budget exactly when order <= budget // roots
    order = _order_within(m, n, budget // roots)
    _require_budget(None if order is None else order * roots, "root tests", m, n, budget)
    elements = enumerate_group(m, n, budget)
    e = identity(m, n)
    passed = dict.fromkeys(_CHECKS, True)
    # least significant first, as inversion_table's digits; the simple-side set
    # is the union of these blocks, so their counts sum to the length
    blocks = [delta_block(m, n, i) for i in range(n, 0, -1)]
    inv_counts, fmaj_counts = Counter(), Counter()
    while chunk := list(islice(elements, _CHUNK)):
        rows = list(zip(*(map(_negatives, chunk, repeat(block)) for block in blocks)))
        inv_values = list(map(sum, rows))
        inverses = list(map(inverse, chunk))
        products = [*map(multiply, inverses, chunk), *map(multiply, chunk, inverses)]
        ranks = list(map(rank, chunk))
        # unrank undoing rank makes rank one-to-one, so onto 1..order if inside
        # it; outside, unrank would refuse a rank, and the column is False
        in_range = 1 <= min(ranks) and max(ranks) <= order
        for name, computed, expected in [
            ("oracle agreement", [t.digits for t in map(inversion_table, chunk)], rows),
            ("inverse law", products, [e] * 2 * len(chunk)),
            ("rank bijection", in_range and list(map(unrank, ranks, repeat(m), repeat(n))), chunk),
            ("length additivity", list(map(length_L, chunk)), inv_values),
        ]:
            passed[name] = passed[name] and computed == expected
        inv_counts.update(inv_values)
        fmaj_counts.update(map(fmaj, chunk))
    passed["presentation relations"] = _check_presentation(m, n)
    expected = {k: c for k, c in enumerate(poincare(m, n).coeffs) if c}
    passed["equidistribution inv/fmaj/poincare"] = inv_counts == expected == fmaj_counts
    return list(passed.items())
