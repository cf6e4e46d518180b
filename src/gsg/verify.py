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
checked once, before any other work.  The per-element checks and both
equidistribution histograms share one pass over the group, taken in chunks
of ``_CHUNK`` elements: each check maps its own functions over the whole
chunk before the next check starts, so a fault fails one check alone, and a
failed check skips its comparisons in the chunks after it (the root counts
are still built, for the tally).  Memory is bounded by one chunk of elements
and the lists built from it.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, islice, repeat
from operator import eq

from .errors import BudgetExceeded
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
from .mixed_radix import _decimal
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
    # each element is tested against all |Delta| = m*n*(n+1)/2 - n roots
    roots = max(1, m * n * (n + 1) // 2 - n)
    try:  # m and n first, then order * roots <= budget, before any work
        elements = enumerate_group(m, n, budget // roots)
    except BudgetExceeded:
        raise BudgetExceeded(
            f"root tests for G({_decimal(m)},1,{_decimal(n)}) exceed budget {_decimal(budget)}"
        ) from None
    e = identity(m, n)
    order = group_order(m, n)
    inverse_ok = rank_ok = oracle_ok = additive_ok = True
    # least significant first, as inversion_table's digits; delta is the union
    # of these blocks by construction, so their counts sum to the length
    blocks = [delta_block(m, n, i) for i in range(n, 0, -1)]
    inv_counts, fmaj_counts = Counter(), Counter()
    while chunk := list(islice(elements, _CHUNK)):
        if inverse_ok:
            inverses = list(map(inverse, chunk))
            inverse_ok = all(map(eq, map(multiply, inverses, chunk), repeat(e))) and all(
                map(eq, map(multiply, chunk, inverses), repeat(e))
            )
        if rank_ok:
            ranks = list(map(rank, chunk))
            # unrank undoing rank makes rank one-to-one, so onto 1..order if inside it
            rank_ok = (
                1 <= min(ranks)
                and max(ranks) <= order
                and list(map(unrank, ranks, repeat(m), repeat(n))) == chunk
            )
        rows = list(zip(*(map(_negatives, chunk, repeat(block)) for block in blocks)))
        oracle_ok = oracle_ok and rows == [t.digits for t in map(inversion_table, chunk)]
        inv_values = list(map(sum, rows))
        additive_ok = additive_ok and list(map(length_L, chunk)) == inv_values
        inv_counts.update(inv_values)
        fmaj_counts.update(map(fmaj, chunk))
    expected = {k: c for k, c in enumerate(poincare(m, n).coeffs) if c}
    equidistributed = inv_counts == expected and fmaj_counts == expected
    return [
        ("presentation relations", _check_presentation(m, n)),
        ("oracle agreement", oracle_ok),
        ("inverse law", inverse_ok),
        ("rank bijection", rank_ok),
        ("equidistribution inv/fmaj/poincare", equidistributed),
        ("length additivity", additive_ok),
    ]
