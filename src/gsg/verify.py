"""Whole-group property sweeps backing the ``gsg verify`` subcommand.

The budget is checked once, before any other work.  The per-element checks
share one pass over the group, each reading its own functions so that a
fault fails one check alone; the two equidistribution histograms sweep it
twice more.
"""

from __future__ import annotations

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
    _delta_roots,
    _negatives,
    histogram,
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
    for i in range(1, n):
        if power(s[i], 2) != e:
            return False
        if i + 1 < n and power(multiply(s[i], s[i + 1]), 3) != e:
            return False
        for j in range(i + 2, n):
            if power(multiply(s[i], s[j]), 2) != e:
                return False
    for i in range(1, n + 1):
        if power(t[i], m) != e:
            return False
        for j in range(1, n + 1):
            if multiply(t[i], t[j]) != multiply(t[j], t[i]):
                return False
    for i in range(1, n):
        if multiply(multiply(s[i], t[i]), s[i]) != t[i + 1]:
            return False
        for j in range(1, n + 1):
            if j not in (i, i + 1) and multiply(s[i], t[j]) != multiply(t[j], s[i]):
                return False
    return True


def run_property_checks(
    m: int, n: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, bool]]:
    """Run the invariant sweep over the whole group; (name, passed) pairs.

    Root-system checks need m >= 2 and are skipped for m = 1 (the inversion
    table then falls back to the closed form throughout).
    """
    elements = enumerate_group(m, n, budget)  # checks the budget before any work
    e = identity(m, n)
    inverse_ok = rank_ok = True
    oracle_ok = additive_ok = m >= 2
    if m >= 2:
        blocks = [_block_roots(m, n, i) for i in range(1, n + 1)]
        roots = _delta_roots(m, n)
    seen = set()
    for w in elements:
        if inverse_ok:
            v = inverse(w)
            if multiply(v, w) != e or multiply(w, v) != e:
                inverse_ok = False
        if rank_ok:
            r = rank(w)
            if r in seen or unrank(r, m, n) != w:
                rank_ok = False
            seen.add(r)
        if oracle_ok:
            for i, block in enumerate(blocks, start=1):
                if _negatives(w, block) != inv_closed(w, i):
                    oracle_ok = False
                    break
        if additive_ok and sum(inversion_table(w).entries) != _negatives(w, roots):
            additive_ok = False
    rank_ok = rank_ok and seen == set(range(1, group_order(m, n) + 1))
    expected = poincare(m, n)
    equidistributed = (
        histogram("inv", m, n, budget) == expected
        and histogram("fmaj", m, n, budget) == expected
    )
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
