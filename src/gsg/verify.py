"""Whole-group property sweeps backing the ``gsg verify`` subcommand."""

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


def _check_oracle_agreement(m: int, n: int, budget: int) -> bool:
    blocks = [_block_roots(m, n, i) for i in range(1, n + 1)]
    for w in enumerate_group(m, n, budget):
        for i, roots in enumerate(blocks, start=1):
            if _negatives(w, roots) != inv_closed(w, i):
                return False
    return True


def _check_rank_bijection(m: int, n: int, budget: int) -> bool:
    seen = set()
    for w in enumerate_group(m, n, budget):
        r = rank(w)
        if r in seen or unrank(r, m, n) != w:
            return False
        seen.add(r)
    return seen == set(range(1, group_order(m, n) + 1))


def _check_length_additivity(m: int, n: int, budget: int) -> bool:
    roots = _delta_roots(m, n)
    for w in enumerate_group(m, n, budget):
        if sum(inversion_table(w).entries) != _negatives(w, roots):
            return False
    return True


def _check_equidistribution(m: int, n: int, budget: int) -> bool:
    expected = poincare(m, n)
    if histogram("inv", m, n, budget) != expected:
        return False
    return histogram("fmaj", m, n, budget) == expected


def _check_inverse_law(m: int, n: int, budget: int) -> bool:
    e = identity(m, n)
    for w in enumerate_group(m, n, budget):
        v = inverse(w)
        if multiply(v, w) != e or multiply(w, v) != e:
            return False
    return True


def run_property_checks(
    m: int, n: int, budget: int = DEFAULT_BUDGET
) -> list[tuple[str, bool]]:
    """Run the invariant sweep over the whole group; (name, passed) pairs.

    Root-system checks need m >= 2 and are skipped for m = 1 (the inversion
    table then falls back to the closed form throughout).
    """
    results = [
        ("presentation relations", _check_presentation(m, n)),
        ("inverse law", _check_inverse_law(m, n, budget)),
        ("rank bijection", _check_rank_bijection(m, n, budget)),
        ("equidistribution inv/fmaj/poincare", _check_equidistribution(m, n, budget)),
    ]
    if m >= 2:
        results.insert(
            1, ("oracle agreement", _check_oracle_agreement(m, n, budget))
        )
        results.append(
            ("length additivity", _check_length_additivity(m, n, budget))
        )
    return results
