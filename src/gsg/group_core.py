"""Exact arithmetic for colored permutations.

An element of the group on parameters ``(m, n)`` is a permutation of
``1..n`` together with a color exponent in ``0..m-1`` per position: position
``k`` maps to the value ``beta[k]`` carrying color ``colors[k]``.  Colors are
exponents of a fixed primitive m-th root of unity which is never evaluated
numerically; all arithmetic stays in the integers mod m.

Window text format (bit-exact): entries separated by a single space, each
entry an optional prefix ``[c]`` with ``1 <= c <= m-1`` followed by the
decimal value; color 0 carries no prefix and no number has a leading zero.
Example: ``"[2]3 [4]1 [1]6 5"``.

Products compose like functions: ``multiply(u, v)`` applies ``v`` first,
sending ``k`` to ``u(v(k))`` on colored values.

Where window values come from: CPython shares only the ints -5..256, so a
window of n values built with ``range`` holds its own n - 256 int objects of
32 bytes each.  Every window shares one pool of the ints 1..N instead: the
builders take their values from it, ``multiply`` and ``power`` reuse their
input's, and the checked constructor and :func:`parse_window` swap each
value for the pool's once every check has passed, so a refused input never
grows it.  N is the largest n built so far.  The pool grows by rebinding a
longer tuple, never by extending a shared list in place: two threads
extending one list could both append the same range and break
``pool[k - 1] == k``, while a rebind lost to another thread only leaves some
windows holding their own objects.

At m = 1 both constructors store one cached tuple of n zero colors once their
checks pass, as identity and gen_s do at every m: 16 KB of 32 at n = 2000.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from collections.abc import Iterator, Sequence
from functools import lru_cache
from operator import index

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    WindowParseError,
)
from .mixed_radix import (
    Value, _decimal, _digit_count, _dims, _echo, _new, _quote, _radix_product, slot_setters
)

__all__ = [
    "GroupElement",
    "group_order",
    "identity",
    "multiply",
    "inverse",
    "power",
    "gen_s",
    "gen_t",
    "gen_sigma",
    "longest_element",
    "canonical_length",
    "enumerate_group",
    "parse_window",
    "DEFAULT_BUDGET",
]

DEFAULT_BUDGET = 10**6

_ENTRY_RE = re.compile(r"(?:\[([0-9]+)\])?([0-9]+)")

_pool: tuple[int, ...] = ()  # _pool[k - 1] is k; see the module docstring
_UNCOLORED_SIZES = 32  # zero-color tuples kept: at worst this many of the largest n


def _window(n: int) -> list[int]:
    """The identity window ``[1..n]``, a new list of the pool's int objects."""
    return list(_grow(n)[:n])


def _grow(n: int) -> tuple[int, ...]:
    """The pool, reaching ``n``: a shorter one is first rebound to a longer
    one that keeps its objects."""
    global _pool
    pool = _pool  # read once: another thread may rebind it
    if len(pool) < n:
        _pool = pool = pool + tuple(range(len(pool) + 1, n + 1))
    return pool


@lru_cache(maxsize=_UNCOLORED_SIZES)
def _uncolored(n: int) -> tuple[int, ...]:
    return (0,) * n


def _is_window(beta: Sequence[int], n: int) -> bool:
    """Whether ``beta`` holds each of 1..n once: the one permutation test, in
    linear time; the bounds come first, as a value below 1 would index the pool."""
    return len(beta) == n and min(beta) >= 1 and max(beta) <= n and len(set(beta)) == n


class GroupElement(Value):
    """A colored permutation: ``k -> beta[k]`` with color ``colors[k]``.

    ``beta`` and ``colors`` are stored 0-indexed: ``beta[k-1]`` is the image
    of ``k``.  Instances are immutable and hashable.
    """

    __slots__ = ("m", "n", "beta", "colors")

    def __init__(
        self, m: int, n: int, beta: tuple[int, ...], colors: tuple[int, ...]
    ):
        m, n = _dims(m, n)
        beta, colors = tuple(map(index, beta)), tuple(map(index, colors))
        if not _is_window(beta, n):
            raise ValueError(f"{_echo(beta)} is not a permutation of 1..{_decimal(n)}")
        if len(colors) != n:
            raise ValueError("one color per position required")
        for r in colors:
            if not 0 <= r <= m - 1:
                raise ValueError(f"color {_decimal(r)} outside 0..{_decimal(m - 1)}")
        pool = _grow(n)  # only once every check has passed
        _set_m(self, m)
        _set_n(self, n)
        _set_beta(self, tuple([pool[b - 1] for b in beta]))
        _set_colors(self, _uncolored(n) if m == 1 else colors)

    @staticmethod
    def _unchecked(
        m: int, n: int, beta: tuple[int, ...], colors: tuple[int, ...]
    ) -> "GroupElement":
        obj = _new(GroupElement)
        _set_m(obj, m)
        _set_n(obj, n)
        _set_beta(obj, beta)
        _set_colors(obj, _uncolored(n) if m == 1 else colors)
        return obj

    # field by field: verify compares elements one by one over whole groups
    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.beta == other.beta
            and self.colors == other.colors
            and self.m == other.m
            and self.n == other.n
        )

    __hash__ = Value.__hash__  # a class that defines __eq__ alone is unhashable

    def window(self) -> str:
        """The one-line window text form."""
        parts = []
        for v, c in zip(self.beta, self.colors):
            parts.append(f"[{c}]{v}" if c else str(v))
        return " ".join(parts)

    def __str__(self) -> str:
        return self.window()


_set_m, _set_n, _set_beta, _set_colors = slot_setters(GroupElement)


def group_order(m: int, n: int) -> int:
    m, n = _dims(m, n)
    return _radix_product(m, 0, n)


def _order_within(m: int, n: int, cap: int) -> int | None:
    """The order m^n n!, or None once the product of the radices m*i passes
    ``cap`` before i = n: O(log cap) steps for any n.  Callers check (m, n) first."""
    order = 1
    for i in range(1, n + 1):
        order *= m * i
        if order > cap and i < n:
            return None
    return order


def _require_budget(work: int | None, unit: str, m: int, n: int, budget: int) -> int:
    """``work``, or :class:`BudgetExceeded` "N <unit> for G(m,1,n) exceed budget B"
    past ``budget``; None, a product :func:`_order_within` cut short, leaves N out."""
    if work is None or work > budget:
        count = "" if work is None else f"{_decimal(work)} "
        where = f"G({_decimal(m)},1,{_decimal(n)}) exceed budget {_decimal(budget)}"
        raise BudgetExceeded(f"{count}{unit} for {where}")
    return work


def identity(m: int, n: int) -> GroupElement:
    m, n = _dims(m, n)
    return GroupElement._unchecked(m, n, _grow(n)[:n], _uncolored(n))


def multiply(u: GroupElement, v: GroupElement) -> GroupElement:
    """Product with ``v`` acting first: ``k -> u(v(k))`` on colored values."""
    m, n = u.m, u.n
    if (m, n) != (v.m, v.n):
        raise DimensionMismatch(
            f"cannot multiply ({_decimal(m)},{_decimal(n)}) element"
            f" by ({_decimal(v.m)},{_decimal(v.n)}) element"
        )
    ubeta, ucolors = u.beta, u.colors
    beta, colors = [], []
    for g, vc in zip(v.beta, v.colors):
        beta.append(ubeta[g - 1])
        colors.append((vc + ucolors[g - 1]) % m)
    return GroupElement._unchecked(m, n, tuple(beta), tuple(colors))


def inverse(u: GroupElement) -> GroupElement:
    """The two-sided inverse: permutation inverts, colors negate along it."""
    m, n = u.m, u.n
    beta_inv = [0] * n
    colors = [0] * n
    for k, image, c in zip(_grow(n), u.beta, u.colors):  # the pool's ints as positions
        beta_inv[image - 1] = k
        if c:
            colors[image - 1] = m - c
    return GroupElement._unchecked(m, n, tuple(beta_inv), tuple(colors))


def power(u: GroupElement, k: int) -> GroupElement:
    """``u`` composed with itself ``k`` times; negative ``k`` powers the inverse.

    One walk per cycle of the permutation, O(n) for any ``k``: the entry at
    index ``idx`` of a cycle of length ``ell`` moves ``k mod ell`` steps
    along it and picks up the colors it passes, plus the cycle's color sum
    once per whole turn (prefix sums over its colors written out twice).
    """
    m, n, k = u.m, u.n, index(k)
    ubeta, ucolors = u.beta, u.colors
    beta = [0] * n
    colors = [0] * n
    for start in range(n):
        if beta[start]:
            continue
        q = ubeta[start] - 1
        cycle = [start]
        while q != start:
            cycle.append(q)
            q = ubeta[q] - 1
        ell = len(cycle)
        whole, rest = divmod(k, ell)
        ccolors = [ucolors[q] for q in cycle]
        prefix = list(itertools.accumulate(ccolors + ccolors, initial=0))
        turn = whole * prefix[ell]
        # ubeta[cycle[j]] is cycle[j + 1] + 1: u's own values, turned by rest - 1
        turned = cycle[rest - 1 :] + cycle[: rest - 1]
        for q, p, hi, lo in zip(cycle, turned, prefix[rest:], prefix):
            beta[q] = ubeta[p]
            colors[q] = (turn + hi - lo) % m
    return GroupElement._unchecked(m, n, tuple(beta), tuple(colors))


def gen_s(m: int, n: int, i: int) -> GroupElement:
    """The color-free adjacent transposition swapping ``i`` and ``i+1``."""
    m, n = _dims(m, n)
    if not 1 <= (i := index(i)) <= n - 1:
        raise IndexOutOfRange(f"transposition index {_decimal(i)} outside 1..{_decimal(n - 1)}")
    beta = _window(n)
    beta[i - 1], beta[i] = beta[i], beta[i - 1]
    return GroupElement._unchecked(m, n, tuple(beta), _uncolored(n))


def gen_t(m: int, n: int, i: int) -> GroupElement:
    """The color rotation at position ``i`` (identity permutation, color 1).

    With m = 1 there are no colors and this is the identity.
    """
    m, n = _dims(m, n)
    if not 1 <= (i := index(i)) <= n:
        raise IndexOutOfRange(f"color generator index {_decimal(i)} outside 1..{_decimal(n)}")
    colors = [0] * n
    colors[i - 1] = int(m > 1)  # m = 1 has no colors
    return GroupElement._unchecked(m, n, _grow(n)[:n], tuple(colors))


def gen_sigma(m: int, n: int, i: int) -> GroupElement:
    """The i-th flag generator: ``t_1`` for i = 0, else ``s_i .. s_1 t_1``."""
    m, n = _dims(m, n)
    if not 0 <= (i := index(i)) <= n - 1:
        raise IndexOutOfRange(f"flag generator index {_decimal(i)} outside 0..{_decimal(n - 1)}")
    w = gen_t(m, n, 1)
    for j in range(1, i + 1):
        w = multiply(gen_s(m, n, j), w)
    return w


def longest_element(m: int, n: int) -> GroupElement:
    """Identity permutation with every color maximal (identity when m = 1)."""
    m, n = _dims(m, n)
    return GroupElement._unchecked(m, n, _grow(n)[:n], (m - 1,) * n)


def _earlier_smaller(beta: Sequence[int]) -> list[int]:
    """The count ``s_p`` of earlier smaller values at each position (values
    >= 0): a popcount of ``seen``, whose bit v is set once v has gone by."""
    seen = 0
    below = []
    for b in beta:
        bit = 1 << b
        below.append((seen & (bit - 1)).bit_count())
        seen |= bit
    return below


def canonical_length(w: GroupElement) -> int:
    """Length of the shortest positive word in ``t_1, s_1, .., s_{n-1}``.

    Bagno's closed form: ``inv(key) + sum over colored positions k of
    (beta_k + c_k - 1)``, with the key ``n + 1 - beta_k`` at colored positions
    and ``n + beta_k`` elsewhere; ``inv(key)`` from one :func:`_earlier_smaller` pass.
    """
    n = w.n
    key = [n + 1 - b if c else n + b for b, c in zip(w.beta, w.colors)]
    colored = sum(b + c - 1 for b, c in zip(w.beta, w.colors) if c)
    return n * (n - 1) // 2 - sum(_earlier_smaller(key)) + colored


def enumerate_group(
    m: int, n: int, budget: int = DEFAULT_BUDGET
) -> Iterator[GroupElement]:
    """Yield every element exactly once (all permutations x all color vectors).

    The budget is checked at call time, not at first iteration.
    """
    m, n = _dims(m, n)
    _require_budget(_order_within(m, n, budget), "elements", m, n, budget)
    build = GroupElement._unchecked
    return (
        build(m, n, beta, colors)
        for beta in itertools.permutations(range(1, n + 1))
        for colors in itertools.product(range(m), repeat=n)
    )


def parse_window(text: str, m: int) -> GroupElement:
    """Parse the window text form; the error message names any bad entry.

    The number of entries fixes n; the values must form a permutation of
    1..n and color prefixes must lie in 1..m-1 (so m = 1 takes none).
    """
    if not text:
        raise WindowParseError("empty window")
    entries = text.split(" ")
    m, n = _dims(m, len(entries))
    value_width, color_width = _digit_count(n), _digit_count(m - 1)
    values = []
    colors = []
    fullmatch = _ENTRY_RE.fullmatch
    for pos, entry in enumerate(entries, start=1):
        match = fullmatch(entry)
        if match is None:
            raise WindowParseError(f"entry {pos} ({_quote(entry)}) is malformed")
        color_text, value_text = match.groups()
        if (value_text[0] == "0" and len(value_text) > 1) or (
            color_text is not None and color_text[0] == "0" and len(color_text) > 1
        ):
            raise WindowParseError(f"entry {pos} ({_quote(entry)}) has a leading zero")
        color = 0
        if color_text is not None:
            if m == 1:
                raise WindowParseError(
                    f"entry {pos} ({_quote(entry)}): m = 1 takes no color prefix"
                )
            if len(color_text) > color_width:
                raise WindowParseError(
                    f"entry {pos}: color of {len(color_text)} digits outside 1..{_decimal(m - 1)}"
                )
            color = int(color_text)
            if not 1 <= color <= m - 1:
                raise WindowParseError(
                    f"entry {pos} ({_quote(entry)}): color {color} outside 1..{_decimal(m - 1)}"
                )
        if len(value_text) > value_width:
            raise WindowParseError(f"entry {pos}: value of {len(value_text)} digits outside 1..{n}")
        values.append(value_text)
        colors.append(color)
    beta = list(map(int, values))
    if not _is_window(beta, n):  # a bad window takes the slow loop that names its entry
        for pos, value in enumerate(beta, start=1):
            if not 1 <= value <= n:
                raise WindowParseError(f"entry {pos}: value {value} outside 1..{n}")
        counts = Counter(beta)
        dup = next(v for v in beta if counts[v] > 1)
        raise WindowParseError(f"value {dup} appears more than once")
    pool = _grow(n)
    return GroupElement._unchecked(m, n, tuple([pool[b - 1] for b in beta]), tuple(colors))
