"""Root-system statistics, inversion tables, rank/unrank and q-polynomials.

The root system lives on colored basis vectors: a root is the formal
difference of two distinct colored vectors ``(a, j)`` and ``(b, l)``, held
as the plain int tuple ``(a, j, b, l)``.  The root-theoretic length of an
element is the number of simple-side roots it sends negative; split by
anchor coordinate this gives the i-inversion numbers, returned as a
mixed-radix digit string.  The library computes those numbers in
closed form, in one pass over the window, and the length as their sum;
counting roots is kept as the oracle: :func:`inv_oracle` and ``gsg verify``
count a whole list of roots at once, by the rule :func:`_negatives` states.
Decoding the digit string (plus one) ranks the group, and reading it as
flag-generator exponents transports the length statistic onto the flag-major
index.
"""

from __future__ import annotations

from itertools import accumulate
from operator import index, sub

from .errors import IndexOutOfRange, RankOutOfRange
from .group_core import (
    DEFAULT_BUDGET, GroupElement, _dims, _earlier_smaller, _require_budget, _window
)
from .mixed_radix import (
    MixedRadixNumber, Value, _decimal, _decode, _encode, _new, _quote, _radix_product, slot_setters
)

__all__ = [
    "QPolynomial",
    "delta_block",
    "length_L",
    "inv_oracle",
    "inv_closed",
    "inversion_table",
    "rank",
    "unrank",
    "fmaj_exponents",
    "fmaj",
    "phi",
    "poincare",
    "histogram",
]


def delta_block(m: int, n: int, i: int) -> list[tuple[int, int, int, int]]:
    """The block of the simple-side set anchored at coordinate ``p = n+1-i``:
    ``e_p`` minus each colored ``e_l`` with ``l <= p``, less the degenerate
    color-0 same-index term (it is not a root)."""
    m, n = _dims(m, n)
    if not 1 <= (i := index(i)) <= n:
        raise IndexOutOfRange(f"block index {_decimal(i)} outside 1..{_decimal(n)}")
    p = n + 1 - i
    return [(0, p, k, l) for l in range(1, p + 1) for k in range(m) if l != p or k != 0]


def length_L(w: GroupElement) -> int:
    """The root-theoretic length, as the sum of the i-inversion numbers.

    Length additivity makes this equal to the number of simple-side roots
    ``w`` sends negative: :func:`_negatives` summed over each :func:`delta_block`.
    """
    return sum(_inversions(w))


def _negatives(w: GroupElement, roots: list[tuple[int, int, int, int]]) -> int:
    """How many of ``roots``, as ``(a, j, b, l)`` tuples, ``w`` sends negative.

    ``w`` sends ``(a, j)`` to ``(a + color_j mod m, beta_j)``.  An image root
    is negative, at the same index, iff its leading exponent is larger; with
    the leading index larger, iff that exponent is nonzero; with it smaller,
    iff the trailing exponent is zero.  Exactly one of r and -r is negative.
    """
    m, beta, colors = w.m, w.beta, w.colors
    count = 0
    for a, j, b, l in roots:
        # beta is a permutation: the two images are equal exactly when j == l
        if j == l:
            count += (a + colors[j - 1]) % m > (b + colors[l - 1]) % m
        elif beta[j - 1] > beta[l - 1]:
            count += (a + colors[j - 1]) % m != 0
        else:
            count += (b + colors[l - 1]) % m == 0
    return count


def inv_oracle(w: GroupElement, i: int) -> int:
    """i-inversions by direct root counting over the i-th block."""
    return _negatives(w, delta_block(w.m, w.n, i))


def inv_closed(w: GroupElement, i: int) -> int:
    """i-inversions in closed form, no root system needed: the entry of
    :func:`_inversions` at position ``n+1-i``."""
    if not 1 <= (i := index(i)) <= w.n:
        raise IndexOutOfRange(f"inversion index {_decimal(i)} outside 1..{w.n}")
    return _inversions(w)[w.n - i]


def _inversions(w: GroupElement) -> list[int]:
    """Every i-inversion number in position order, in one pass.

    The entry at 0-based position p, with i = n - p: the color c there, plus
    m per earlier smaller value when c is nonzero, plus one per earlier larger
    value.  Bit v of ``seen`` is set once v has gone by, so the popcount of
    ``seen >> b`` counts the earlier larger values and p minus it the smaller.
    """
    m = w.m
    seen = 0
    out = []
    p = 0
    for b, c in zip(w.beta, w.colors):
        larger = (seen >> b).bit_count()
        seen |= 1 << b
        out.append(c + (m * (p - larger) if c else 0) + larger)
        p += 1
    return out


def inversion_table(w: GroupElement) -> MixedRadixNumber:
    """All i-inversions via the closed form, in one pass: the digits of
    ``rank(w) - 1``, whose ``entries`` list i = 1..n, most significant first.
    """
    # the entry at 0-based position p is at most m*(p+1) - 1, its digit bound
    return MixedRadixNumber._unchecked(w.m, tuple(_inversions(w)))


def rank(w: GroupElement) -> int:
    """1-based position of ``w`` in the inversion-table enumeration:
    ``decode(inversion_table(w)) + 1``."""
    # in position order, the i-inversion numbers are the digits least significant first
    return _decode(w.m, _inversions(w), 0, w.n) + 1


def unrank(r: int, m: int, n: int) -> GroupElement:
    """The element whose rank is ``r``; inverse of :func:`rank`.

    Positions are filled from n down to 1.  Each digit selects from the
    remaining values, ordered plain entries descending, then colored entries
    ascending by value: a digit ``d`` below the count ``k`` of remaining
    values picks the d-th largest with color 0, otherwise ``divmod(d - k,
    m - 1)`` gives the index among the remaining values in ascending order
    and the color minus 1.  O(n^2) in all.  A rank below 1 is refused
    before the order is built, so at any n.
    """
    r, (m, n) = index(r), _dims(m, n)
    if r < 1:
        raise RankOutOfRange(f"rank {_decimal(r)} is below 1")
    order = _radix_product(m, 0, n)
    if r > order:
        raise RankOutOfRange(f"rank {_decimal(r)} outside 1..{_decimal(order)}")
    digits = [0] * n
    _encode(r - 1, m, 0, n, digits)
    remaining = _window(n)
    beta = [0] * n
    colors = [0] * n
    for p in range(n - 1, -1, -1):
        d = digits[p]
        k = p + 1  # the values still remaining
        if d < k:
            beta[p] = remaining.pop(p - d)
        else:
            idx, c = divmod(d - k, m - 1)
            beta[p] = remaining.pop(idx)
            colors[p] = c + 1
    return GroupElement._unchecked(m, n, tuple(beta), tuple(colors))


def fmaj_exponents(w: GroupElement) -> list[int]:
    """Exponents of the unique flag-generator factorization.

    ``w`` is the product of the i-th flag generator to the power ``e_i``,
    i = n-1 down to 0.  Peeling a power off position p = i+1 keeps the rest
    in cyclic order and lowers their colors by its color, plus 1 above its
    value: ``e_i = c*p + r_p``.  With ``s_p`` the counts of earlier smaller
    values (one :func:`_earlier_smaller` pass, ``s_{n+1} = n``), the walk
    from p = n down has ``r_p = d mod p`` for ``d = s_{p+1} - s_p - 1``,
    negative exactly at a descent; the descents and the colors give ``c``.
    :func:`phi` walks it back.
    """
    m, n, colors = w.m, w.n, w.colors
    below = _earlier_smaller(w.beta)
    taken, after = 0, n
    for p in range(n, 0, -1):
        s = below[p - 1]
        d = after - s - 1
        taken += d < 0  # a descent at p
        c = (colors[p - 1] - taken) % m
        below[p - 1] = c * p + d % p
        taken += c
        after = s
    return below


def fmaj(w: GroupElement) -> int:
    """The flag-major index, the sum of :func:`fmaj_exponents`, in Adin and
    Roichman's closed form ``m * maj + sum(colors)``: maj sums the positions
    p whose key ``value - color*(n+1)`` (the order of ``(-color, value)``)
    exceeds the next one.  One pass, no count of earlier values and no walk."""
    shift = w.n + 1
    maj = prev = p = 0
    for b, c in zip(w.beta, w.colors):
        key = b - c * shift
        if prev > key:  # a descent at p; at p = 0 it adds nothing
            maj += p
        prev = key
        p += 1
    return w.m * maj + sum(w.colors)


def phi(w: GroupElement) -> GroupElement:
    """The bijection carrying the inversion statistic onto the flag-major index.

    Its flag-generator exponents are ``w``'s i-inversion numbers: the walk of
    :func:`fmaj_exponents` backwards, picking values as :func:`unrank` does.
    """
    m, n = w.m, w.n
    remaining = _window(n)
    beta, colors = [0] * n, [0] * n
    taken, s, prev = 0, 0, n + 1
    for p, e in zip(range(n, 0, -1), reversed(_inversions(w))):
        c, r = divmod(e, p)
        s = (s - r - 1) % p
        b = beta[p - 1] = remaining.pop(s)
        taken += b > prev  # a descent at p
        colors[p - 1] = (c + taken) % m
        taken += c
        prev = b
    return GroupElement._unchecked(m, n, tuple(beta), tuple(colors))


class QPolynomial(Value):
    """Dense nonnegative integer coefficients, index = degree in q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        coeffs = tuple(map(index, coeffs))
        if (c := min(coeffs, default=0)) < 0:
            raise ValueError(f"coefficient {_decimal(c)} at degree {coeffs.index(c)} is negative")
        end = len(coeffs)
        while end and coeffs[end - 1] == 0:
            end -= 1
        _set_coeffs(self, coeffs[:end])

    @staticmethod
    def _unchecked(coeffs: tuple[int, ...]) -> "QPolynomial":
        obj = _new(QPolynomial)
        _set_coeffs(obj, coeffs)
        return obj

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coeffs)


(_set_coeffs,) = slot_setters(QPolynomial)


def _window_sums(coeffs: list[int], k: int) -> list[int]:
    """``coeffs`` times ``[k]_q``: coefficient j sums the ``k`` coefficients
    at ``j, j - 1, .., j - k + 1``, a difference of two prefix sums.  O(degree)."""
    prefix = list(accumulate(coeffs + [0] * (k - 1)))
    return list(map(sub, prefix, [0] * k + prefix))


def poincare(m: int, n: int, budget: int = DEFAULT_BUDGET) -> QPolynomial:
    """The product of the q-integers ``[im]_q`` for ``i = 1..n``, exactly.

    Multiplying by ``[k]_q`` is one :func:`_window_sums`, O(deg) per factor.
    ``budget`` counts coefficient updates, ``n * (deg + 1)`` with ``deg =
    m*n*(n+1)/2 - n`` the degree of the product; past it :class:`BudgetExceeded`,
    "N coefficient updates for G(m,1,n) exceed budget B", before any work.
    """
    m, n = _dims(m, n)
    _require_budget(n * (m * n * (n + 1) // 2 - n + 1), "coefficient updates", m, n, budget)
    coeffs = [1]
    for k in range(m, m * n + 1, m):
        coeffs = _window_sums(coeffs, k)
    return QPolynomial._unchecked(tuple(coeffs))  # ints, the last one 1


def histogram(
    statistic: str, m: int, n: int, budget: int = DEFAULT_BUDGET
) -> QPolynomial:
    """Coefficient ``c_k`` counts the elements whose ``statistic`` (``"inv"``,
    ``"fmaj"`` or ``"L"``) has value ``k``.  Each statistic's generating
    function factors into :func:`poincare`'s product, so that is what is
    returned: no element is built and nothing is enumerated.

    ``inv`` and ``L`` sum the i-inversion numbers.  At 0-based position p the
    number is ``p - s``, plus ``c + m*s`` at a color c > 0, with s in 0..p the
    earlier smaller values; over the (s, c) it takes each of 0..m(p+1)-1
    once, so position p contributes ``[m(p+1)]_q``.  ``fmaj`` sums the flag
    exponents ``c_p * p + r_p``: the ``r_p`` sum to the permutation's major
    index, counted over S_n by MacMahon's ``[n]_q! = prod [p]_q``, and the
    peeled colors ``c_p`` run once over all m^n tuples, so position p
    contributes ``[p]_q [m]_{q^p} = (1-q^p)/(1-q) * (1-q^(mp))/(1-q^p) =
    [mp]_q``.  ``budget`` bounds the coefficient updates as in :func:`poincare`.
    """
    if statistic not in ("inv", "fmaj", "L"):
        shown = _quote(statistic) if isinstance(statistic, str) else _decimal(statistic)
        raise ValueError(f"unknown statistic {shown}")
    return poincare(m, n, budget)
