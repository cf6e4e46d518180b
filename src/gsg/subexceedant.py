"""The bijection chain digits <-> (subexceedant function, colors) <-> element.

A subexceedant function on ``1..n`` satisfies ``1 <= f(i) <= i``; there are
``n!`` of them and they biject onto the permutations via the transposition
product ``(n f(n)) .. (2 f(2)) (1 f(1))``, composed like functions (the
factor ``(1 f(1))`` applies first).  Splitting each mixed-radix digit as
``d = m*(f-1) + color`` extends this to a bijection between n-digit strings
and colored permutations, hence between the integers ``0 .. m**n * n! - 1``
and the group.

Both directions are one walk over i = n down to 1.  Composing on the right,
``W := W o (i f(i))``, swaps the window's *positions* i and f(i), so the
product is Durstenfeld's in-place shuffle of the identity window (Knuth,
TAOCP vol. 2, 3.4.2, Algorithm P); the inverse replays the same swaps.
"""

from __future__ import annotations

from collections.abc import Sequence
from operator import index

from .group_core import GroupElement, _window
from .mixed_radix import MixedRadixNumber, _decimal, _dims, decode, encode_width

__all__ = [
    "psi",
    "psi_inverse",
    "element_of_digits",
    "digits_of_element",
    "integer_of_element",
    "element_of_integer",
]


def psi(f: Sequence[int]) -> tuple[int, ...]:
    """The permutation ``(n f(n)) .. (1 f(1))``, with ``(1 f(1))`` applied first.

    ``f`` is the values ``f(1)..f(n)``, any sequence of ints, and the result
    the window, a tuple.  An empty ``f`` or an ``f(i)`` outside ``1..i``
    raises ``ValueError``, a float or other non-int ``TypeError``.  The
    values are read once and checked up front; the walk of
    :func:`element_of_digits` at ``m = 1`` then swaps positions i and f(i)
    for i = n down to 1.
    """
    f = tuple(f)
    _dims(1, len(f))
    for i, fi in enumerate(f, start=1):
        if not 1 <= fi <= i:
            raise ValueError(f"f({i}) = {_decimal(fi)} outside 1..{i}")
    d = MixedRadixNumber._unchecked(1, tuple([index(fi) - 1 for fi in f]))
    return element_of_digits(d).beta


def psi_inverse(beta: Sequence[int]) -> tuple[int, ...]:
    """The tuple ``f`` with ``psi(f) == beta``, for a permutation's window ``beta``.

    The walk of :func:`digits_of_element` at ``m = 1``: it replays psi's
    position swaps from the identity, reading each ``f(i)`` on the way.
    ``beta`` is checked by the :class:`GroupElement` constructor.
    """
    d = digits_of_element(GroupElement(1, len(beta), beta, (0,) * len(beta)))
    return tuple([digit + 1 for digit in d.digits])


def element_of_digits(d: MixedRadixNumber) -> GroupElement:
    """The colored permutation encoded by an n-digit string.

    Digit ``d_i < m*(i+1)`` (0-based) splits as ``m*j + color``, so ``j <= i``
    is ``f(i+1) - 1``.  Starting from the identity window, the walk swaps
    positions i and j for i = n-1 down to 0, unchecked.
    """
    m, digits, n = d.m, d.digits, d.n
    beta = _window(n)
    for i in range(n - 1, -1, -1):
        j = digits[i] // m
        beta[i], beta[j] = beta[j], beta[i]
    return GroupElement._unchecked(m, n, tuple(beta), tuple([digit % m for digit in digits]))


def digits_of_element(w: GroupElement) -> MixedRadixNumber:
    """Inverse of :func:`element_of_digits`: ``d_i = m*j + color_i``.

    The walk replays the swaps from the identity window, with ``pos[v]`` the
    0-based position of value v.  Swap i leaves ``beta[i]`` at position i
    for good, so ``j = pos[beta[i]]``; position i and ``beta[i]`` are never
    read again, and only the value moved to j is written back.
    """
    m, beta, colors = w.m, w.beta, w.colors
    n = len(beta)
    window = list(range(1, n + 1))
    pos = list(range(-1, n))  # pos[0] unused
    digits = [0] * n
    for i in range(n - 1, -1, -1):
        j = pos[beta[i]]
        window[j] = v = window[i]
        pos[v] = j
        digits[i] = m * j + colors[i]
    return MixedRadixNumber._unchecked(m, tuple(digits))


def integer_of_element(w: GroupElement) -> int:
    """The integer representation, in ``0 .. m**n * n! - 1``."""
    return decode(digits_of_element(w))


def element_of_integer(x: int, m: int, n: int) -> GroupElement:
    """Inverse of :func:`integer_of_element`; OverflowError when out of range."""
    return element_of_digits(encode_width(x, m, n))
