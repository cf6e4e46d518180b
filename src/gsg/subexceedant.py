"""The bijection chain digits <-> (subexceedant function, colors) <-> element.

A subexceedant function on ``1..n`` satisfies ``1 <= f(i) <= i``; there are
``n!`` of them and they biject onto the permutations via the transposition
product ``(n f(n)) .. (2 f(2)) (1 f(1))``, composed like functions (the
factor ``(1 f(1))`` applies first).  Splitting each mixed-radix digit as
``d = m*(f-1) + color`` extends this to a bijection between n-digit strings
and colored permutations, hence between the integers ``0 .. m**n * n! - 1``
and the group.
"""

from __future__ import annotations

from collections.abc import Sequence

from .group_core import GroupElement
from .mixed_radix import MixedRadixNumber, _decimal, _echo, decode, encode_width

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
    raises ``ValueError``, a float ``TypeError``.  The values are checked
    once, up front; :func:`_swap` then applies each transposition
    ``(i f(i))`` on the left, swapping the values ``i`` and ``f(i)``.
    """
    if not f:
        raise ValueError("need at least one value")
    for i, fi in enumerate(f, start=1):
        if not 1 <= fi <= i:
            raise ValueError(f"f({i}) = {_decimal(fi)} outside 1..{i}")
    return _swap(f)


def _swap(f: Sequence[int]) -> tuple[int, ...]:
    """``psi(f)`` for values already in range."""
    n = len(f)
    window = list(range(1, n + 1))
    pos = [0] + list(range(n))  # pos[v] = 0-based index of value v; pos[0] unused
    for i, fi in enumerate(f, start=1):
        pi, pf = pos[i], pos[fi]
        window[pi], window[pf] = window[pf], window[pi]
        pos[i], pos[fi] = pf, pi
    return tuple(window)


def psi_inverse(beta: Sequence[int]) -> tuple[int, ...]:
    """The tuple ``f`` with ``psi(f) == beta``, for a permutation's window ``beta``.

    The fix-point reduction loop, working down from ``i = n``: read off
    ``f(i)`` as the image of ``i``, then swap that image with the entry
    currently mapping to ``i``, making ``i`` a fixed point that the next
    round ignores.
    """
    n = len(beta)
    if not n or sorted(beta) != list(range(1, n + 1)):
        raise ValueError(f"need a permutation of 1..n with n >= 1, got {_echo(tuple(beta))}")
    return _reduce(beta)


def _reduce(beta: tuple[int, ...]) -> tuple[int, ...]:
    """``psi_inverse(beta)`` for a permutation ``beta`` already checked."""
    n = len(beta)
    window = list(beta)
    pos = [0] * (n + 1)
    for idx, v in enumerate(window):
        pos[v] = idx
    # step i moves f(i) = window[i-1] to where i was; neither position i-1
    # nor pos[i] is read again, so window ends as the values f(1)..f(n)
    for i in range(n, 0, -1):
        v, p = window[i - 1], pos[i]
        window[p] = v
        pos[v] = p
    return tuple(window)


def element_of_digits(d: MixedRadixNumber) -> GroupElement:
    """The colored permutation encoded by an n-digit string.

    Digit ``d_{i-1} < m*i`` splits as ``m*(f(i)-1) + color_i``, so ``f(i) <= i``;
    the permutation part is the image of ``f`` under ``psi``, unchecked.
    """
    m, digits = d.m, d.digits
    beta = _swap([digit // m + 1 for digit in digits])
    return GroupElement._unchecked(m, d.n, beta, tuple([digit % m for digit in digits]))


def digits_of_element(w: GroupElement) -> MixedRadixNumber:
    """Inverse of :func:`element_of_digits`: ``d_{i-1} = m*(f(i)-1) + color_i``."""
    m = w.m
    digits = tuple([m * (fi - 1) + r for fi, r in zip(_reduce(w.beta), w.colors)])
    return MixedRadixNumber._unchecked(m, digits)


def integer_of_element(w: GroupElement) -> int:
    """The integer representation, in ``0 .. m**n * n! - 1``."""
    return decode(digits_of_element(w))


def element_of_integer(x: int, m: int, n: int) -> GroupElement:
    """Inverse of :func:`integer_of_element`; OverflowError when out of range."""
    return element_of_digits(encode_width(x, m, n))
