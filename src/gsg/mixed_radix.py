"""Mixed-radix codec between natural numbers and per-position-bounded digits.

The number system is parametrized by a radix seed ``m >= 1``: position ``i``
(0-based, least significant first) has weight ``m**i * i!`` and admits digits
``0 .. m*(i+1)-1``.  With ``m = 1`` this degenerates to the factorial number
system.  Exactly the integers ``0 .. m**n * n! - 1`` are representable in
``n`` digits, which is what makes the system suitable for ranking the
``m**n * n!`` colored permutations on ``n`` letters.

All arithmetic is exact (Python ints); values hundreds of decimal digits
long round-trip bit-exactly.

Conversion is divide and conquer over the product tree of the radices
``m*(i+1)`` (Brent and Zimmermann, *Modern Computer Arithmetic*, 1.7).  With
``W(lo, hi)`` the product of the radices at positions ``lo .. hi-1``, digits
``[lo, hi)`` decode to ``low + W(lo, mid) * high`` from their two halves, and
encoding splits ``x`` by ``divmod(x, W(lo, mid))``; ranges of at most
``_LEAF`` digits (``2*_LEAF`` to decode) run a digit loop, two positions
(radices ``r``, ``r + m``) per big-int step.  Each ``W`` is built once, from
its halves, and cached by ``(m, lo, hi)``, at most ``_TREE_NODES`` of them: a
width-n tree is about ``2*n/_LEAF`` products, about ``log2(n/_LEAF) + 1``
times the size of ``m**n * n!`` in all (15 KB at m = 2, n = 2000).  A digit
loop costs Theta(n*N) on an N-bit value; the tree decodes in O(M(N) log n),
with CPython's Karatsuba M(N) = O(N**1.585), and encodes by CPython's
multi-limb division, quadratic in 3.11 but with a far smaller constant.
"""

from __future__ import annotations

from functools import lru_cache
from math import lgamma, log, prod
from operator import index

from .errors import DigitBoundError

__all__ = [
    "MixedRadixNumber",
    "weights",
    "encode",
    "encode_width",
    "decode",
]


class Value:
    """Base of the immutable value classes; their fields are their ``__slots__``.

    An instance equals another of the same class with equal fields, hashes
    by its fields and refuses assignment and deletion.  Constructors store
    the fields through the slots' member descriptors (:func:`slot_setters`),
    which this ``__setattr__`` does not reach.  The checked constructors take
    their integer fields through ``operator.index``: a float raises
    ``TypeError``, a bool becomes an int.  Each class's ``_unchecked``
    builds an instance the same way without the constructor checks: only
    for values the library built from checked values, which pass the checks
    by construction; sequences must already be tuples.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def slot_setters(cls: type) -> list:
    """The ``__set__`` of each of ``cls``'s slots, in ``__slots__`` order."""
    return [getattr(cls, name).__set__ for name in cls.__slots__]


_new = object.__new__


def _digit_count(x: int) -> int:
    """The decimal digits of ``x >= 0``, without ``str(x)``, which the
    int-to-str limit refuses past 4300 digits.  Parsers refuse a digit string
    longer than its bound's before ``int``, which the limit refuses too."""
    # x >= 2**(bit_length - 1), and 0.30102999 < log10(2): d starts at most at the count
    d = max(1, (x.bit_length() - 1) * 30102999 // 10**8 + 1)
    while x >= 10**d:
        d += 1
    return d


_QUOTED = 32  # characters of a bad text, or entries of a bad tuple, that a message repeats
_DECIMAL_BOUND = 10**4300  # CPython's default int-to-str limit, in decimal digits


def _quote(text: str) -> str:
    """``repr(text)``, or of its first ``_QUOTED`` characters and its length
    when longer, so that a message about an over-long input stays short."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _decimal(x: int) -> str:
    """``x`` in decimal, or its bit length past 4300 digits, or past a lower
    int-to-str limit where ``str`` raises.  The bound is fixed because the
    ``gsg`` command lifts the limit while it runs.  A non-int is ``str(x)``."""
    if not isinstance(x, int) or abs(x) < _DECIMAL_BOUND:
        try:
            return str(x)
        except ValueError:
            pass
    return f"<{x.bit_length()}-bit number>"


def _echo(values: tuple) -> str:
    """``str(values)`` with each int through :func:`_decimal`, or of its first
    ``_QUOTED`` entries and its length when longer, as :func:`_quote` does."""
    shown = ", ".join(_decimal(v) if isinstance(v, int) else repr(v) for v in values[:_QUOTED])
    if len(values) > _QUOTED:
        return f"({shown}, ...) ({len(values)} entries)"
    return f"({shown},)" if len(values) == 1 else f"({shown})"


def _dims(m: int, n: int) -> tuple[int, int]:
    """``(m, n)`` as ints if both are at least 1: the only check of a group's
    parameters and of a digit string's radix seed and width (n digits count G(m,1,n))."""
    m, n = index(m), index(n)
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got ({_decimal(m)}, {_decimal(n)})")
    return m, n


class MixedRadixNumber(Value):
    """A digit vector in the mixed-radix system with seed ``m``.

    ``digits`` are stored least-significant first; ``entries`` and the
    colon-separated text form list them most-significant first, e.g.
    ``"3:13:1:5:2"``.  An inversion table is one of these.
    """

    __slots__ = ("m", "digits")

    def __init__(self, m: int, digits: tuple[int, ...]):
        digits = tuple(map(index, digits))
        m, _ = _dims(m, len(digits))
        for i, d in enumerate(digits):
            bound = m * (i + 1) - 1
            if not 0 <= d <= bound:
                raise DigitBoundError(
                    f"digit {_decimal(d)} at position {i} exceeds bound {_decimal(bound)}"
                    f" (m={_decimal(m)})"
                )
        _set_m(self, m)
        _set_digits(self, digits)

    @staticmethod
    def _unchecked(m: int, digits: tuple[int, ...]) -> "MixedRadixNumber":
        obj = _new(MixedRadixNumber)
        _set_m(obj, m)
        _set_digits(obj, digits)
        return obj

    @property
    def n(self) -> int:
        """Number of digits (the width)."""
        return len(self.digits)

    @property
    def entries(self) -> tuple[int, ...]:
        """The digits most significant first, as the text form lists them."""
        return self.digits[::-1]

    @classmethod
    def from_text(cls, text: str, m: int) -> "MixedRadixNumber":
        """Parse the colon-separated, most-significant-first text form."""
        parts = text.split(":")
        m, _ = _dims(m, len(parts))
        width = _digit_count(m * len(parts) - 1)  # of the largest bound
        digits = []
        for i, part in zip(range(len(parts) - 1, -1, -1), parts):
            if not (part.isascii() and part.isdigit()):
                raise DigitBoundError(f"digit {_quote(part)} is not a decimal number")
            if len(part.lstrip("0")) > width:
                raise DigitBoundError(
                    f"digit of {len(part)} digits at position {i} exceeds bound"
                    f" {_decimal(m * (i + 1) - 1)} (m={_decimal(m)})"
                )
            digits.append(int(part))
        return cls(m, tuple(reversed(digits)))

    def __str__(self) -> str:
        return ":".join(str(d) for d in reversed(self.digits))


_set_m, _set_digits = slot_setters(MixedRadixNumber)


def weights(m: int, count: int) -> list[int]:
    """First ``count`` positional weights ``m**i * i!``, exactly."""
    m, count = _dims(m, count)
    out = [1]
    for i in range(1, count):
        out.append(out[-1] * m * i)
    return out


_LEAF = 64  # digit ranges up to this width run the plain loop
_TREE_NODES = 1024  # the radix products kept, over all (m, lo, hi)


@lru_cache(maxsize=_TREE_NODES)
def _radix_product(m: int, lo: int, hi: int) -> int:
    """``W(lo, hi)``: the product of the radices ``m*(i+1)``, ``lo <= i < hi``."""
    if hi - lo <= _LEAF:
        return prod(range(m * (lo + 1), m * hi + 1, m))
    mid = (lo + hi) // 2
    return _radix_product(m, lo, mid) * _radix_product(m, mid, hi)


def _encode(x: int, m: int, lo: int, hi: int, out: list[int]) -> int:
    """Write the digits of ``x`` at positions ``lo .. hi-1`` into ``out``.

    ``x`` is in units of the weight of position ``lo``; returns the part of
    it above position ``hi - 1``, which is zero exactly when it fits.
    """
    if hi - lo <= _LEAF:
        if (hi - lo) % 2:
            x, out[lo] = divmod(x, m * (lo + 1))
            lo += 1
        for i in range(lo + 1, hi, 2):  # positions i-1 and i: radices r and r + m
            r = m * i
            x, low = divmod(x, r * (r + m))
            out[i - 1], out[i] = low % r, low // r
        return x
    mid = (lo + hi) // 2
    high, low = divmod(x, _radix_product(m, lo, mid))
    _encode(low, m, lo, mid, out)
    return _encode(high, m, mid, hi, out)


def _decode(m: int, digits: list[int] | tuple[int, ...], lo: int, hi: int) -> int:
    """The digits at positions ``lo .. hi-1``, in units of the weight of ``lo``."""
    # a split pays for its product only once each half is about a leaf wide
    if hi - lo <= 2 * _LEAF:
        x = 0
        if (hi - lo) % 2:
            hi -= 1
            x = digits[hi]
        for i in range(hi - 1, lo, -2):  # positions i-1 and i, as _encode takes them
            r = m * i
            x = x * (r * (r + m)) + (digits[i] * r + digits[i - 1])
        return x
    mid = (lo + hi) // 2
    return _decode(m, digits, lo, mid) + _radix_product(m, lo, mid) * _decode(m, digits, mid, hi)


def _width(x: int, m: int) -> int:
    """The smallest ``n >= 1`` with ``x < m**n * n!``: the width of ``encode(x, m)``."""
    # ln(m**n * n!) = n*ln(m) + lgamma(n+1) rises by at least ln 2 per step
    # past n = 1, so the float search for where it passes (bit_length - 2)*ln 2
    # stops a few steps short of the answer; the steps up compare exactly
    bits = x.bit_length()
    target = (bits - 2) * log(2)
    lo, hi = 1, bits + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid * log(m) + lgamma(mid + 1) < target:
            lo = mid + 1
        else:
            hi = mid
    n = max(1, lo - 1)
    order = _radix_product(m, 0, n)
    while order <= x:
        n += 1
        order *= m * n
    return n


def encode(x: int, m: int) -> MixedRadixNumber:
    """Minimal-width digits of ``x``: ``encode_width`` at the smallest width
    that holds it.  ``encode(0, m)`` is the single digit ``(0)``.
    """
    x, (m, _) = index(x), _dims(m, 1)
    return encode_width(x, m, _width(x, m) if x > 0 else 1)


def encode_width(x: int, m: int, n: int) -> MixedRadixNumber:
    """Exactly ``n`` digits of ``x``, zero-padded at the high end.

    Position ``i`` is the remainder of dividing by ``m*(i+1)`` what the
    lower positions leave.  Raises OverflowError when ``x >= m**n * n!``,
    i.e. when ``x`` does not fit in ``n`` digits.
    """
    x, (m, n) = index(x), _dims(m, n)
    if x < 0:
        raise DigitBoundError(f"cannot encode negative integer {_decimal(x)}")
    digits = [0] * n
    # every radix past the first is at least 2, so x < m**k * k! at
    # k = bit_length + 1 and the positions above k are zero
    if _encode(x, m, 0, min(n, x.bit_length() + 1), digits):
        # the bit length, not the value: a decimal past 4300 digits would raise
        raise OverflowError(
            f"an integer of {x.bit_length()} bits needs {_width(x, m)} digits, only {n} allowed"
        )
    return MixedRadixNumber._unchecked(m, tuple(digits))


def decode(d: MixedRadixNumber) -> int:
    """The integer sum of digit times positional weight."""
    return _decode(d.m, d.digits, 0, len(d.digits))
