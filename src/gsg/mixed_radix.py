"""Mixed-radix codec between natural numbers and per-position-bounded digits.

The number system is parametrized by a radix seed ``m >= 1``: position ``i``
(0-based, least significant first) has weight ``m**i * i!`` and admits digits
``0 .. m*(i+1)-1``.  With ``m = 1`` this degenerates to the factorial number
system.  Exactly the integers ``0 .. m**n * n! - 1`` are representable in
``n`` digits, which is what makes the system suitable for ranking the
``m**n * n!`` colored permutations on ``n`` letters.

All arithmetic is exact (Python ints); values hundreds of decimal digits
long round-trip bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DigitBoundError

__all__ = [
    "MixedRadixNumber",
    "weights",
    "encode",
    "encode_width",
    "decode",
]


def unchecked(cls, *field_values):
    """An instance of the frozen dataclass ``cls`` that skips ``__post_init__``.

    Only for values the library built from checked values, which pass the
    checks by construction; sequences must already be tuples.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, field_values))
    return obj


@dataclass(frozen=True)
class MixedRadixNumber:
    """A digit vector in the mixed-radix system with seed ``m``.

    Digits are stored least-significant first; the text form renders them
    most-significant first, colon-separated, e.g. ``"3:13:1:5:2"``.
    """

    m: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.m < 1:
            raise DigitBoundError(f"radix seed must be >= 1, got {self.m}")
        if not isinstance(self.digits, tuple):
            object.__setattr__(self, "digits", tuple(self.digits))
        if len(self.digits) < 1:
            raise DigitBoundError("a number has at least one digit")
        for i, d in enumerate(self.digits):
            bound = self.m * (i + 1) - 1
            if not 0 <= d <= bound:
                raise DigitBoundError(
                    f"digit {d} at position {i} exceeds bound {bound} (m={self.m})"
                )

    @property
    def n(self) -> int:
        """Number of digits (the width)."""
        return len(self.digits)

    @classmethod
    def from_text(cls, text: str, m: int) -> "MixedRadixNumber":
        """Parse the colon-separated, most-significant-first text form."""
        parts = text.split(":")
        digits = []
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise DigitBoundError(f"digit {part!r} is not a decimal number")
            digits.append(int(part))
        return cls(m, tuple(reversed(digits)))

    def __str__(self) -> str:
        return ":".join(str(d) for d in reversed(self.digits))


def weights(m: int, count: int) -> list[int]:
    """First ``count`` positional weights ``m**i * i!``, exactly."""
    if m < 1 or count < 1:
        raise ValueError("m and count must be positive")
    out = [1]
    for i in range(1, count):
        out.append(out[-1] * m * i)
    return out


def encode(x: int, m: int) -> MixedRadixNumber:
    """Minimal-width digits of ``x``, by the successive-division chain.

    Position ``i`` is the remainder of dividing the running quotient by
    ``m*(i+1)``; the chain stops at the first zero quotient.  ``encode(0, m)``
    is the single digit ``(0)``.
    """
    if x < 0:
        raise ValueError(f"cannot encode negative integer {x}")
    if m < 1:
        raise ValueError(f"radix seed must be >= 1, got {m}")
    digits = []
    while x or not digits:
        x, d = divmod(x, m * (len(digits) + 1))
        digits.append(d)
    return unchecked(MixedRadixNumber, m, tuple(digits))


def encode_width(x: int, m: int, n: int) -> MixedRadixNumber:
    """Exactly ``n`` digits of ``x``, zero-padded at the high end.

    Raises OverflowError when ``x >= m**n * n!``, i.e. when ``x`` does not
    fit in ``n`` digits.
    """
    if n < 1:
        raise ValueError(f"width must be >= 1, got {n}")
    minimal = encode(x, m)
    if minimal.n > n:
        raise OverflowError(f"{x} needs {minimal.n} digits, only {n} allowed")
    return unchecked(MixedRadixNumber, m, minimal.digits + (0,) * (n - minimal.n))


def decode(d: MixedRadixNumber) -> int:
    """The integer sum of digit times positional weight, by Horner's rule."""
    x = 0
    for i, digit in zip(range(d.n, 0, -1), reversed(d.digits)):
        x = x * (d.m * i) + digit
    return x
