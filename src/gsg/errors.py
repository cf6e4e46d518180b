"""Exception types shared across the package.

The CLI maps these onto process exit codes and checks its own arguments first.
A group's bad ``m`` or ``n``, and a digit string's bad radix seed or width,
raise bare ValueError from one check, ``mixed_radix._dims``, whose one
message gives both.
Plain OverflowError (builtin) is reserved for integers that do not fit
a requested digit width.
"""


class GsgError(Exception):
    """Base class for all errors raised by this package."""


class DigitBoundError(GsgError, ValueError):
    """A digit outside its bound 0 <= d_i <= m*(i+1)-1, or a negative integer to encode."""


class WindowParseError(GsgError, ValueError):
    """A window string entry is malformed; the message names the entry."""


class DimensionMismatch(GsgError, ValueError):
    """Two elements do not share the same (m, n)."""


class IndexOutOfRange(GsgError, IndexError):
    """A generator or inversion index is outside its valid range."""


class RankOutOfRange(GsgError, ValueError):
    """A rank is outside [1, m^n * n!]."""


class BudgetExceeded(GsgError, RuntimeError):
    """A call's counted work passes its budget: "N <unit> for G(m,1,n) exceed budget B",
    in elements, root tests, coefficient updates, list moves or digits."""
