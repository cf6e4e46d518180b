"""Exception types shared across the package.

The CLI maps these onto process exit codes and checks its own arguments first.
A group's bad ``m`` or ``n`` raises bare ValueError from one check,
``group_core._dims``, whose one message gives both; the codec's ``encode``,
``weights`` and ``encode_width`` keep theirs ("radix seed must be >= 1", ...).
Plain OverflowError (builtin) is reserved for integers that do not fit
a requested digit width.
"""


class GsgError(Exception):
    """Base class for all errors raised by this package."""


class DigitBoundError(GsgError, ValueError):
    """A digit violates its positional bound 0 <= d_i <= m*(i+1)-1."""


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
