"""Command line surface: conversions, ranking, statistics, tables, sweeps.

Exit codes: 0 success, 1 verification failure, 2 parse error, 3 range
error, 4 budget exceeded or out of memory.  Results go to stdout,
diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import (
    BudgetExceeded,
    DigitBoundError,
    RankOutOfRange,
    WindowParseError,
)
from .group_core import (
    DEFAULT_BUDGET, _order_within, _require_budget, canonical_length, parse_window
)
from .mixed_radix import _QUOTED, MixedRadixNumber, _decimal, _quote, decode, encode
from .statistics import fmaj, fmaj_exponents, inversion_table, length_L, poincare, rank, unrank
from .subexceedant import digits_of_element, element_of_integer, integer_of_element

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE = 2
EXIT_RANGE = 3
EXIT_BUDGET = 4


def _integer(text: str) -> int:
    """ASCII digits with an optional leading minus (``int`` also takes other
    scripts' digits, ``+``, underscores and surrounding whitespace)."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {_quote(text)}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """argparse's messages repeat the caller's text, bare or as its repr: an
    argument, the text after its first ``=`` or a short option's value.  Each
    such piece longer than ``_QUOTED`` characters shows as its length,
    ``<5000 characters>``, and the rest of the message is kept.  Unrecognized
    arguments show as the first ``_EXTRAS`` and their count, as ``_echo``
    shows a long tuple.  Subparsers are built from this class too."""

    def parse_known_args(self, args=None, namespace=None):
        self._args = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        args, extras = self.parse_known_args(args, namespace)
        if extras:  # argparse's own check, with the list cut short
            more = f" ... ({len(extras)} arguments)" if len(extras) > _EXTRAS else ""
            self.error(f"unrecognized arguments: {' '.join(extras[:_EXTRAS])}{more}")
        return args

    def error(self, message):
        pieces = (p for a in self._args for p in (a, a.partition("=")[2], a[2:]))
        # _quote's form would leave no room in 300 bytes of stderr for the
        # usage and the list of commands; the longest piece goes first, as
        # the others may lie inside it
        for piece in sorted(pieces, key=len, reverse=True):
            if len(piece) > _QUOTED:
                short = f"<{len(piece)} characters>"
                message = message.replace(repr(piece), short).replace(piece, short)
        super().error(message)


# three entries of up to _QUOTED characters, and their count, fit in 300 bytes
# of stderr with the usage
_EXTRAS = 3


def _build_parser() -> argparse.ArgumentParser:
    # each shared option is declared once and reaches a command through parents=
    m, n, budget = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    m.add_argument("--m", type=_integer, required=True)
    n.add_argument("--n", type=_integer, required=True)
    budget.add_argument("--budget", type=_integer, default=DEFAULT_BUDGET)

    parser = _Parser(
        prog="gsg",
        description="Integer representations and statistics of m-colored permutations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *parents):
        p = sub.add_parser(name, help=help, parents=parents)
        p.set_defaults(run=run)
        return p

    p = command("convert", _cmd_convert, "integer <-> mixed-radix digit string", m)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--to-digits", type=_integer, metavar="X")
    group.add_argument("--to-int", metavar="DIGITS")

    p = command("element", _cmd_element, "integer <-> group element window")
    esub = p.add_subparsers(dest="action", required=True)
    enc = esub.add_parser("encode", help="integer to window", parents=[m, n, budget])
    enc.add_argument("x", type=_integer)
    esub.add_parser("decode", help="window to integer", parents=[m]).add_argument("window")

    command("rank", _cmd_rank, "1-based rank of a window", m).add_argument("window")
    p = command("unrank", _cmd_unrank, "window at a 1-based rank", m, n, budget)
    p.add_argument("rank", type=_integer)

    p = command("stats", _cmd_stats, "all statistics of a window, as JSON", m)
    p.add_argument("--bfs", action="store_true", help="also compute word length")
    p.add_argument("window")

    p = command("table", _cmd_table, "the whole group in rank order", m, n, budget)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    command(
        "poincare", _cmd_poincare, "coefficients of the length generating function", m, n, budget
    )
    command("verify", _cmd_verify, "run the whole-group invariant sweep", m, n, budget)
    p = command("text-encode", _cmd_text_encode, "text to integer to digit string", m)
    p.add_argument("text")
    return parser


def _cmd_convert(args) -> None:
    if args.to_digits is not None:
        print(encode(args.to_digits, args.m))
    else:
        print(decode(MixedRadixNumber.from_text(args.to_int, args.m)))


def _cmd_element(args) -> None:
    if args.action == "encode":
        _require_budget(args.n, "digits", args.m, args.n, args.budget)
        print(element_of_integer(args.x, args.m, args.n).window())
    else:
        print(integer_of_element(parse_window(args.window, args.m)))


def _cmd_rank(args) -> None:
    print(rank(parse_window(args.window, args.m)))


def _cmd_unrank(args) -> None:
    _require_budget(args.n * (args.n - 1) // 2, "list moves", args.m, args.n, args.budget)
    print(unrank(args.rank, args.m, args.n).window())


def _cmd_stats(args) -> None:
    import json  # only `gsg stats` pays for it

    w = parse_window(args.window, args.m)
    out = {
        "inv_table": str(inversion_table(w)),
        "L": length_L(w),
        "fmaj": fmaj(w),
        "fmaj_exponents": fmaj_exponents(w),
        "rank": rank(w),
        "subexceedant_digits": str(digits_of_element(w)),
        "integer_rep": integer_of_element(w),
    }
    if args.bfs:
        out["canonical_length"] = canonical_length(w)
    print(json.dumps(out))


def _cmd_table(args) -> None:
    m, n, budget = args.m, args.n, args.budget
    order = _require_budget(_order_within(m, n, budget), "elements", m, n, budget)
    elements = (unrank(r, m, n) for r in range(1, order + 1))
    rows = ((r, w.window(), str(inversion_table(w))) for r, w in enumerate(elements, 1))
    if args.format == "csv":
        for r, window, inv in rows:
            print(f"{r},{window},{inv}")
    else:
        # one row at a time, byte-identical to json.dumps of the whole list (nothing to escape)
        sep = "["
        for r, window, inv in rows:
            print(f'{sep}{{"rank": {r}, "window": "{window}", "inv_table": "{inv}"}}', end="")
            sep = ", "
        print("]")


def _cmd_poincare(args) -> None:
    print(poincare(args.m, args.n, args.budget))


def _cmd_verify(args) -> int:
    from .verify import run_property_checks  # only `gsg verify` loads the sweep module

    results = run_property_checks(args.m, args.n, args.budget)
    for name, ok in results:
        print(f"{'PASS' if ok else 'FAIL'} {name}")
    return EXIT_OK if all(ok for _, ok in results) else EXIT_VERIFY_FAILED


def _cmd_text_encode(args) -> None:
    if not args.text:
        raise WindowParseError("empty input")
    for ch in args.text:
        if not 32 <= ord(ch) <= 126:
            raise WindowParseError(f"character {ch!r} is not printable ASCII")
    x = int("".join(str(ord(ch)) for ch in args.text))
    digits = encode(x, args.m)
    print(x)
    print(digits)
    print(digits.n)


def main(argv: list[str] | None = None) -> int:
    # integers, digit strings and text codes may run past 4300 decimal digits:
    # the int<->str limit is lifted for the command and then put back
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:  # parse_args leaves through SystemExit, which only the finally sees
        args = _build_parser().parse_args(argv)
        for field in ("m", "n", "budget"):
            value = getattr(args, field, None)
            if value is not None and value < 1:
                print(f"error: --{field} must be >= 1, got {_decimal(value)}", file=sys.stderr)
                return EXIT_PARSE
        return args.run(args) or EXIT_OK
    except (WindowParseError, DigitBoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (OverflowError, RankOutOfRange) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RANGE
    except (BudgetExceeded, MemoryError) as exc:  # work within --budget can outgrow memory
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
