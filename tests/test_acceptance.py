"""Acceptance gate: one test per shipped guarantee, each with its stated
time budget asserted and one PASS line printed (run with ``pytest -s``).
"""

import time
from math import factorial
from pathlib import Path

from gsg.group_core import (
    canonical_length,
    enumerate_group,
    gen_t,
    identity,
    longest_element,
    parse_window,
)
from gsg.mixed_radix import MixedRadixNumber, decode, encode
from gsg.statistics import (
    histogram,
    inv_closed,
    inv_oracle,
    inversion_table,
    length_L,
    poincare,
    rank,
    unrank,
)
from gsg.subexceedant import (
    digits_of_element,
    element_of_digits,
    element_of_integer,
    integer_of_element,
    psi,
    psi_inverse,
)

GOLDEN = Path(__file__).parent / "data" / "table_3_3_golden.csv"

PANGRAM = "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG"
PANGRAM_INT = int(
    "8472693281857367753266827987783270798832748577808332798669823284"
    "7269327665908932687971"
)
PANGRAM_DIGITS = (
    "56:238:8:270:218:133:236:210:204:102:63:208:157:94:171:89:19:20:50:67:"
    "121:134:75:30:37:58:97:104:58:2:75:31:42:24:43:2:17:3:16:16:0:3"
)


def _timed(budget_s, fn, warmup=True):
    """Run fn once inside the budget (best of three after a warm-up call)."""
    if warmup:
        fn()
    best = min(_once(fn) for _ in range(3))
    assert best < budget_s, f"took {best:.6f}s, budget {budget_s}s"
    return best


def _once(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _report(num, desc, elapsed=None):
    extra = f" [{elapsed * 1000:.2f} ms]" if elapsed is not None else ""
    print(f"PASS criterion {num:2d}: {desc}{extra}")


def test_c01_big_integer_conversion_roundtrip():
    def body():
        d = encode(199761, 7)
        assert str(d) == "3:13:1:5:2"
        assert decode(d) == 199761
        assert decode(MixedRadixNumber.from_text("3:13:1:5:2", 7)) == 199761

    elapsed = _timed(0.001, body)
    _report(1, "199761 <-> 3:13:1:5:2 at radix 7, exact round-trip", elapsed)


def test_c02_integer_to_element_chain():
    def body():
        d = encode(2161, 3)
        assert str(d) == "1:1:3:0:1"
        f = psi_inverse(element_of_digits(d).beta)
        assert f == (1, 1, 2, 1, 1)
        assert psi(f) == (3, 4, 2, 5, 1)
        w = element_of_integer(2161, 3, 5)
        assert w.window() == "[1]3 4 2 [1]5 [1]1"
        # inverse chain
        back = parse_window("[1]3 4 2 [1]5 [1]1", 3)
        assert str(digits_of_element(back)) == "1:1:3:0:1"
        assert integer_of_element(back) == 2161

    elapsed = _timed(0.001, body)
    _report(2, "2161 <-> digits <-> subexceedant <-> window chain, both ways", elapsed)


def test_c03_full_table_reproduction():
    golden = GOLDEN.read_text()

    def body():
        lines = []
        for r in range(1, 163):
            w = unrank(r, 3, 3)
            lines.append(f"{r},{w.window()},{inversion_table(w)}\n")
        assert "".join(lines) == golden

    elapsed = _timed(1.0, body)
    rows = golden.splitlines()
    assert rows[26] == "27,[2]3 [1]1 2,1:2:2"
    assert rows[161] == "162,[2]1 [2]2 [2]3,8:5:2"
    assert len(rows) == 162
    _report(3, "162-row rank table of G(3,1,3) byte-identical to golden CSV", elapsed)


def test_c04_big_element_statistics():
    def body():
        w = parse_window("[2]3 [4]1 [1]6 5 [1]4 [2]2", 5)
        assert str(inversion_table(w)) == "11:13:1:11:5:2"
        assert length_L(w) == 43
        assert rank(w) == 4321328
        assert unrank(4321328, 5, 6) == w

    elapsed = _timed(0.010, body)
    _report(4, "G(5,1,6) element: inversion table, length 43, rank 4321328", elapsed)


def test_c05_equidistribution():
    pairs = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)]

    def body():
        for m, n in pairs:
            expected = poincare(m, n)
            assert histogram("inv", m, n) == expected
            assert histogram("fmaj", m, n) == expected

    elapsed = _timed(30.0, body, warmup=False)
    _report(5, "inv and fmaj histograms equal the q-integer product, 7 groups", elapsed)


def test_c06_oracle_equivalence():
    import random

    def body():
        for m in (2, 3):
            for n in (1, 2, 3):
                for w in enumerate_group(m, n):
                    for i in range(1, n + 1):
                        assert inv_oracle(w, i) == inv_closed(w, i)
        rng = random.Random(20250809)
        values = list(range(1, 7))
        for _ in range(500):
            rng.shuffle(values)
            colors = tuple(rng.randrange(5) for _ in range(6))
            w = parse_window(
                " ".join(
                    f"[{c}]{v}" if c else str(v) for v, c in zip(values, colors)
                ),
                5,
            )
            for i in range(1, 7):
                assert inv_oracle(w, i) == inv_closed(w, i)

    elapsed = _timed(30.0, body, warmup=False)
    _report(6, "root-count oracle equals closed form, exhaustive + 500 random", elapsed)


def test_c07_length_identities():
    def body():
        for m in (2, 3):
            for n in (1, 2, 3):
                w0 = longest_element(m, n)
                assert length_L(w0) == n * (m - 1) + m * n * (n - 1) // 2
                assert canonical_length(w0) == n * (n + m - 2)
                for j in range(1, n + 1):
                    assert canonical_length(gen_t(m, n, j)) == 2 * j - 1

    elapsed = _timed(60.0, body, warmup=False)
    _report(7, "root length and word length of w0 and color generators", elapsed)


def test_c08_length_coincidence_and_divergence():
    for n in (1, 2, 3):
        for w in enumerate_group(2, n):
            assert length_L(w) == canonical_length(w)
    t2 = gen_t(3, 2, 2)
    assert length_L(t2) == 4
    assert canonical_length(t2) == 3
    _report(8, "L == word length on G(2,1,n); 4 != 3 witness in G(3,1,2)")


def test_c09_longest_element_digits():
    for m in range(1, 6):
        for n in range(1, 5):
            d = digits_of_element(longest_element(m, n))
            assert d.digits == tuple(m * (i + 1) - 1 for i in range(n))
            assert decode(d) == m**n * factorial(n) - 1
    _report(9, "longest element digits are (nm-1:..:m-1), decoding to order-1")


def test_c10_pangram_demo():
    concat = int("".join(str(ord(ch)) for ch in PANGRAM))
    assert concat == PANGRAM_INT

    def body():
        d = encode(PANGRAM_INT, 7)
        assert d.n == 42
        assert all(0 <= dig <= 7 * (i + 1) - 1 for i, dig in enumerate(d.digits))
        assert decode(d) == PANGRAM_INT
        assert str(d) == PANGRAM_DIGITS

    elapsed = _timed(0.010, body)
    _report(10, "86-digit pangram integer: 42 digits, bounds, exact round-trip", elapsed)


def test_c11_radix_mismatch_erratum():
    # A circulated tabulation of this radix-4 example applies the digit
    # split d = m*(f-1)+color with m = 3, printing 13:14:0:7:3:2.  The
    # radix-4 split gives 17:18:0:9:3:2, and only that string round-trips.
    sigma = parse_window("[2]2 [3]4 [1]3 1 [2]6 [1]5", 4)
    f = psi_inverse(sigma.beta)
    assert f == (1, 1, 3, 1, 5, 5)
    d = digits_of_element(sigma)
    assert str(d) == "17:18:0:9:3:2"
    wrong = tuple(3 * (fi - 1) + r for fi, r in zip(f, sigma.colors))
    assert ":".join(str(x) for x in reversed(wrong)) == "13:14:0:7:3:2"
    assert str(d) != "13:14:0:7:3:2"
    assert element_of_digits(d) == sigma
    _report(11, "radix-4 digits 17:18:0:9:3:2 (radix-3 misprint rejected)")
