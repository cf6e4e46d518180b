"""Codec tests: division-chain encoding, weighted decoding, digit bounds."""

import random
import sys
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsg.errors import DigitBoundError, IndexOutOfRange
from gsg.group_core import GroupElement, gen_s, group_order
from gsg.mixed_radix import (
    _LEAF,
    _TREE_NODES,
    MixedRadixNumber,
    _decode,
    _encode,
    _radix_product,
    decode,
    encode,
    encode_width,
    weights,
)
from gsg.statistics import delta_block
from gsg.subexceedant import psi, psi_inverse


def division_oracle(x, m):
    """Minimal-width digits of ``x`` by the successive-division chain."""
    digits = []
    while x or not digits:
        x, d = divmod(x, m * (len(digits) + 1))
        digits.append(d)
    return tuple(digits)


def horner_oracle(m, digits):
    """The integer of a digit tuple (least significant first) by Horner's rule."""
    x = 0
    for i, digit in zip(range(len(digits), 0, -1), reversed(digits)):
        x = x * (m * i) + digit
    return x


def test_weights_against_direct_product():
    for m in (1, 2, 3, 7):
        assert weights(m, 8) == [m**i * factorial(i) for i in range(8)]


@pytest.mark.parametrize(
    "m,count,expected",
    [
        (7, 5, [1, 7, 98, 2058, 57624]),
        (1, 4, [1, 1, 2, 6]),
        (3, 5, [1, 3, 18, 162, 1944]),
    ],
)
def test_weights_values(m, count, expected):
    assert weights(m, count) == expected


@pytest.mark.parametrize(
    "x,m,text",
    [
        (199761, 7, "3:13:1:5:2"),
        (0, 5, "0"),
        (100, 2, "2:0:2:0"),
    ],
)
def test_encode_examples(x, m, text):
    assert str(encode(x, m)) == text
    assert decode(encode(x, m)) == x


def test_encode_minimal_width_has_nonzero_lead():
    for m in (1, 2, 5):
        for x in range(1, 2000):
            assert encode(x, m).digits[-1] != 0


@pytest.mark.parametrize(
    "x,m,n,text",
    [
        (2161, 3, 5, "1:1:3:0:1"),
        (0, 3, 3, "0:0:0"),
    ],
)
def test_encode_width_examples(x, m, n, text):
    d = encode_width(x, m, n)
    assert str(d) == text
    assert d.n == n
    assert decode(d) == x


def test_encode_width_overflow():
    with pytest.raises(OverflowError):
        encode_width(162, 3, 3)
    # largest representable value just fits
    assert decode(encode_width(161, 3, 3)) == 161


@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (7, 5), (5, 2)])
def test_maximal_digits_decode_to_order_minus_one(m, n):
    d = MixedRadixNumber(m, tuple(m * (i + 1) - 1 for i in range(n)))
    assert decode(d) == m**n * factorial(n) - 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_roundtrip_exhaustive(m, n):
    limit = m**n * factorial(n)
    seen = set()
    for x in range(limit):
        d = encode_width(x, m, n)
        assert decode(d) == x
        assert d.digits not in seen
        seen.add(d.digits)
    # injectivity onto distinct digit strings
    assert len(seen) == limit


def test_minimal_encode_reproduces_after_stripping_zero_pad():
    for m in (2, 3):
        for x in range(1, 500):
            wide = encode_width(x, m, 6)
            digits = wide.digits
            while len(digits) > 1 and digits[-1] == 0:
                digits = digits[:-1]
            assert encode(x, m).digits == digits


def test_leading_digit_sandwich():
    # leading digit times its weight brackets the value
    for m in (1, 2, 3, 4):
        for x in range(1, 3000):
            d = encode(x, m)
            lead = d.digits[-1]
            w = weights(m, d.n)[-1]
            assert lead * w <= x < (lead + 1) * w


@pytest.mark.parametrize(
    "m,n",
    [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (1, _LEAF), (2, _LEAF + 1), (5, 500), (2, 2000)],
)
def test_valid_string_count_is_group_order(m, n):
    # up to _LEAF radices group_order's product is one leaf; past it, a tree
    count = 1
    for i in range(n):
        count *= m * (i + 1)
    assert count == m**n * factorial(n) == group_order(m, n)


def test_digit_bound_validation():
    with pytest.raises(DigitBoundError, match="14"):
        MixedRadixNumber(7, (2, 14))
    with pytest.raises(DigitBoundError):
        MixedRadixNumber(7, (7,))
    with pytest.raises(ValueError, match=r"need m >= 1 and n >= 1, got \(7, 0\)"):
        MixedRadixNumber(7, ())
    MixedRadixNumber(7, (6, 13))  # maximal digits are fine


def test_text_parsing():
    d = MixedRadixNumber.from_text("3:13:1:5:2", 7)
    assert d.digits == (2, 5, 1, 13, 3)
    assert str(d) == "3:13:1:5:2"
    with pytest.raises(DigitBoundError, match="'x'"):
        MixedRadixNumber.from_text("3:x:1", 7)
    with pytest.raises(DigitBoundError):
        MixedRadixNumber.from_text("-1:2", 7)


@pytest.mark.parametrize(
    "limit", sorted({0, getattr(sys.int_info, "default_max_str_digits", 0)})
)
def test_text_parsing_names_an_over_long_digit_by_digit_count(limit):
    # int() of 5000 digits raises ValueError at CPython's default limit
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(limit)
    try:
        with pytest.raises(DigitBoundError) as exc:
            MixedRadixNumber.from_text("1" * 5000 + ":0", 2)
        assert str(exc.value) == "digit of 5000 digits at position 1 exceeds bound 3 (m=2)"
    finally:
        if set_limit:
            set_limit(old)


@given(x=st.integers(min_value=0, max_value=10**60), m=st.integers(1, 9))
def test_roundtrip_property(x, m):
    assert decode(encode(x, m)) == x


@given(x=st.integers(min_value=0, max_value=10**300))
def test_roundtrip_huge(x):
    assert decode(encode(x, 7)) == x


# widths on both sides of the leaf of the divide-and-conquer codec, and up to
# many leaves; the largest orders run to about 40,000 bits
WIDTHS = st.integers(1, 3000) | st.sampled_from(
    (_LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF, 2 * _LEAF + 1)
)


def below(order):
    """Integers in ``0 .. order-1``: hypothesis's own picks, which favour
    small values, or uniform over the range, which fill every digit."""
    uniform = st.randoms(use_true_random=False).map(lambda rnd: rnd.randrange(order))
    return st.integers(0, order - 1) | uniform


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), WIDTHS, st.data())
def test_encode_width_matches_division_oracle_property(m, n, data):
    x = data.draw(below(m**n * factorial(n)))
    minimal = division_oracle(x, m)
    assert encode(x, m).digits == minimal
    assert encode_width(x, m, n).digits == minimal + (0,) * (n - len(minimal))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), WIDTHS, st.data())
def test_decode_matches_horner_oracle_property(m, n, data):
    # digits outside ``bottom .. top-1`` are zero, so halves that decode to 0 occur
    bottom, top = sorted(data.draw(st.tuples(st.integers(0, n), st.integers(0, n))))
    rnd = data.draw(st.randoms(use_true_random=False))
    digits = tuple(
        rnd.randrange(m * (i + 1)) if bottom <= i < top else 0 for i in range(n)
    )
    assert decode(MixedRadixNumber(m, digits)) == horner_oracle(m, digits)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), WIDTHS)
def test_codec_boundaries_property(m, n):
    order = m**n * factorial(n)
    assert encode_width(0, m, n).digits == (0,) * n
    top = encode_width(order - 1, m, n)
    assert top.digits == tuple(m * (i + 1) - 1 for i in range(n))
    assert decode(top) == order - 1
    assert encode(order - 1, m).digits == top.digits
    with pytest.raises(OverflowError):
        encode_width(order, m, n)
    assert encode(order, m).digits == division_oracle(order, m)


@st.composite
def codec_cases(draw):
    """An ``(m, width, x)`` triple with ``x`` below the order; the fixed widths
    share halves of the tree with one another, and small ``x`` at a large
    width leaves the high digits zero."""
    m = draw(st.integers(1, 6))
    n = draw(WIDTHS | st.sampled_from((65, 100, 130, 200, 260, 500)))
    order = m**n * factorial(n)
    return m, n, draw(below(order) | st.integers(0, min(order - 1, 2**64)))


@settings(max_examples=30, deadline=None)
@given(st.lists(codec_cases(), min_size=2, max_size=8))
def test_codec_sequence_matches_oracles_property(cases):
    # the products of the radix tree outlive each call, so a product kept
    # under the wrong (m, lo, hi) shows as wrong digits later in the sequence
    for m, n, x in cases:
        minimal = division_oracle(x, m)
        d = encode_width(x, m, n)
        assert d.digits == minimal + (0,) * (n - len(minimal))
        assert decode(d) == horner_oracle(m, d.digits) == x


@pytest.mark.parametrize("m", range(1, 8))
def test_digit_ranges_of_every_length_from_odd_and_even_offsets(m):
    # the leaves take two positions per step and one alone when the range is
    # odd: every decode leaf (up to 2*_LEAF wide) and encode leaf (up to _LEAF),
    # odd and even, starting at odd and even positions
    rnd = random.Random(m)
    for lo in (0, 1, 2, 7):
        for hi in range(lo, lo + 2 * _LEAF + 2):
            digits = [rnd.randrange(m * (i + 1)) for i in range(hi)]
            x = 0
            for i in range(hi, lo, -1):  # the plain digit loop, in units of the weight of lo
                x = x * (m * i) + digits[i - 1]
            assert _decode(m, digits, lo, hi) == x
            out = [None] * hi
            assert _encode(x + 3 * _radix_product(m, lo, hi), m, lo, hi, out) == 3
            assert out[lo:] == digits[lo:]


def test_radix_tree_cache_stays_bounded():
    _radix_product.cache_clear()
    for m in (1, 2, 3, 4):
        for n in range(_LEAF + 1, 400):
            order = m**n * factorial(n)
            assert decode(encode_width(order - 1, m, n)) == order - 1
    info = _radix_product.cache_info()
    assert info.maxsize == _TREE_NODES
    assert info.misses > _TREE_NODES  # the bound was reached
    assert info.currsize <= info.maxsize


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: encode(5, 0), "need m >= 1 and n >= 1, got (0, 1)"),
        (lambda: encode_width(5, 2, 0), "need m >= 1 and n >= 1, got (2, 0)"),
        (lambda: encode_width(5, 0, 3), "need m >= 1 and n >= 1, got (0, 3)"),
        (lambda: weights(0, 3), "need m >= 1 and n >= 1, got (0, 3)"),
        (lambda: weights(2, 0), "need m >= 1 and n >= 1, got (2, 0)"),
        (lambda: MixedRadixNumber.from_text("1:2", 0), "need m >= 1 and n >= 1, got (0, 2)"),
    ],
)
def test_bad_codec_arguments_raise_plain_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert type(exc.value) is ValueError
    assert str(exc.value) == message


@pytest.mark.parametrize("call", [lambda: encode(-1, 2), lambda: encode_width(-1, 2, 3)])
def test_a_negative_integer_to_encode_raises_digit_bound_error(call):
    with pytest.raises(DigitBoundError) as exc:
        call()
    assert str(exc.value) == "cannot encode negative integer -1"


def test_encode_refuses_a_negative_integer_before_sizing_it():
    # sizing |x| would build radix products as long as x before the refusal
    _radix_product.cache_clear()
    with pytest.raises(DigitBoundError):
        encode(-(10**5000), 2)
    assert _radix_product.cache_info().misses == 0


BIG = 10**5000  # past CPython's 4300-digit int-to-str limit
BIG_TEXT = f"<{BIG.bit_length()}-bit number>"


@pytest.mark.parametrize(
    "limit", sorted({0, getattr(sys.int_info, "default_max_str_digits", 0)})
)
@pytest.mark.parametrize(
    "call,error,message",
    [
        (
            lambda: GroupElement(2, 2, (1, BIG), (0, 0)),
            ValueError,
            f"(1, {BIG_TEXT}) is not a permutation of 1..2",
        ),
        (
            lambda: GroupElement(2, 3000, tuple(range(2, 3002)), (0,) * 3000),
            ValueError,
            f"({', '.join(map(str, range(2, 34)))}, ...) (3000 entries)"
            " is not a permutation of 1..3000",
        ),
        (
            lambda: MixedRadixNumber(2, (BIG,)),
            DigitBoundError,
            f"digit {BIG_TEXT} at position 0 exceeds bound 1 (m=2)",
        ),
        (
            lambda: encode_width(-BIG, 2, 3),
            DigitBoundError,
            f"cannot encode negative integer {BIG_TEXT}",
        ),
        (lambda: gen_s(2, 3, BIG), IndexOutOfRange, f"transposition index {BIG_TEXT} outside 1..2"),
        (lambda: delta_block(2, 3, BIG), IndexOutOfRange, f"block index {BIG_TEXT} outside 1..3"),
        (lambda: psi((1, BIG)), ValueError, f"f(2) = {BIG_TEXT} outside 1..2"),
        (
            lambda: psi_inverse((1, BIG)),
            ValueError,
            f"(1, {BIG_TEXT}) is not a permutation of 1..2",
        ),
    ],
    ids=[
        "GroupElement",
        "GroupElement 3000 entries",
        "MixedRadixNumber",
        "encode_width",
        "gen_s",
        "delta_block",
        "psi",
        "psi_inverse",
    ],
)
def test_messages_show_a_huge_number_by_its_bit_length(call, error, message, limit):
    # at the default limit str() of BIG raises; with none, it would print 5000 digits
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(limit)
    try:
        with pytest.raises(error) as exc:
            call()
    finally:
        if set_limit:
            set_limit(old)
    assert type(exc.value) is error
    assert str(exc.value) == message
    assert len(message) < 200
