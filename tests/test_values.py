"""The value-class contract shared by the three immutable ``__slots__`` classes.

Equality is by class and fields, hashing agrees with equality, fields
cannot be assigned or deleted, the constructors keep their checks, take
integers only, and the library's unchecked build path makes objects equal
to checked ones.  The messages of ``psi``'s checks on the subexceedant
values it is given, and of ``psi_inverse``'s on its window, are pinned here
too.
"""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gsg.errors import DigitBoundError
from gsg.group_core import (
    GroupElement, enumerate_group, gen_s, gen_t, group_order, identity, parse_window, power
)
from gsg.mixed_radix import MixedRadixNumber, encode, encode_width, weights
from gsg.statistics import QPolynomial, inv_closed, unrank
from gsg.subexceedant import psi, psi_inverse


@st.composite
def number_fields(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    return m, tuple(draw(st.integers(0, m * (i + 1) - 1)) for i in range(n))


@st.composite
def element_fields(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, 6))
    beta = tuple(draw(st.permutations(range(1, n + 1))))
    return m, n, beta, tuple(draw(st.integers(0, m - 1)) for _ in range(n))


@st.composite
def polynomial_fields(draw):
    coeffs = draw(st.lists(st.integers(0, 9), max_size=6))
    return (tuple(coeffs) + (draw(st.integers(1, 9)),),)  # no trailing zero


FIELDS = {
    MixedRadixNumber: number_fields(),
    GroupElement: element_fields(),
    QPolynomial: polynomial_fields(),
}
CLASSES = list(FIELDS)
UNCHECKED = [MixedRadixNumber, GroupElement, QPolynomial]


def fields_of(obj):
    return tuple(getattr(obj, name) for name in type(obj).__slots__)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
def test_equal_iff_same_class_and_fields_property(cls, data):
    x = data.draw(FIELDS[cls])
    y = data.draw(st.one_of(st.just(x), FIELDS[cls]))
    a, b = cls(*x), cls(*y)
    assert fields_of(a) == x
    assert (a == b) is (x == y)
    assert (a != b) is (x != y)
    assert hash(a) == hash(x)  # the hash of the fields, in __slots__ order
    if x == y:
        assert hash(a) == hash(b)
    assert a != x and x != a  # never a plain tuple of its fields
    for other in CLASSES:
        if other is not cls:
            assert a != other(*data.draw(FIELDS[other]))

    class Lookalike(cls):
        pass

    assert a != Lookalike(*x) and Lookalike(*x) != a


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
def test_fields_cannot_be_assigned_or_deleted_property(cls, data):
    a = cls(*data.draw(FIELDS[cls]))
    before = fields_of(a)
    for name in cls.__slots__ + ("extra",):
        with pytest.raises(AttributeError):
            setattr(a, name, 0)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert fields_of(a) == before


@pytest.mark.parametrize("cls", UNCHECKED, ids=lambda c: c.__name__)
@given(data=st.data())
def test_unchecked_build_equals_checked_build_property(cls, data):
    x = data.draw(FIELDS[cls])
    fast, checked = cls._unchecked(*x), cls(*x)
    assert type(fast) is cls
    assert fast == checked and hash(fast) == hash(checked)
    assert repr(fast) == repr(checked)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
@given(data=st.data())
def test_copies_and_pickles_are_equal_property(cls, data):
    a = cls(*data.draw(FIELDS[cls]))
    for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(b) is cls and b == a


def test_repr_names_the_fields():
    w = GroupElement(2, 2, (2, 1), (0, 1))
    assert repr(w) == "GroupElement(m=2, n=2, beta=(2, 1), colors=(0, 1))"
    assert str(w) == w.window()
    assert repr(QPolynomial((1, 2, 0))) == "QPolynomial(coeffs=(1, 2))"


NOT_AN_INT = "'float' object cannot be interpreted as an integer"


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: MixedRadixNumber(0, (0,)), ValueError, "need m >= 1 and n >= 1, got (0, 1)"),
        (lambda: MixedRadixNumber(3, ()), ValueError, "need m >= 1 and n >= 1, got (3, 0)"),
        (
            lambda: MixedRadixNumber(7, (2, 14)),
            DigitBoundError,
            "digit 14 at position 1 exceeds bound 13 (m=7)",
        ),
        (lambda: GroupElement(0, 2, (1, 2), (0, 0)), ValueError, "need m >= 1 and n >= 1, got (0, 2)"),
        (lambda: GroupElement(3, 3, (1, 1, 2), (0, 0, 0)), ValueError, "(1, 1, 2) is not a permutation of 1..3"),
        # the length is compared before a list of n values is built
        (
            lambda: GroupElement(2, 2**64, (1,), (0,)),
            ValueError,
            "(1,) is not a permutation of 1..18446744073709551616",
        ),
        (lambda: GroupElement(3, 3, (1, 2, 3), (0, 0)), ValueError, "one color per position required"),
        (lambda: GroupElement(3, 3, (1, 2, 3), (0, 3, 0)), ValueError, "color 3 outside 0..2"),
        # psi checks the subexceedant values it is given
        (lambda: psi(()), ValueError, "need m >= 1 and n >= 1, got (1, 0)"),
        (lambda: psi((1, 3)), ValueError, "f(2) = 3 outside 1..2"),
        (lambda: psi((float("inf"),)), ValueError, "f(1) = inf outside 1..1"),
        # integers go through operator.index: a float is refused, not read as an index
        (lambda: psi_inverse((1.0, 2.0)), TypeError, NOT_AN_INT),
        (lambda: MixedRadixNumber.from_text("1:0", 2.0), TypeError, NOT_AN_INT),
        (lambda: QPolynomial((1.5,)), TypeError, NOT_AN_INT),
        (lambda: QPolynomial((1, -2)), ValueError, "coefficient -2 at degree 1 is negative"),
        # a rank of 5/2 would build a color of 3/2
        (
            lambda: unrank(Fraction(5, 2), 2, 3),
            TypeError,
            "'Fraction' object cannot be interpreted as an integer",
        ),
        (lambda: gen_s(2, 3, 1.0), TypeError, NOT_AN_INT),
        (lambda: gen_t(2, 3, 1.0), TypeError, NOT_AN_INT),
        (lambda: inv_closed(identity(2, 3), 1.0), TypeError, NOT_AN_INT),
        # gen_t picks its color without dividing by m, so m = 0 reaches the check
        (lambda: gen_t(0, 3, 1), ValueError, "need m >= 1 and n >= 1, got (0, 3)"),
        # psi_inverse builds through the checked constructor, at m = 1
        (lambda: psi_inverse(()), ValueError, "need m >= 1 and n >= 1, got (1, 0)"),
    ],
)
def test_constructor_checks_keep_their_errors(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "build",
    [
        lambda: GroupElement(3, 2, (1, 2), (0.5, 0)),
        lambda: MixedRadixNumber(2, (0.5, 1)),
    ],
    ids=["GroupElement", "MixedRadixNumber"],
)
def test_constructors_reject_non_integers(build):
    # a float color would rank as 1.5, a float digit would decode to 2.5
    with pytest.raises(TypeError):
        build()


def test_constructors_normalise_as_before():
    # digit lists become tuples; trailing zero coefficients are dropped
    assert MixedRadixNumber(3, [1, 2]).digits == (1, 2)
    assert QPolynomial([1, 0, 2, 0, 0]).coeffs == (1, 0, 2)
    assert QPolynomial(()) == QPolynomial((0, 0))
    # bools become ints, so no window prints True
    w = GroupElement(2, 2, (True, 2), (0, False))
    assert w == identity(2, 2) and w.window() == "1 2"
    assert type(w.beta[0]) is int and type(w.colors[1]) is int
    assert MixedRadixNumber(True, (False, True)).digits == (0, 1)


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda k: encode(k, 2), lambda d: d.digits[0]),
        (lambda k: encode(5, k), lambda d: d.m),
        (lambda k: encode_width(k, 2, 3), lambda d: d.digits[0]),
        (lambda k: encode_width(5, k, 3), lambda d: d.m),
        (lambda k: encode_width(1, 2, k), lambda d: d.n),
        (lambda k: weights(k, 3), lambda ws: ws[2]),
        (lambda k: weights(2, k), len),
        (lambda k: parse_window("1 2", k), lambda w: w.m),
        (lambda k: group_order(k, 3), lambda order: order),
        (lambda k: group_order(2, k), lambda order: order),
        (lambda k: power(gen_t(3, 2, 1), k), lambda w: w.colors[0]),
        (lambda k: unrank(1, k, 3), lambda w: w.m),
        (lambda k: unrank(1, 2, k), lambda w: w.n),
        (lambda k: list(enumerate_group(k, 2)), lambda ws: ws[0].m),
        (lambda k: list(enumerate_group(2, k)), lambda ws: ws[0].n),
    ],
    ids=["encode x", "encode m", "encode_width x", "encode_width m", "encode_width n",
         "weights m", "weights count", "parse_window m", "group_order m", "group_order n",
         "power k", "unrank m", "unrank n", "enumerate_group m", "enumerate_group n"],
)
def test_codec_parser_and_order_take_integers_only(call, field):
    # as the checked constructors: a float raises, a bool becomes an int field
    with pytest.raises(TypeError):
        call(1.0)
    value = field(call(True))
    assert type(value) is int and value == field(call(1))


@pytest.mark.parametrize(
    "from_lists, from_tuples",
    [
        (lambda: GroupElement(2, 2, [1, 2], [0, 0]), lambda: identity(2, 2)),
        (lambda: MixedRadixNumber(3, [1, 2]), lambda: MixedRadixNumber(3, (1, 2))),
    ],
    ids=["GroupElement", "MixedRadixNumber"],
)
def test_list_fields_are_stored_as_tuples(from_lists, from_tuples):
    a, b = from_lists(), from_tuples()
    assert a == b and hash(a) == hash(b)
    assert fields_of(a) == fields_of(b)
