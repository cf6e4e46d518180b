"""Bijection-chain tests: digits <-> (subexceedant, colors) <-> element <-> integer."""

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gsg.group_core import GroupElement, enumerate_group, identity, longest_element, parse_window
from gsg.mixed_radix import _LEAF, MixedRadixNumber, decode
from gsg.subexceedant import (
    digits_of_element,
    element_of_digits,
    element_of_integer,
    integer_of_element,
    psi,
    psi_inverse,
)


def all_subexceedant(n):
    return itertools.product(*(range(1, i + 1) for i in range(1, n + 1)))


def psi_naive(f):
    """Oracle: literally chain the transpositions, ``(1 f(1))`` applied first."""
    def transpose(a, b):
        return lambda x: b if x == a else a if x == b else x

    maps = [transpose(i, fi) for i, fi in enumerate(f, start=1)]
    out = []
    for x in range(1, len(f) + 1):
        for t in maps:  # index 0 is the rightmost factor
            x = t(x)
        out.append(x)
    return tuple(out)


def test_psi_examples():
    assert psi((1, 1, 2, 1, 1)) == (3, 4, 2, 5, 1)
    assert psi((1, 2, 3, 4, 5)) == (1, 2, 3, 4, 5)
    assert psi((1, 1)) == (2, 1)


def test_psi_against_naive_composition():
    for n in range(1, 6):
        for f in all_subexceedant(n):
            assert psi(f) == psi_naive(f)


def test_psi_bijection_exhaustive():
    for n in range(1, 7):
        images = set()
        count = 0
        for f in all_subexceedant(n):
            beta = psi(f)
            assert psi_inverse(beta) == f
            images.add(beta)
            count += 1
        assert count == factorial(n)
        assert len(images) == count


def test_psi_inverse_examples():
    assert psi_inverse((2, 4, 3, 1, 6, 5)) == (1, 1, 3, 1, 5, 5)
    assert psi((1, 1, 3, 1, 5, 5)) == (2, 4, 3, 1, 6, 5)
    assert psi_inverse((1, 2, 3, 4)) == (1, 2, 3, 4)
    assert psi_inverse((3, 4, 2, 5, 1)) == (1, 1, 2, 1, 1)


def test_subexceedant_validation():
    with pytest.raises(ValueError):
        psi((2, 1))
    with pytest.raises(ValueError):
        psi((1, 3))
    with pytest.raises(ValueError):
        psi(())
    with pytest.raises(ValueError):
        psi_inverse((1, 1))
    with pytest.raises(ValueError):
        psi_inverse((2, 3))


def test_psi_takes_any_sequence_of_ints():
    assert psi([1, 1, 2, 1, 1]) == (3, 4, 2, 5, 1)
    assert psi(iter([1, 1, 2, 1, 1])) == (3, 4, 2, 5, 1)  # read once
    beta = psi((True, 1))  # a bool acts as an int; the window holds ints only
    assert beta == (2, 1) and all(type(v) is int for v in beta)
    with pytest.raises(TypeError):
        psi((1, 1.0))
    with pytest.raises(TypeError):
        psi((1, Fraction(3, 2)))


@given(st.lists(st.integers(0, 8), min_size=1, max_size=7).map(tuple))
def test_psi_checks_every_value_property(f):
    bad = [(i, fi) for i, fi in enumerate(f, start=1) if not 1 <= fi <= i]
    if bad:
        i, fi = bad[0]
        with pytest.raises(ValueError, match=rf"^f\({i}\) = {fi} outside 1\.\.{i}$"):
            psi(f)
    else:
        assert psi_inverse(psi(f)) == f


def test_element_of_digits_example():
    d = MixedRadixNumber.from_text("1:1:3:0:1", 3)
    assert element_of_digits(d).window() == "[1]3 4 2 [1]5 [1]1"


def test_zero_digits_give_the_full_rotation():
    # all-zero digits force f = 1;1;..;1, whose transposition product is the
    # n-cycle sending k to k+1; the identity instead sits at f = 1;2;..;n
    d = MixedRadixNumber(3, (0, 0, 0))
    assert element_of_digits(d).window() == "2 3 1"
    assert element_of_digits(MixedRadixNumber(3, (0,))).window() == "1"
    id_digits = digits_of_element(identity(3, 3))
    assert id_digits.digits == (0, 3, 6)


def test_maximal_digits_give_longest_element():
    for m, n in [(2, 2), (3, 3), (4, 2), (5, 4)]:
        d = MixedRadixNumber(m, tuple(m * (i + 1) - 1 for i in range(n)))
        assert element_of_digits(d) == longest_element(m, n)


def test_digits_of_element_examples():
    w = parse_window("[1]3 4 2 [1]5 [1]1", 3)
    assert str(digits_of_element(w)) == "1:1:3:0:1"
    # the formula applied to this window gives 17:18:0:9:3:2 (and the
    # from-digits direction agrees); see the erratum note in the README
    sigma = parse_window("[2]2 [3]4 [1]3 1 [2]6 [1]5", 4)
    d = digits_of_element(sigma)
    assert str(d) == "17:18:0:9:3:2"
    assert str(d) != "13:14:0:7:3:2"
    assert element_of_digits(d) == sigma


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (5, 4), (4, 4)])
def test_longest_element_digits_are_the_exponents(m, n):
    d = digits_of_element(longest_element(m, n))
    assert d.digits == tuple(m * (i + 1) - 1 for i in range(n))
    assert decode(d) == m**n * factorial(n) - 1


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)])
def test_digit_element_mutual_inverse_exhaustive(m, n):
    seen = set()
    for digits in itertools.product(*(range(m * (i + 1)) for i in range(n))):
        d = MixedRadixNumber(m, digits)
        w = element_of_digits(d)
        assert digits_of_element(w).digits == digits
        seen.add(w)
    assert len(seen) == m**n * factorial(n)


def test_color_floor_split_reconstitutes_digits():
    for digits in itertools.product(range(6), range(12), range(18)):
        d = MixedRadixNumber(6, digits)
        w = element_of_digits(d)
        f = psi_inverse(w.beta)
        rebuilt = tuple(6 * (fi - 1) + r for fi, r in zip(f, w.colors))
        assert rebuilt == digits


def test_integer_examples():
    assert element_of_integer(2161, 3, 5).window() == "[1]3 4 2 [1]5 [1]1"
    assert integer_of_element(parse_window("[1]3 4 2 [1]5 [1]1", 3)) == 2161
    assert integer_of_element(longest_element(3, 3)) == 161
    assert element_of_integer(0, 3, 3).window() == "2 3 1"
    # a seeded element of G(5,1,2000)
    rnd = random.Random(2000)
    beta = rnd.sample(range(1, 2001), 2000)
    w = GroupElement(5, 2000, tuple(beta), tuple(rnd.randrange(5) for _ in beta))
    assert element_of_integer(integer_of_element(w), 5, 2000) == w
    with pytest.raises(OverflowError):
        element_of_integer(162, 3, 3)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 2)])
def test_integer_correspondence_is_bijective(m, n):
    order = m**n * factorial(n)
    values = {integer_of_element(w) for w in enumerate_group(m, n)}
    assert values == set(range(order))
    for x in range(0, order, 17):
        assert integer_of_element(element_of_integer(x, m, n)) == x


def swap_oracle(f):
    """Oracle for ``psi``: apply each transposition ``(i f(i))`` on the left,
    for i = 1..n, by swapping the *values* i and f(i) through an index of
    their positions; ``psi`` swaps positions instead, for i = n down to 1."""
    n = len(f)
    window = list(range(1, n + 1))
    pos = [0] + list(range(n))  # pos[v] = 0-based index of value v; pos[0] unused
    for i, fi in enumerate(f, start=1):
        pi, pf = pos[i], pos[fi]
        window[pi], window[pf] = window[pf], window[pi]
        pos[i], pos[fi] = pf, pi
    return tuple(window)


def reduce_swap_oracle(beta):
    """Oracle for ``psi_inverse``: the fix-point reduction from i = n down,
    which makes i a fixed point by a value swap and keeps the window and the
    position index whole at every step."""
    n = len(beta)
    window = list(beta)
    pos = [0] * (n + 1)
    for idx, v in enumerate(window):
        pos[v] = idx
    values = [0] * n
    for i in range(n, 0, -1):
        values[i - 1] = window[i - 1]
        pi, pf = pos[i], i - 1
        window[pi], window[pf] = window[pf], window[pi]
        pos[window[pi]] = pi
        pos[window[pf]] = pf
    return tuple(values)


def permutations_up_to(n_max):
    small = st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))
    shuffled = st.tuples(st.integers(1, n_max), st.randoms(use_true_random=False)).map(
        lambda nr: nr[1].sample(range(1, nr[0] + 1), nr[0])
    )
    return (small | shuffled).map(tuple)


@settings(max_examples=80, deadline=None)
@given(permutations_up_to(2000))
def test_reduce_matches_swap_oracle_property(beta):
    values = psi_inverse(beta)
    assert values == reduce_swap_oracle(beta)
    assert psi(values) == beta


def element_of_integer_chain(x, m, n):
    """Oracle: digits by the plain division loop, then the value-swap
    ``swap_oracle`` and the checked element constructor."""
    digits = []
    for i in range(1, n + 1):
        x, d = divmod(x, m * i)
        digits.append(d)
    assert x == 0
    beta = swap_oracle(tuple(d // m + 1 for d in digits))
    return GroupElement(m, n, beta, tuple(d % m for d in digits))


def integer_of_element_chain(w):
    """Oracle: the fix-point ``reduce_swap_oracle``, then the plain digit loop."""
    m = w.m
    digits = [m * (fi - 1) + r for fi, r in zip(reduce_swap_oracle(w.beta), w.colors)]
    x = 0
    for i in range(w.n, 0, -1):
        x = x * (m * i) + digits[i - 1]
    return x


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3), (4, 3), (5, 2), (7, 3), (6, 1)])
def test_integer_correspondence_matches_the_chain_on_whole_groups(m, n):
    order = m**n * factorial(n)
    for x in range(order):
        assert element_of_integer(x, m, n) == element_of_integer_chain(x, m, n)
    for w in enumerate_group(m, n):
        assert integer_of_element(w) == integer_of_element_chain(w)


# widths 1-3 and on both sides of one and two codec leaves
CHAIN_WIDTHS = st.integers(1, 2000) | st.sampled_from(
    (1, 2, 3, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF - 1, 2 * _LEAF, 2 * _LEAF + 1)
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), CHAIN_WIDTHS, st.data())
def test_integer_correspondence_matches_the_chain_property(m, n, data):
    rnd = data.draw(st.randoms(use_true_random=False))
    order = m**n * factorial(n)
    x = data.draw(st.integers(0, order - 1) | st.just(rnd.randrange(order)))
    w = element_of_integer(x, m, n)
    assert w == element_of_integer_chain(x, m, n)
    assert integer_of_element(w) == x
    v = GroupElement(
        m, n, tuple(rnd.sample(range(1, n + 1), n)), tuple(rnd.randrange(m) for _ in range(n))
    )
    y = integer_of_element(v)
    assert y == integer_of_element_chain(v)
    assert element_of_integer(y, m, n) == v


@settings(max_examples=60, deadline=None)
@given(CHAIN_WIDTHS, st.randoms(use_true_random=False))
def test_psi_matches_the_value_swap_oracle_property(n, rnd):
    f = tuple(rnd.randint(1, i) for i in range(1, n + 1))
    beta = psi(f)
    assert beta == swap_oracle(f)
    assert psi_inverse(beta) == f
