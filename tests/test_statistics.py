"""Statistics tests: root systems, inversions, rank/unrank, flag-major index."""

import itertools
import random
import sys
import time
from collections import Counter
from math import factorial
from operator import getitem

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gsg.errors import BudgetExceeded, IndexOutOfRange, RankOutOfRange
from gsg.group_core import (
    GroupElement,
    _earlier_smaller,
    canonical_length,
    enumerate_group,
    gen_s,
    gen_sigma,
    gen_t,
    group_order,
    identity,
    inverse,
    longest_element,
    multiply,
    parse_window,
    power,
)
import gsg.statistics
from gsg.mixed_radix import MixedRadixNumber, decode, encode, encode_width
from gsg.statistics import (
    QPolynomial,
    _inversions,
    _negatives,
    _window_sums,
    delta_block,
    fmaj,
    fmaj_exponents,
    histogram,
    inv_closed,
    inv_oracle,
    inversion_table,
    length_L,
    phi,
    poincare,
    rank,
    unrank,
)
from gsg.subexceedant import digits_of_element, element_of_integer
from gsg.verify import run_property_checks

W_BIG = "[2]3 [4]1 [1]6 5 [1]4 [2]2"


def all_roots(m, n):
    """Every formal difference of two distinct colored basis vectors."""
    vectors = [(a, j) for j in range(1, n + 1) for a in range(m)]
    return [
        (a, j, b, l)
        for (a, j) in vectors
        for (b, l) in vectors
        if (a, j) != (b, l)
    ]


def is_negative(r):
    """O(1) classifier for membership in the negative half.

    Same index: negative iff the leading exponent is larger.  Leading index
    strictly larger: negative iff its exponent is nonzero.  Leading index
    strictly smaller: negative iff the trailing exponent is zero.  Exactly
    one of a root and its negation is negative.
    """
    a, j, b, l = r
    if j == l:
        return a > b
    if j > l:
        return a != 0
    return b == 0


def act(w, r):
    """Image of a root: each colored vector ``(a, j)`` maps to
    ``(a + color_j mod m, beta_j)``."""
    a, j, b, l = r
    return (
        (a + w.colors[j - 1]) % w.m,
        w.beta[j - 1],
        (b + w.colors[l - 1]) % w.m,
        w.beta[l - 1],
    )


def simple_side(m, n):
    """The simple-side set: ``e_j`` minus any colored ``e_l`` with ``l <= j``,
    as the union of its blocks from anchor ``j = 1`` up to ``n``."""
    return [r for i in range(n, 0, -1) for r in delta_block(m, n, i)]


def length_L_oracle(w):
    """Number of simple-side roots sent negative, by direct counting."""
    return _negatives(w, simple_side(w.m, w.n))


def poly_mul(p, q):
    """Oracle: the schoolbook product of two q-polynomials."""
    out = [0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return QPolynomial(tuple(out))


def positive_roots(m, n):
    """Oracle: the positive half built family by family, not via the classifier."""
    out = set()
    for j in range(1, n + 1):
        for a in range(m):
            for b in range(a + 1, m):
                out.add((a, j, b, j))
        for l in range(1, j):
            for b in range(m):
                out.add((0, j, b, l))
        for l in range(j + 1, n + 1):
            for a in range(m):
                for b in range(1, m):
                    out.add((a, j, b, l))
    return out


def negated(r):
    a, j, b, l = r
    return b, l, a, j


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_root_count_identities(m, n):
    roots, d = all_roots(m, n), simple_side(m, n)
    blocks = [delta_block(m, n, i) for i in range(1, n + 1)]
    # the builders return lists, and _negatives counts a repeated root twice
    for lst in [roots, d, *blocks]:
        assert len(lst) == len(set(lst))
    roots, d, blocks = set(roots), set(d), [set(b) for b in blocks]
    assert len(roots) == m * n * (m * n - 1)
    pos = positive_roots(m, n)
    neg = {negated(r) for r in pos}
    assert pos | neg == roots
    assert not pos & neg
    assert len(pos) == len(neg) == len(roots) // 2
    for r in roots:
        assert is_negative(r) != is_negative(negated(r))
        assert is_negative(r) == (r in neg)
    assert d <= pos
    assert len(d) == n * (m - 1) + m * n * (n - 1) // 2
    assert [len(b) for b in blocks] == [m * (n - i + 1) - 1 for i in range(1, n + 1)]
    union = set()
    for b in blocks:
        assert not union & b
        union |= b
    assert union == d


def test_example_block_sizes():
    assert len(all_roots(3, 3)) == 72
    assert len(simple_side(3, 3)) == 15
    assert [len(delta_block(3, 3, i)) for i in (1, 2, 3)] == [8, 5, 2]
    assert [len(delta_block(2, 2, i)) for i in (1, 2)] == [3, 1]


def test_root_machinery_answers_at_radix_one():
    # at m = 1 the roots are the symmetric group's type-A set e_j - e_l
    assert sorted(all_roots(1, 3)) == [(0, j, 0, l) for j in (1, 2, 3) for l in (1, 2, 3) if j != l]
    assert simple_side(1, 3) == [(0, 2, 0, 1), (0, 3, 0, 1), (0, 3, 0, 2)]
    # the union of the blocks keeps the set's order: anchor j up, then l up, then color up
    assert simple_side(2, 2) == [(0, 1, 1, 1), (0, 2, 0, 1), (0, 2, 1, 1), (0, 2, 1, 2)]
    for w in enumerate_group(1, 4):
        inversions = _inversions(w)
        assert length_L(w) == length_L_oracle(w) == sum(inversions)
        for i in range(1, 5):
            assert inv_oracle(w, i) == inv_closed(w, i) == inversions[4 - i]


def test_is_negative_examples():
    assert is_negative((1, 1, 0, 1))
    assert not is_negative((0, 2, 0, 1))
    assert is_negative((0, 1, 0, 2))


def test_act_examples():
    t1 = gen_t(3, 2, 1)
    image = act(t1, (0, 1, 2, 1))
    assert image == (1, 1, 0, 1)
    assert is_negative(image)
    for r in all_roots(3, 2):
        assert act(identity(3, 2), r) == r
    s1 = parse_window("2 1", 3)
    assert act(s1, (0, 2, 0, 1)) == (0, 1, 0, 2)


def test_length_examples():
    assert length_L(identity(3, 3)) == 0
    for m, n in [(2, 2), (3, 3), (4, 2), (5, 6)]:
        assert length_L(longest_element(m, n)) == n * (m - 1) + m * n * (n - 1) // 2
    assert length_L(parse_window(W_BIG, 5)) == 43


def test_inversion_examples():
    w = parse_window("[2]3 [1]1 2", 3)
    assert [inv_closed(w, i) for i in (1, 2, 3)] == [1, 2, 2]
    assert [inv_oracle(w, i) for i in (1, 2, 3)] == [1, 2, 2]
    assert all(inv_closed(identity(3, 3), i) == 0 for i in (1, 2, 3))
    big = parse_window(W_BIG, 5)
    assert [inv_closed(big, i) for i in range(1, 7)] == [11, 13, 1, 11, 5, 2]
    assert str(inversion_table(big)) == "11:13:1:11:5:2"
    with pytest.raises(IndexOutOfRange):
        inv_closed(w, 4)
    for i in (0, 4):
        with pytest.raises(IndexOutOfRange):
            inv_oracle(w, i)


@pytest.mark.parametrize("m,n", [(1, 4), (1, 5), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_oracle_matches_closed_form_exhaustive(m, n):
    for w in enumerate_group(m, n):
        for i in range(1, n + 1):
            assert inv_oracle(w, i) == inv_closed(w, i)
        assert sum(inversion_table(w).entries) == length_L(w)


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3)])
def test_length_closed_form_matches_root_count_exhaustive(m, n):
    for w in enumerate_group(m, n):
        assert length_L(w) == length_L_oracle(w)


def root_count(w, roots):
    """Oracle: the single-root definitions, one root at a time."""
    return sum(1 for r in roots if is_negative(act(w, r)))


def assert_tuple_counter_matches_roots(w):
    m, n = w.m, w.n
    d = simple_side(m, n)
    assert _negatives(w, d) == root_count(w, d)
    for i in range(1, n + 1):
        block = delta_block(m, n, i)
        assert _negatives(w, block) == root_count(w, block)


@pytest.mark.parametrize("m,n", [(1, 4), (1, 5), (2, 4), (3, 3), (4, 3)])
def test_tuple_root_counter_matches_root_classifier_exhaustive(m, n):
    # one root at a time too: a block count cannot see a color taken from the wrong index
    roots = all_roots(m, n)
    for w in enumerate_group(m, n):
        assert_tuple_counter_matches_roots(w)
        for t in roots:
            assert _negatives(w, [t]) == is_negative(act(w, t))


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_blocks_partition_the_simple_side_set(m, n):
    # verify sums the block counts in place of counting the simple-side set again;
    # the set as defined: e_j minus each colored e_l with l <= j, but not e_j itself
    defined = [
        (0, j, b, l) for j in range(1, n + 1) for l in range(1, j + 1) for b in range(m)
        if (b, l) != (0, j)
    ]
    assert sorted(simple_side(m, n)) == sorted(defined)


def test_oracle_matches_closed_form_random_big():
    rng = random.Random(20250809)
    betas = list(range(1, 7))
    for _ in range(500):
        rng.shuffle(betas)
        colors = tuple(rng.randrange(5) for _ in range(6))
        w = GroupElement(5, 6, tuple(betas), colors)
        for i in range(1, 7):
            assert inv_oracle(w, i) == inv_closed(w, i)


def test_inversion_table_bounds():
    for w in enumerate_group(3, 3):
        table = inversion_table(w)
        for i, e in enumerate(table.entries, start=1):
            assert 0 <= e <= 3 * (3 - i + 1) - 1


def assert_table_is_rank_digits(w, r):
    """``w``'s inversion table is the digit string of ``r - 1``, bounds included."""
    table = inversion_table(w)
    assert table == encode_width(r - 1, w.m, w.n)
    assert table == MixedRadixNumber(w.m, table.digits)  # the checked constructor


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3), (4, 3), (3, 4)])
def test_inversion_table_is_the_digit_string_of_rank_exhaustive(m, n):
    for w in enumerate_group(m, n):
        assert_table_is_rank_digits(w, rank(w))
    for r in range(1, group_order(m, n) + 1):
        assert inversion_table(unrank(r, m, n)) == encode_width(r - 1, m, n)


@settings(deadline=None)
@given(st.integers(1, 5), st.integers(1, 300), st.data())
def test_inversion_table_is_the_digit_string_of_rank_property(m, n, data):
    rnd = data.draw(st.randoms(use_true_random=False))
    beta = rnd.sample(range(1, n + 1), n)
    w = GroupElement(m, n, tuple(beta), tuple(rnd.randrange(m) for _ in beta))
    assert_table_is_rank_digits(w, rank(w))
    r = rnd.randint(1, group_order(m, n))
    assert inversion_table(unrank(r, m, n)) == encode_width(r - 1, m, n)


def test_rank_examples():
    assert rank(parse_window("[2]3 [1]1 2", 3)) == 27
    assert rank(longest_element(3, 3)) == 162
    assert rank(parse_window(W_BIG, 5)) == 4321328
    assert_table_is_rank_digits(parse_window(W_BIG, 5), 4321328)
    assert rank(identity(4, 4)) == 1


def test_unrank_examples():
    assert unrank(4321328, 5, 6) == parse_window(W_BIG, 5)
    assert unrank(1, 3, 3) == identity(3, 3)
    assert unrank(162, 3, 3) == longest_element(3, 3)
    with pytest.raises(RankOutOfRange):
        unrank(0, 3, 3)
    with pytest.raises(RankOutOfRange):
        unrank(163, 3, 3)


def test_unrank_bounds():
    # exactly one past each end of 1..m^n n!, and no group below m = 1 or n = 1
    for m in range(1, 6):
        for n in range(1, 9):
            order = m**n * factorial(n)
            for r in (0, order + 1):
                with pytest.raises(RankOutOfRange):
                    unrank(r, m, n)
    for m, n in [(0, 3), (3, 0), (-1, 2), (0, 0)]:
        with pytest.raises(ValueError):
            unrank(1, m, n)


@pytest.mark.parametrize("m,n", [(2, 3), (4, 2), (3, 3)])
def test_rank_order_is_lex_order_of_tables(m, n):
    # the table map covers the whole digit box, and sorting by rank sorts
    # the tables lexicographically
    elems = list(enumerate_group(m, n))
    tables = {tuple(inversion_table(w).entries) for w in elems}
    box = set(
        itertools.product(*(range(m * (n - i + 1)) for i in range(1, n + 1)))
    )
    assert tables == box
    seq = [tuple(inversion_table(w).entries) for w in sorted(elems, key=rank)]
    assert seq == sorted(seq)


def test_rank_unrank_beyond_enumeration_scale():
    # rank/unrank never enumerate, so they work where sweeps would not
    rng = random.Random(7)
    values = list(range(1, 8))
    for _ in range(100):
        rng.shuffle(values)
        colors = tuple(rng.randrange(6) for _ in range(7))
        w = GroupElement(6, 7, tuple(values), colors)
        assert unrank(rank(w), 6, 7) == w


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_rank_bijection_exhaustive(m, n):
    order = m**n * factorial(n)
    ranks = set()
    for w in enumerate_group(m, n):
        r = rank(w)
        assert unrank(r, m, n) == w
        ranks.add(r)
    assert ranks == set(range(1, order + 1))
    for r in range(1, order + 1):
        assert rank(unrank(r, m, n)) == r


def test_fmaj_examples():
    assert fmaj_exponents(identity(4, 3)) == [0, 0, 0]
    assert fmaj(identity(4, 3)) == 0
    assert fmaj_exponents(gen_t(3, 3, 1)) == [1, 0, 0]
    assert fmaj(gen_t(3, 3, 1)) == 1
    assert histogram("fmaj", 2, 2).coeffs == (1, 2, 2, 2, 1)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (1, 4)])
def test_fmaj_decomposition_is_the_unique_expression(m, n):
    sigmas = [gen_sigma(m, n, i) for i in range(n)]
    for w in enumerate_group(m, n):
        exps = fmaj_exponents(w)
        for i, k in enumerate(exps):
            assert 0 <= k <= m * i + m - 1
        rebuilt = identity(m, n)
        for i in range(n - 1, -1, -1):
            rebuilt = multiply(rebuilt, power(sigmas[i], exps[i]))
        assert rebuilt == w


def test_flag_generator_images_distinct():
    # the m(i+1) images of i+1 under powers of the i-th flag generator
    for m, n in [(2, 4), (3, 3), (5, 2)]:
        for i in range(1, n):
            sig = gen_sigma(m, n, i)
            powers = [power(sig, k) for k in range(m * (i + 1))]
            images = [(p.beta[i], p.colors[i]) for p in powers]
            assert len(set(images)) == m * (i + 1)


def test_phi_examples():
    assert phi(identity(3, 3)) == identity(3, 3)
    w = parse_window("[2]3 [1]1 2", 3)
    assert inversion_table(w).entries == (1, 2, 2)
    img = phi(w)
    expected = multiply(
        power(gen_sigma(3, 3, 2), 1),
        multiply(power(gen_sigma(3, 3, 1), 2), power(gen_sigma(3, 3, 0), 2)),
    )
    assert img == expected
    assert fmaj(img) == 5 == length_L(w)


def test_phi_bijective_and_transports_length():
    images = set()
    for w in enumerate_group(2, 3):
        img = phi(w)
        assert fmaj(img) == length_L(w)
        images.add(img)
    assert len(images) == 48


def test_poincare():
    assert poincare(2, 2).coeffs == (1, 2, 2, 2, 1)
    p = poincare(3, 3)
    assert p.degree == 15
    assert sum(p.coeffs) == 162
    assert poincare(1, 3).coeffs == (1, 2, 2, 1)
    for m, n in [(2, 2), (3, 3), (4, 2), (2, 4)]:
        assert poincare(m, n).degree == length_L(longest_element(m, n))
        assert sum(poincare(m, n).coeffs) == m**n * factorial(n)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_poincare_budget_message_past_the_str_digit_limit():
    # the gsg command lifts the limit for its process: pin the default here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        # the update count has about 6000 decimal digits, m and n 1501 each
        with pytest.raises(BudgetExceeded) as exc:
            poincare(10**1500, 10**1500)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(exc.value).startswith("<19931-bit number> coefficient updates for G(1000")


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_unrank_range_message_past_the_str_digit_limit():
    # the order of G(2,1,2000) has over 6000 decimal digits; n = 65 is past
    # the codec's 64-digit leaf
    shown = lambda x: str(x) if abs(x) < 10**4300 else f"<{x.bit_length()}-bit number>"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for m, n in itertools.product((1, 2, 5), (1, 2, 65, 2000)):
            order = group_order(m, n)
            for r in (order + 1, order + 10**30):
                with pytest.raises(RankOutOfRange) as exc:
                    unrank(r, m, n)
                assert str(exc.value) == f"rank {shown(r)} outside 1..{shown(order)}"
            # below 1 the message names no order: it is refused before the order is built
            for r in (0, -1, -(10**5000)):
                with pytest.raises(RankOutOfRange) as exc:
                    unrank(r, m, n)
                assert str(exc.value) == f"rank {shown(r)} is below 1"
            # the two ends themselves are in range
            assert rank(unrank(order, m, n)) == order and unrank(1, m, n) == identity(m, n)
    finally:
        sys.set_int_max_str_digits(limit)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(1, 8))
def test_poincare_matches_schoolbook_product_property(m, n):
    product = QPolynomial((1,))
    for i in range(1, n + 1):
        product = poly_mul(product, QPolynomial((1,) * (i * m)))
    assert poincare(m, n) == product


def test_qpolynomial_basics():
    assert poly_mul(QPolynomial((1, 1)), QPolynomial((1, 1, 1, 1))).coeffs == (1, 2, 2, 2, 1)
    assert QPolynomial((1, 0, 0)).coeffs == (1,)
    assert str(QPolynomial((1, 2, 1))) == "1,2,1"


def test_qpolynomial_trims_trailing_zeros_in_linear_time():
    assert QPolynomial((0, 0)).coeffs == ()
    long = (1,) + (0,) * 100_000
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        assert QPolynomial(long) == QPolynomial((1,))
        best = min(best, time.perf_counter() - start)
    assert best < 0.5, f"took {best:.6f}s, budget 0.5s"


# G(3,1,6) has 524,880 elements: each histogram is a product of small counts
@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2), (4, 3), (2, 4), (3, 6)]
)
def test_equidistribution(m, n):
    expected = poincare(m, n)
    assert histogram("inv", m, n) == expected
    assert histogram("fmaj", m, n) == expected
    assert histogram("L", m, n) == expected


def test_histogram_radix_one():
    # fmaj is the major index alone; inv and L count a permutation's inversions
    for statistic, n in itertools.product(("inv", "fmaj", "L"), (3, 6, 7)):
        assert histogram(statistic, 1, n) == poincare(1, n)


def test_histogram_rejects_an_unknown_statistic_before_the_budget():
    with pytest.raises(ValueError) as exc:
        histogram("maj", 2, 60, budget=10)
    assert not isinstance(exc.value, BudgetExceeded)


@pytest.mark.parametrize(
    "limit", sorted({0, getattr(sys.int_info, "default_max_str_digits", 0)})
)
@pytest.mark.parametrize(
    "statistic,shown",
    [
        ("maj", "'maj'"),
        (10**5000, "<16610-bit number>"),
        ("x" * 100_000, f"{'x' * 32!r}... (100000 characters)"),
        (None, "None"),
    ],
    ids=["name", "huge int", "long name", "None"],
)
def test_histogram_names_an_unknown_statistic_briefly(statistic, shown, limit):
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(limit)
    try:
        with pytest.raises(ValueError) as exc:
            histogram(statistic, 2, 2)
    finally:
        if set_limit:
            set_limit(old)
    assert str(exc.value) == f"unknown statistic {shown}"
    assert len(str(exc.value)) < 200


HISTOGRAM_ARGUMENT_ERRORS = {
    "statistic first": (("maj", 0, 60, 10), ValueError, "unknown statistic 'maj'"),
    "empty group": (("L", 0, 60, 10), ValueError, "need m >= 1 and n >= 1, got (0, 60)"),
    # poincare's count: 60 factors times 1,771 coefficients
    "budget": (
        ("L", 1, 60, 10), BudgetExceeded, "106260 coefficient updates for G(1,1,60) exceed budget 10"
    ),
}


@pytest.mark.parametrize(
    "args,error,message", HISTOGRAM_ARGUMENT_ERRORS.values(), ids=HISTOGRAM_ARGUMENT_ERRORS.keys()
)
def test_histogram_checks_its_arguments_in_order_before_any_sweep_work(
    monkeypatch, args, error, message
):
    def no_work(*args):
        raise AssertionError("the kernel ran before the argument checks")

    monkeypatch.setattr(gsg.statistics, "_window_sums", no_work)
    with pytest.raises(error) as exc:
        histogram(*args)
    assert type(exc.value) is error
    assert str(exc.value) == message


def test_histogram_builds_no_element(monkeypatch):
    def no_element(*args):
        raise AssertionError("histogram built a group element")

    monkeypatch.setattr(GroupElement, "_unchecked", staticmethod(no_element))
    monkeypatch.setattr(GroupElement, "__init__", no_element)
    for statistic in ("inv", "fmaj", "L"):
        assert histogram(statistic, 3, 3) == poincare(3, 3)


def recorded_window_sums(monkeypatch):
    """The width ``k`` of each :func:`_window_sums` call, in order."""
    calls = []

    def record(coeffs, k):
        calls.append(k)
        return _window_sums(coeffs, k)

    monkeypatch.setattr(gsg.statistics, "_window_sums", record)
    return calls


@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 3), (4, 3)])
def test_inv_histogram_visits_no_permutation(monkeypatch, m, n):
    # one window sum per position p, of width m(p+1): no permutation, no bisect pass
    def no_sweep(*args):
        raise AssertionError("the inv histogram swept the permutations")

    monkeypatch.setattr(gsg.statistics, "_earlier_smaller", no_sweep)
    expected = poincare(m, n)
    for statistic in ("inv", "L"):
        calls = recorded_window_sums(monkeypatch)
        assert histogram(statistic, m, n) == expected
        assert calls == [m * (p + 1) for p in range(n)]


@pytest.mark.parametrize("m,n", [(1, 6), (2, 4), (3, 3), (4, 3)])
def test_fmaj_sweep_runs_no_bisect_pass_and_no_walk(monkeypatch, m, n):
    # the major index over S_n is [n]_q!, read off no permutation
    def no_pass(*args):
        raise AssertionError("the fmaj histogram ran a bisect pass or the flag walk")

    monkeypatch.setattr(gsg.statistics, "_earlier_smaller", no_pass)
    monkeypatch.setattr(gsg.statistics, "fmaj_exponents", no_pass)
    monkeypatch.setattr(gsg.statistics, "_inversions", no_pass)
    assert histogram("fmaj", m, n) == poincare(m, n)


@pytest.mark.parametrize("m,n", [(1, 6), (2, 4), (3, 3), (4, 3)])
def test_fmaj_sweep_draws_each_peeled_coloring_once(monkeypatch, m, n):
    # per position p, [p]_q for the major index times [m]_{q^p} for the peeled
    # color is [mp]_q: one window sum, not one term per coloring
    expected = poincare(m, n)
    calls = recorded_window_sums(monkeypatch)
    assert histogram("fmaj", m, n) == expected
    assert calls == [m * p for p in range(1, n + 1)]


@pytest.mark.parametrize("statistic", ["inv", "fmaj", "L"])
@pytest.mark.parametrize("m,n", [(1, 10), (2, 12)])
def test_histogram_answers_past_the_group_order(statistic, m, n):
    # 10! and 2^12 * 12! pass the default budget of 10^6 elements, but the
    # products take 460 and 1,740 coefficient updates
    assert group_order(m, n) > 10**6
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        out = histogram(statistic, m, n)
        best = min(best, time.perf_counter() - start)
    assert out == poincare(m, n)
    assert best < 0.05, f"took {best:.6f}s, budget 0.05s"


@given(st.lists(st.integers(0, 10**6), min_size=1, max_size=30), st.integers(1, 40))
@example([1], 1)
@example([0, 0, 5], 7)
def test_window_sums_match_the_product_property(coeffs, k):
    # the kernel against poly_mul by [k]_q = 1 + q + .. + q^(k-1)
    out = _window_sums(coeffs, k)
    assert len(out) == len(coeffs) + k - 1
    assert QPolynomial(tuple(out)) == poly_mul(QPolynomial(tuple(coeffs)), QPolynomial((1,) * k))


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_fmaj_histogram_counts_each_element_exhaustive(m, n):
    # every statistic, counted element by element: each product form is checked
    # against fmaj and the root count themselves, not through the theorem that
    # all of them equal poincare
    group = list(enumerate_group(m, n))
    lengths, fmajs = Counter(map(length_L_oracle, group)), Counter(map(fmaj, group))
    for statistic, counts in (("inv", lengths), ("fmaj", fmajs), ("L", lengths)):
        expected = tuple(counts[k] for k in range(max(counts) + 1))
        assert histogram(statistic, m, n).coeffs == expected


def flag_terms(m, n):
    """``(major, rows)`` with ``fmaj(w) == major(beta) + sum(map(getitem,
    rows, peeled))`` for each w with permutation ``beta``, where the
    exponents of :func:`fmaj_exponents` are ``peeled[p-1]*p + r_p``.

    ``major(beta)`` sums the ``r_p``: at color 0 they are the flag exponents
    of ``beta`` alone, whose sum is its major index, the sum of its descent
    positions.  ``rows[p-1] = (0, p, .., (m-1)*p)`` for every permutation.
    """
    rows = [tuple(range(0, m * p, p)) for p in range(1, n + 1)]
    return (lambda beta: sum(p for p in range(1, n) if beta[p - 1] > beta[p])), rows


def position_terms(w):
    """The inv histogram's number at each 0-based position p: ``p - s + c``,
    plus ``m*s`` at a color c > 0, with s the count of earlier smaller values."""
    below = _earlier_smaller(w.beta)
    return [p - s + c + (c and w.m * s) for p, (s, c) in enumerate(zip(below, w.colors))]


def peeled_colors(w):
    """The color c of each flag-generator exponent ``c*p + r_p``, with ``r_p < p``."""
    return tuple(e // p for p, e in enumerate(fmaj_exponents(w), start=1))


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
def test_sweep_values_match_each_element_exhaustive(m, n):
    # histogram == poincare cannot see two values swapped between elements; this can
    major, flag_rows = flag_terms(m, n)
    colorings = list(itertools.product(range(m), repeat=n))
    perms = list(itertools.permutations(range(1, n + 1)))
    # inv: the counts of earlier smaller values are one-to-one with the permutations
    below = sorted(tuple(_earlier_smaller(beta)) for beta in perms)
    assert below == list(itertools.product(*(range(p + 1) for p in range(n))))
    for beta in perms:
        group = [GroupElement(m, n, beta, colors) for colors in colorings]
        # inv: each position's number is the root count of its block
        for w in group:
            assert position_terms(w) == [inv_oracle(w, n - p) for p in range(n)]
        # fmaj: one value per element, in the order of its peeled colors
        by_peeled = {peeled_colors(w): w for w in group}
        assert sorted(by_peeled) == colorings
        values = [major(beta) + sum(t) for t in itertools.product(*flag_rows)]
        assert values == [fmaj(by_peeled[c]) for c in colorings]
        for c, w in by_peeled.items():
            value = major(beta) + sum(map(getitem, flag_rows, c))
            assert value == fmaj(w) == adin_roichman_fmaj(w) == sum(fmaj_exponents(w))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_groups_of_one_position(m):
    # G(m,1,1) is the cyclic group of the m colors of the single value 1
    for statistic in ("inv", "fmaj", "L"):
        assert histogram(statistic, m, 1) == poincare(m, 1)
    assert all(ok for _, ok in run_property_checks(m, 1))
    assert len(set(enumerate_group(m, 1))) == m
    assert canonical_length(longest_element(m, 1)) == m - 1


def test_length_functions_coincide_for_radix_two():
    for n in (1, 2, 3):
        for w in enumerate_group(2, n):
            assert length_L(w) == canonical_length(w)


def test_length_functions_diverge_for_radix_three():
    t2 = gen_t(3, 2, 2)
    assert length_L(t2) == 4
    assert canonical_length(t2) == 3


@st.composite
def elements(draw, min_m=1, max_m=6, max_n=300):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(1, max_n))
    beta = tuple(draw(st.permutations(list(range(1, n + 1)))))
    colors = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    return GroupElement(m, n, beta, colors)


@given(elements())
def test_unrank_inverts_rank_property(w):
    assert unrank(rank(w), w.m, w.n) == w


@given(elements(min_m=1, max_m=5, max_n=12))
def test_length_closed_form_matches_root_count_property(w):
    assert length_L(w) == length_L_oracle(w)


@given(elements(min_m=1, max_m=6, max_n=10))
def test_tuple_root_counter_matches_root_classifier_property(w):
    assert_tuple_counter_matches_roots(w)


@given(elements())
def test_inversion_table_matches_per_index_closed_form_property(w):
    entries = tuple(inv_closed(w, i) for i in range(1, w.n + 1))
    assert inversion_table(w).entries == entries


@given(st.integers(1, 6), st.integers(1, 300), st.data())
def test_rank_inverts_unrank_property(m, n, data):
    # hypothesis's own picks favour small ranks; the uniform ones fill every digit
    order = group_order(m, n)
    uniform = st.randoms(use_true_random=False).map(lambda rnd: rnd.randint(1, order))
    r = data.draw(st.integers(1, order) | uniform)
    assert rank(unrank(r, m, n)) == r


def sigma_product(m, n, exps):
    """Oracle: the product of flag-generator powers, i = n-1 down to 0."""
    out = identity(m, n)
    for i in range(n - 1, -1, -1):
        out = multiply(out, power(gen_sigma(m, n, i), exps[i]))
    return out


@given(elements(max_n=30))
def test_fmaj_exponents_rebuild_the_element_property(w):
    exps = fmaj_exponents(w)
    for i, k in enumerate(exps):
        assert 0 <= k <= w.m * (i + 1) - 1
    assert sigma_product(w.m, w.n, exps) == w


@given(elements(max_n=30))
def test_phi_is_the_flag_generator_product_property(w):
    entries = inversion_table(w).entries
    exps = [entries[w.n - 1 - i] for i in range(w.n)]
    assert phi(w) == sigma_product(w.m, w.n, exps)


@given(elements(max_n=60), st.data())
def test_library_results_pass_the_constructor_checks_property(w, data):
    # the library builds these without the constructor checks
    m, n = w.m, w.n
    order = group_order(m, n)
    x = data.draw(st.integers(0, order - 1))
    k = data.draw(st.integers(-10**6, 10**6))
    v = unrank(data.draw(st.integers(1, order)), m, n)
    for u in (v, multiply(w, v), inverse(w), power(w, k), phi(w), element_of_integer(x, m, n)):
        assert GroupElement(u.m, u.n, u.beta, u.colors) == u
        hash(u)
    for d in (encode(x, m), encode_width(x, m, n), digits_of_element(w)):
        assert MixedRadixNumber(d.m, d.digits) == d
    for i, e in enumerate(inversion_table(w).entries, start=1):
        assert 0 <= e <= m * (n - i + 1) - 1


def turn_oracle(beta, colors, m, i, k):
    """Apply the k-th power of the i-th flag generator to positions 1..i+1.

    Those positions must hold the values 1..i+1.  The generator sends
    ``(v, c)`` to ``(v-1, c)`` for ``2 <= v <= i+1`` and ``(1, c)`` to
    ``(i+1, c+1)``: one cycle of length m(i+1) on which ``(v, c)`` has index
    ``c*(i+1) + (i+1-v)``, so the power adds k to that index.
    """
    size = i + 1
    for p in range(size):
        c, r = divmod((colors[p] * size + size - beta[p] + k) % (m * size), size)
        beta[p] = size - r
        colors[p] = c


def fmaj_exponents_oracle(w):
    """Oracle: read ``e_i`` as a cycle index, then turn positions 1..i+1 back; O(n^2)."""
    beta, colors = list(w.beta), list(w.colors)
    exps = [0] * w.n
    for i in range(w.n - 1, 0, -1):
        exps[i] = colors[i] * (i + 1) + (i + 1 - beta[i])
        turn_oracle(beta, colors, w.m, i, -exps[i])
    exps[0] = colors[0]
    return exps


def phi_oracle(w):
    """Oracle: turn the identity by the inversion table, i = 0 up; O(n^2)."""
    entries = inversion_table(w).entries
    beta, colors = list(range(1, w.n + 1)), [0] * w.n
    for i in range(w.n):
        turn_oracle(beta, colors, w.m, i, entries[w.n - 1 - i])
    return GroupElement(w.m, w.n, tuple(beta), tuple(colors))


def adin_roichman_fmaj(w):
    """Oracle: ``m * maj + sum(colors)``, descents read on the key ``(-color, value)``."""
    key = [(-c, b) for b, c in zip(w.beta, w.colors)]
    maj = sum(i + 1 for i in range(w.n - 1) if key[i] > key[i + 1])
    return w.m * maj + sum(w.colors)


@pytest.mark.parametrize(
    "m,n", [(1, 5), (1, 6), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (5, 3)]
)
def test_flag_walk_matches_turn_oracle_exhaustive(m, n):
    for w in enumerate_group(m, n):
        assert fmaj_exponents(w) == fmaj_exponents_oracle(w)
        assert phi(w) == phi_oracle(w)


@given(elements())
def test_flag_walk_matches_turn_oracle_property(w):
    assert fmaj_exponents(w) == fmaj_exponents_oracle(w)
    assert phi(w) == phi_oracle(w)


def seeded_element(m, n, seed):
    rnd = random.Random(seed)
    beta = rnd.sample(range(1, n + 1), n)
    return GroupElement(m, n, tuple(beta), tuple(rnd.randrange(m) for _ in beta))


@st.composite
def large_elements(draw, max_n=2000):
    # a seeded shuffle: per-entry hypothesis draws would dominate the run time at n = 2000
    m = draw(st.integers(1, 6))
    return seeded_element(m, draw(st.integers(1, max_n)), draw(st.integers(0, 2**32)))


@settings(deadline=None)
@given(large_elements())
def test_fmaj_matches_adin_roichman_property(w):
    assert fmaj(w) == adin_roichman_fmaj(w)


# fmaj is the closed form, so the flag walk is the independent form it is checked against
@pytest.mark.parametrize("m,n", [(1, 5), (2, 4), (3, 4), (4, 3), (3, 5)])
def test_fmaj_closed_form_matches_flag_walk_exhaustive(m, n):
    for w in enumerate_group(m, n):
        assert fmaj(w) == sum(fmaj_exponents(w))


@settings(deadline=None)
@given(large_elements())
@example(seeded_element(5, 2000, 2000))
def test_fmaj_closed_form_matches_flag_walk_property(w):
    assert fmaj(w) == sum(fmaj_exponents(w))


# the kernel's bitmask has a bit per value, stored in 30-bit digits: values
# 30 and 60 are the first bits of the second and third digit
@settings(deadline=None)
@given(large_elements())
@example(seeded_element(1, 29, 29))
@example(seeded_element(1, 30, 30))
@example(seeded_element(1, 31, 31))
@example(seeded_element(1, 61, 61))
def test_earlier_smaller_matches_the_quadratic_count_property(w):
    beta = w.beta
    assert _earlier_smaller(beta) == [sum(x < b for x in beta[:p]) for p, b in enumerate(beta)]


@settings(deadline=None)
@given(large_elements(max_n=300))
def test_canonical_length_matches_bagnos_formula_property(w):
    # inv of the key -beta_k at colored positions, beta_k elsewhere, pair by pair
    key = [-b if c else b for b, c in zip(w.beta, w.colors)]
    inversions = sum(x > y for p, x in enumerate(key) for y in key[p + 1 :])
    colored = sum(b + c - 1 for b, c in zip(w.beta, w.colors) if c)
    assert canonical_length(w) == inversions + colored


@given(elements())
def test_sweep_terms_give_each_element_its_values_property(w):
    assert position_terms(w) == [inv_closed(w, w.n - p) for p in range(w.n)]
    peeled = peeled_colors(w)
    assert all(0 <= c < w.m for c in peeled)
    major, rows = flag_terms(w.m, w.n)
    assert major(w.beta) + sum(map(getitem, rows, peeled)) == fmaj(w) == adin_roichman_fmaj(w)


@settings(deadline=None)
@given(large_elements())
def test_phi_transports_inversion_table_to_exponents_property(w):
    assert fmaj_exponents(phi(w)) == list(inversion_table(w).entries[::-1])


def unrank_oracle(r, m, n):
    """Unrank through a checked ``MixedRadixNumber`` from ``encode_width``."""
    digits = encode_width(r - 1, m, n).digits
    remaining = list(range(1, n + 1))
    beta, colors = [0] * n, [0] * n
    for p in range(n - 1, -1, -1):
        d, k = digits[p], len(remaining)
        if d < k:
            beta[p] = remaining.pop(k - 1 - d)
        else:
            idx, c = divmod(d - k, m - 1)
            beta[p] = remaining.pop(idx)
            colors[p] = c + 1
    return GroupElement(m, n, beta, colors)


def rank_oracle(w):
    """Rank by decoding a checked ``MixedRadixNumber`` of the inversion numbers."""
    return decode(MixedRadixNumber(w.m, tuple(_inversions(w)))) + 1


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 2000), st.data())
def test_rank_and_unrank_match_the_mixed_radix_number_path_property(m, n, data):
    # hypothesis's own picks favour small ranks; the uniform ones fill every digit
    order = group_order(m, n)
    uniform = st.randoms(use_true_random=False).map(lambda rnd: rnd.randint(1, order))
    r = data.draw(st.integers(1, order) | uniform)
    w = unrank(r, m, n)
    assert w.window() == unrank_oracle(r, m, n).window()
    assert rank(w) == rank_oracle(w) == r


@settings(deadline=None)
@given(large_elements())
def test_text_forms_match_the_generator_joins_property(w):
    table = inversion_table(w)
    assert table.entries == tuple(reversed(_inversions(w)))
    assert str(table) == ":".join(str(e) for e in table.entries)
    assert w.window() == " ".join(
        f"[{c}]{v}" if c else str(v) for v, c in zip(w.beta, w.colors)
    )


@pytest.mark.parametrize("m,n", [(0, 3), (2, 0)])
def test_poincare_rejects_an_empty_group_with_plain_value_error(m, n):
    with pytest.raises(ValueError) as exc:
        poincare(m, n)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"need m >= 1 and n >= 1, got ({m}, {n})"


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
def test_budget_message_below_the_default_str_digit_limit():
    # 10**1000 has fewer than 4300 digits but more than the 640 allowed here
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(BudgetExceeded) as exc:
            poincare(10**1000, 1, budget=1)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(exc.value) == (
        "<3322-bit number> coefficient updates for G(<3322-bit number>,1,1) exceed budget 1"
    )


GROUP_ENTRY_POINTS = {
    "enumerate_group": lambda m, n: enumerate_group(m, n),
    "histogram inv": lambda m, n: histogram("inv", m, n),
    "histogram fmaj": lambda m, n: histogram("fmaj", m, n),
    "histogram L": lambda m, n: histogram("L", m, n),
    "run_property_checks": lambda m, n: run_property_checks(m, n),
    "group_order": group_order,
    "unrank": lambda m, n: unrank(1, m, n),
    "poincare": poincare,
    "delta_block": lambda m, n: delta_block(m, n, 1),
    "identity": identity,
    "longest_element": longest_element,
    "gen_s": lambda m, n: gen_s(m, n, 1),
    "gen_t": lambda m, n: gen_t(m, n, 1),
    "gen_sigma": lambda m, n: gen_sigma(m, n, 0),
}


@pytest.mark.parametrize("call", GROUP_ENTRY_POINTS.values(), ids=GROUP_ENTRY_POINTS.keys())
@pytest.mark.parametrize("m,n", [(0, 3), (2, 0), (-1, 2)])
def test_whole_group_calls_reject_an_empty_group(call, m, n):
    # one check, before any index or budget: enumerate_group's generator is
    # never advanced, and n = 0 is not reported as an index out of 0..n-1
    with pytest.raises(ValueError) as exc:
        call(m, n)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"need m >= 1 and n >= 1, got ({m}, {n})"
