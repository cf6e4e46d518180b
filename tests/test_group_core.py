"""Group arithmetic tests: presentation relations, word lengths, text format."""

import copy
import itertools
import pickle
import random
import sys
import threading
import time
import tracemalloc
from functools import reduce
from operator import index

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gsg.group_core
from gsg.errors import (
    BudgetExceeded,
    DimensionMismatch,
    IndexOutOfRange,
    WindowParseError,
)
from gsg.group_core import (
    GroupElement,
    _order_within,
    _window,
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
from gsg.mixed_radix import MixedRadixNumber
from gsg.statistics import length_L, phi, unrank
from gsg.subexceedant import element_of_digits, element_of_integer


def test_identity_and_unit_laws():
    assert identity(3, 3).window() == "1 2 3"
    for w in enumerate_group(3, 2):
        assert multiply(identity(3, 2), w) == w
        assert multiply(w, identity(3, 2)) == w
    assert inverse(identity(4, 3)) == identity(4, 3)


def test_multiply_examples():
    s1 = gen_s(3, 2, 1)
    t1 = gen_t(3, 2, 1)
    assert multiply(s1, t1).window() == "[1]2 1"
    assert multiply(multiply(s1, t1), s1) == gen_t(3, 2, 2)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        multiply(identity(3, 2), identity(3, 3))
    with pytest.raises(DimensionMismatch):
        multiply(identity(2, 3), identity(3, 3))


def test_inverse_examples():
    assert inverse(parse_window("[1]2 1", 3)).window() == "2 [2]1"
    t1 = gen_t(4, 2, 1)
    assert inverse(t1) == power(t1, 3)
    assert inverse(gen_s(3, 3, 2)) == gen_s(3, 3, 2)


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
def test_group_axioms_exhaustive(m, n):
    elements = list(enumerate_group(m, n))
    e = identity(m, n)
    for u in elements:
        assert multiply(inverse(u), u) == e
        assert multiply(u, inverse(u)) == e
    for u, v, w in itertools.product(elements, repeat=3):
        assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_power():
    t1 = gen_t(5, 3, 1)
    assert power(t1, 5) == identity(5, 3)
    assert power(gen_s(5, 3, 1), 2) == identity(5, 3)
    assert power(gen_sigma(5, 3, 1), 0) == identity(5, 3)
    u = parse_window("[2]3 [1]1 2", 3)
    assert power(u, -1) == inverse(u)
    assert power(u, 3) == multiply(u, multiply(u, u))
    u = GroupElement(4, 6, (2, 4, 3, 1, 6, 5), (1, 2, 3, 1, 2, 3))
    assert power(u, 7) == reduce(multiply, [u] * 7)


def test_generators():
    assert gen_t(3, 3, 2).window() == "1 [1]2 3"
    assert gen_sigma(3, 2, 1).window() == "[1]2 1"
    assert gen_sigma(3, 2, 0) == gen_t(3, 2, 1)
    assert gen_t(1, 3, 2) == identity(1, 3)
    with pytest.raises(IndexOutOfRange):
        gen_s(3, 3, 3)
    with pytest.raises(IndexOutOfRange):
        gen_t(3, 3, 4)
    with pytest.raises(IndexOutOfRange):
        gen_sigma(3, 3, 3)


def test_longest_element():
    assert longest_element(3, 3).window() == "[2]1 [2]2 [2]3"
    assert longest_element(2, 2).window() == "[1]1 [1]2"
    assert longest_element(1, 4) == identity(1, 4)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_presentation_relations(m, n):
    e = identity(m, n)
    s = {i: gen_s(m, n, i) for i in range(1, n)}
    t = {i: gen_t(m, n, i) for i in range(1, n + 1)}
    for i in range(1, n):
        assert power(s[i], 2) == e
        if i + 1 < n:
            assert power(multiply(s[i], s[i + 1]), 3) == e
        for j in range(i + 2, n):
            assert power(multiply(s[i], s[j]), 2) == e
    for i in range(1, n + 1):
        assert power(t[i], m) == e
        for j in range(1, n + 1):
            assert multiply(t[i], t[j]) == multiply(t[j], t[i])
    for i in range(1, n):
        assert multiply(multiply(s[i], t[i]), s[i]) == t[i + 1]
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                assert multiply(s[i], t[j]) == multiply(t[j], s[i])


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3), (4, 4)])
def test_conjugation_moves_color_generators(m, n):
    for perm in itertools.permutations(range(1, n + 1)):
        tau = GroupElement(m, n, perm, (0,) * n)
        for i in range(1, n + 1):
            lhs = multiply(multiply(tau, gen_t(m, n, i)), inverse(tau))
            assert lhs == gen_t(m, n, perm[i - 1])


@pytest.mark.parametrize("m,n,count", [(3, 3, 162), (2, 2, 8), (1, 3, 6)])
def test_enumerate_count(m, n, count):
    elements = list(enumerate_group(m, n))
    assert len(elements) == count
    assert len(set(elements)) == count
    assert group_order(m, n) == count


@pytest.mark.parametrize("m,n", [(-2, 3), (0, 3), (2, 0), (2, -1)])
def test_group_order_rejects_empty_parameters(m, n):
    with pytest.raises(ValueError) as exc:
        group_order(m, n)
    assert str(exc.value) == f"need m >= 1 and n >= 1, got ({m}, {n})"


def test_enumerate_budget():
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_group(3, 8, budget=1000)  # raises at call time, not first next()
    assert str(exc.value) == "elements for G(3,1,8) exceed budget 1000"
    with pytest.raises(BudgetExceeded) as exc:
        enumerate_group(3, 3, budget=161)
    assert str(exc.value) == "162 elements for G(3,1,3) exceed budget 161"
    assert len(list(enumerate_group(3, 3, budget=162))) == 162


def test_order_within_is_exact_unless_it_stops_before_n():
    # the product passes the cap at i = 3 = n, so the order is exact
    assert _order_within(3, 3, 100) == 162 == _order_within(3, 3, 162)
    assert _order_within(3, 4, 100) is None  # 162 > 100 at i = 3 < n
    assert _order_within(2, 10**11, 10) is None


@pytest.mark.parametrize(
    "limit", sorted({0, getattr(sys.int_info, "default_max_str_digits", 0)})
)
def test_budget_message_is_short_at_any_str_digit_limit(limit):
    # the order of G(2,1,2000) has over 6000 decimal digits
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(limit)
    try:
        for call in (
            lambda: enumerate_group(2, 2000, 10),
            lambda: enumerate_group(10**5000, 1, 10),  # m past 4300 digits
        ):
            with pytest.raises(BudgetExceeded) as exc:
                call()
            assert len(str(exc.value)) < 200
    finally:
        if set_limit:
            set_limit(old)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_canonical_length_identities(m, n):
    assert canonical_length(identity(m, n)) == 0
    assert canonical_length(longest_element(m, n)) == n * (n + m - 2)
    for j in range(1, n + 1):
        assert canonical_length(gen_t(m, n, j)) == 2 * j - 1


def test_canonical_length_examples():
    assert canonical_length(gen_t(3, 3, 2)) == 3
    assert canonical_length(longest_element(3, 2)) == 6


def bfs_word_lengths(m, n):
    """Oracle: each element's distance from the identity, by breadth-first
    search right-multiplying by ``t_1, s_1, .., s_{n-1}``."""
    gens = [gen_t(m, n, 1)] + [gen_s(m, n, i) for i in range(1, n)]
    dist = {identity(m, n): 0}
    frontier = [identity(m, n)]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = multiply(u, g)
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


@pytest.mark.parametrize(
    "m,n", [(1, 5), (1, 6), (2, 4), (2, 5), (3, 3), (3, 4), (4, 3), (5, 3)]
)
def test_canonical_length_matches_bfs_on_whole_group(m, n):
    dist = bfs_word_lengths(m, n)
    assert len(dist) == group_order(m, n)
    for w in enumerate_group(m, n):
        assert canonical_length(w) == dist[w], w.window()


@pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3)])
def test_generators_reach_whole_group(m, n):
    gens = [gen_t(m, n, 1)] + [gen_s(m, n, i) for i in range(1, n)]
    reached = {identity(m, n)}
    frontier = [identity(m, n)]
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = multiply(u, g)
                if v not in reached:
                    reached.add(v)
                    nxt.append(v)
        frontier = nxt
    assert reached == set(enumerate_group(m, n))


def test_window_roundtrip():
    for w in enumerate_group(3, 3):
        assert parse_window(w.window(), 3) == w
    big = parse_window("[2]3 [4]1 [1]6 5 [1]4 [2]2", 5)
    assert big.beta == (3, 1, 6, 5, 4, 2)
    assert big.colors == (2, 4, 1, 0, 1, 2)
    assert big.window() == "[2]3 [4]1 [1]6 5 [1]4 [2]2"


def test_window_parse_errors_name_the_entry():
    with pytest.raises(WindowParseError, match="entry 2"):
        parse_window("1 x 3", 3)
    with pytest.raises(WindowParseError, match="entry 1"):
        parse_window("[3]1 2", 3)  # color exceeds m-1
    with pytest.raises(WindowParseError, match="entry 1"):
        parse_window("[0]1 2", 3)  # explicit zero color prefix not allowed
    with pytest.raises(WindowParseError, match="entry 3"):
        parse_window("1 2 5", 3)  # value out of range
    with pytest.raises(WindowParseError, match="more than once"):
        parse_window("1 1 3", 3)
    with pytest.raises(WindowParseError):
        parse_window("", 3)


def test_window_parse_names_the_first_repeated_value_in_linear_time():
    with pytest.raises(WindowParseError) as exc:
        parse_window("3 1 1 3", 3)
    assert str(exc.value) == "value 3 appears more than once"
    # the repeat comes last, so a count per entry would take seconds here
    text = " ".join(map(str, range(1, 20000))) + " 19999"
    start = time.perf_counter()
    with pytest.raises(WindowParseError) as exc:
        parse_window(text, 2)
    assert time.perf_counter() - start < 1.0
    assert str(exc.value) == "value 19999 appears more than once"


@pytest.mark.parametrize(
    "text,pos", [("[01]2 1", 1), ("02 1", 1), ("[1]2 01", 2), ("1 [02]2", 2), ("00 1", 1)]
)
def test_window_parse_rejects_leading_zeros(text, pos):
    with pytest.raises(WindowParseError, match=rf"entry {pos} \('.*'\) has a leading zero"):
        parse_window(text, 3)


@pytest.mark.parametrize(
    "limit", sorted({0, getattr(sys.int_info, "default_max_str_digits", 0)})
)
def test_window_parse_names_an_over_long_entry_by_digit_count(limit):
    # int() of 5000 digits raises ValueError at CPython's default limit
    digits = "1" * 5000
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    old = sys.get_int_max_str_digits() if set_limit else None
    if set_limit:
        set_limit(limit)
    try:
        for text, m, message in (
            (f"1 {digits}", 2, "entry 2: value of 5000 digits outside 1..2"),
            (f"[{digits}]1 2", 3, "entry 1: color of 5000 digits outside 1..2"),
        ):
            with pytest.raises(WindowParseError) as exc:
                parse_window(text, m)
            assert str(exc.value) == message
    finally:
        if set_limit:
            set_limit(old)


def test_element_validation():
    with pytest.raises(ValueError):
        GroupElement(3, 3, (1, 1, 2), (0, 0, 0))
    with pytest.raises(ValueError):
        GroupElement(3, 3, (1, 2, 3), (0, 3, 0))
    with pytest.raises(ValueError):
        GroupElement(3, 3, (1, 2, 3), (0, 0))


@st.composite
def elements(draw, max_m=5, max_n=6):
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, max_n))
    beta = tuple(draw(st.permutations(list(range(1, n + 1)))))
    colors = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    return GroupElement(m, n, beta, colors)


@given(elements())
def test_inverse_and_window_roundtrip_property(w):
    e = identity(w.m, w.n)
    assert multiply(inverse(w), w) == e
    assert multiply(w, inverse(w)) == e
    assert parse_window(w.window(), w.m) == w


@given(elements(max_n=300), st.data())
def test_multiply_and_inverse_compose_pointwise_property(u, data):
    m, n = u.m, u.n
    v = GroupElement(
        m,
        n,
        tuple(data.draw(st.permutations(range(1, n + 1)))),
        tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))),
    )
    # k -> u(v(k)) on colored values, position by position
    pointwise = GroupElement(
        m,
        n,
        tuple(u.beta[v.beta[k] - 1] for k in range(n)),
        tuple((v.colors[k] + u.colors[v.beta[k] - 1]) % m for k in range(n)),
    )
    assert multiply(u, v) == pointwise
    e = identity(m, n)
    assert multiply(inverse(u), u) == e
    assert multiply(u, inverse(u)) == e


@settings(max_examples=40, deadline=None)
@given(elements(max_n=300))
def test_canonical_length_is_the_word_metric_property(w):
    # l(e) = 0, each letter moves l by at most 1, and every w != e has a
    # letter that shortens it: together these define the word length
    m, n = w.m, w.n
    length = canonical_length(w)
    assert canonical_length(identity(m, n)) == 0
    gens = [gen_t(m, n, 1)] + [gen_s(m, n, i) for i in range(1, n)]
    for g in gens:
        assert canonical_length(multiply(w, g)) <= length + 1
    if w != identity(m, n):
        assert any(canonical_length(multiply(w, power(g, -1))) == length - 1 for g in gens)
    if m == 2:
        assert length_L(w) == length


@given(elements(), st.integers(0, 8), st.integers(0, 8))
def test_power_addition_property(w, a, b):
    assert power(w, a + b) == multiply(power(w, a), power(w, b))


def square_and_multiply_power(u, k):
    """Oracle: ``u`` to the ``k`` by repeated squaring of group products."""
    if k < 0:
        return square_and_multiply_power(inverse(u), -k)
    result = identity(u.m, u.n)
    base = u
    while k:
        if k & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        k >>= 1
    return result


@given(elements(max_n=200), st.integers(-10**6, 10**6))
def test_power_matches_square_and_multiply_property(w, k):
    assert power(w, k) == square_and_multiply_power(w, k)


@st.composite
def shaped_elements(draw, max_n=2000):
    """The identity, an identity permutation with random colors (all fixed
    points), one n-cycle, or a random element, at n up to ``max_n``."""
    m = draw(st.integers(1, 7))
    n = draw(st.integers(1, max_n) | st.sampled_from((1, 2, 3, 8)))
    rnd = draw(st.randoms(use_true_random=False))
    shape = draw(st.sampled_from(("identity", "fixed points", "one cycle", "random")))
    beta = list(range(1, n + 1))
    if shape == "one cycle":
        order = rnd.sample(beta, n)
        for a, b in zip(order, order[1:] + order[:1]):
            beta[a - 1] = b
    elif shape == "random":
        rnd.shuffle(beta)
    colors = [0 if shape == "identity" else rnd.randrange(m) for _ in range(n)]
    return GroupElement(m, n, tuple(beta), tuple(colors))


@settings(max_examples=60, deadline=None)
@given(shaped_elements(), st.data())
def test_power_matches_square_and_multiply_on_shaped_elements_property(w, data):
    # the length of the cycle through one position, and powers around it
    q = start = data.draw(st.integers(0, w.n - 1))
    ell = 0
    while True:
        q, ell = w.beta[q] - 1, ell + 1
        if q == start:
            break
    big = 10**18 + data.draw(st.integers(0, 100))
    k = data.draw(st.sampled_from((0, 1, -1, ell, -ell, ell + 1, -ell - 1, big, -big)))
    assert power(w, k) == square_and_multiply_power(w, k)


def test_parse_window_rejects_radix_zero_with_plain_value_error():
    with pytest.raises(ValueError) as exc:
        parse_window("1", 0)
    assert type(exc.value) is ValueError
    assert str(exc.value) == "need m >= 1 and n >= 1, got (0, 1)"


def assert_pool_ints(w):
    pool = _window(w.n)  # the pool's objects for 1..n, in order
    assert all(v is pool[v - 1] for v in w.beta), w.window()


def test_library_built_windows_share_the_pools_ints():
    # values past 256 are fresh objects unless they come from the pool
    m, n = 3, 600
    rng = random.Random(600)
    order = group_order(m, n)
    # f(i) = i at every third i swaps nothing there, which leaves fixed points
    digits = [m * (i if i % 3 == 0 else rng.randrange(i + 1)) + rng.randrange(m) for i in range(n)]
    u = element_of_digits(MixedRadixNumber(m, digits))
    fixed = [q for q in range(n) if u.beta[q] == q + 1]
    assert fixed and len(fixed) < n
    q, ell = u.beta[0] - 1, 1  # the cycle through position 1
    while q != 0:
        q, ell = u.beta[q] - 1, ell + 1
    assert ell > 1
    built = [
        u,
        unrank(rng.randrange(1, order + 1), m, n),
        element_of_integer(rng.randrange(order), m, n),
        inverse(u),
        phi(u),
        identity(m, n),
        *(power(u, k) for k in (-1, 0, 1, 7, 3 * ell, -ell)),
    ]
    for w in built:
        assert_pool_ints(w)
    # a rebound, longer pool keeps the objects of the windows built before it
    _window(len(gsg.group_core._pool) + 1)
    after = unrank(1, m, n)
    assert all(a is b for a, b in zip(after.beta, identity(m, n).beta))
    for w in built:
        assert_pool_ints(w)


def fresh_ints(values):
    """New int objects equal to ``values``; past 256 none is CPython's shared one."""
    return [int(str(v)) for v in values]


def test_checked_constructor_and_parse_window_take_the_pools_ints():
    m, n = 3, 300
    rng = random.Random(300)
    beta = fresh_ints(rng.sample(range(1, n + 1), n))
    colors = tuple(rng.randrange(m) for _ in range(n))
    pool = _window(n)
    assert any(b is not pool[b - 1] for b in beta)
    w = GroupElement(m, n, beta, colors)
    parsed = parse_window(w.window(), m)
    assert parsed == w
    # an element holding its own ints: copies and pickles rebuild through the constructor
    own = GroupElement._unchecked(m, n, tuple(fresh_ints(w.beta)), w.colors)
    copies = [copy.copy(own), copy.deepcopy(own), pickle.loads(pickle.dumps(own))]
    assert copies == [w] * 3
    for built in (w, parsed, *copies):
        assert_pool_ints(built)


def test_built_elements_retain_no_ints_of_their_own():
    # two tuples of 2000 pointers are about 32 KB; 1744 own ints would add 55 KB
    m, n = 2, 2000
    rng = random.Random(2000)
    xs = [rng.randrange(group_order(m, n)) for _ in range(20)]
    ws = [element_of_integer(x, m, n) for x in xs]  # the pool reaches n before the trace
    texts = [w.window() for w in ws]
    builds = {
        "element_of_integer": lambda i: element_of_integer(xs[i], m, n),
        # the caller's fresh ints are dropped once the element is built
        "GroupElement": lambda i: GroupElement(m, n, fresh_ints(ws[i].beta), ws[i].colors),
        "parse_window": lambda i: parse_window(texts[i], m),
    }
    for name, build in builds.items():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kept = [build(i) for i in range(len(xs))]
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept == ws
        assert retained / len(kept) < 40_000, name


def test_pool_grows_race_free_under_threads(monkeypatch):
    # four threads grow one pool from empty in small steps, with a short
    # switch interval so that their rebinds interleave
    monkeypatch.setattr(gsg.group_core, "_pool", ())
    errors = []

    def grow(offset):
        for n in range(1 + offset, 1500, 4):
            if _window(n) != list(range(1, n + 1)):
                errors.append(n)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=grow, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    pool = gsg.group_core._pool
    assert list(pool) == list(range(1, len(pool) + 1))


REFUSED_DIMS = "need m >= 1 and n >= 1, got (0, 100000)"
REFUSED_BUILDS = {
    "identity": (lambda: identity(0, 10**5), REFUSED_DIMS),
    "gen_s": (lambda: gen_s(0, 10**5, 1), REFUSED_DIMS),
    "gen_t": (lambda: gen_t(0, 10**5, 1), REFUSED_DIMS),
    "longest_element": (lambda: longest_element(0, 10**5), REFUSED_DIMS),
    "GroupElement-length": (
        lambda: GroupElement(1, 10**5, (1,), (0,)), "(1,) is not a permutation of 1..100000"
    ),
    "GroupElement-zero": (
        lambda: GroupElement(1, 3, (0, 1, 2), (0, 0, 0)), "(0, 1, 2) is not a permutation of 1..3"
    ),
    # pool[-2] is 2: a window test that only looked for 0 would store (2, 2, 3)
    "GroupElement-negative": (
        lambda: GroupElement(1, 3, (-1, 2, 3), (0, 0, 0)),
        "(-1, 2, 3) is not a permutation of 1..3",
    ),
    "GroupElement-past-n": (
        lambda: GroupElement(1, 3, (1, 2, 4), (0, 0, 0)), "(1, 2, 4) is not a permutation of 1..3"
    ),
    "GroupElement-not-a-permutation": (
        lambda: GroupElement(1, 3, (1, 3, 1), (0, 0, 0)),
        "(1, 3, 1) is not a permutation of 1..3",
    ),
    "GroupElement-color": (
        lambda: GroupElement(2, 3, (1, 2, 3), (0, 2, 0)), "color 2 outside 0..1"
    ),
    "parse_window-duplicate": (
        lambda: parse_window("1 3 1", 1), "value 1 appears more than once"
    ),
    "parse_window-out-of-range": (
        lambda: parse_window("1 4 2", 1), "entry 2: value 4 outside 1..3"
    ),
}


@pytest.mark.parametrize("build, message", REFUSED_BUILDS.values(), ids=REFUSED_BUILDS)
def test_a_refused_build_leaves_the_pool_alone(monkeypatch, build, message):
    # every check runs before the pool grows: a refused 10^5 leaves no ints behind
    monkeypatch.setattr(gsg.group_core, "_pool", ())
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
    assert len(gsg.group_core._pool) == 0


@st.composite
def near_windows(draw, max_n=12):
    """``(m, n, beta, colors)``: a permutation of 1..n with up to three edits.
    An edit sets an entry to 0, a negative, n + 1, a bool or another entry's
    value, or drops an entry, or adds one."""
    m, n = draw(st.integers(1, 3)), draw(st.integers(1, max_n))
    beta = draw(st.permutations(range(1, n + 1)))
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("set", "drop", "add")))
        value = draw(st.sampled_from((0, n + 1, True, False, *beta)) | st.integers(-n - 2, -1))
        if edit == "add" or not beta:
            beta.insert(draw(st.integers(0, len(beta))), value)
        elif edit == "drop":
            del beta[draw(st.integers(0, len(beta) - 1))]
        else:
            beta[draw(st.integers(0, len(beta) - 1))] = value
    colors = tuple(draw(st.integers(0, m - 1)) for _ in range(n))
    return m, n, tuple(beta), colors


@settings(max_examples=400, derandomize=True, deadline=None)
@given(near_windows())
def test_checked_constructor_accepts_exactly_the_permutations_property(case):
    m, n, beta, colors = case
    values = tuple(map(index, beta))  # a bool is the int 0 or 1
    # the oracle: the sorting test the constructor used before its linear one
    if len(values) == n and sorted(values) == list(range(1, n + 1)):
        w = GroupElement(m, n, beta, colors)
        assert w.beta == values and w.colors == colors
        assert_pool_ints(w)
    else:
        with pytest.raises(ValueError) as exc:
            GroupElement(m, n, beta, colors)
        assert type(exc.value) is ValueError
        assert str(exc.value) == f"{values} is not a permutation of 1..{n}"
