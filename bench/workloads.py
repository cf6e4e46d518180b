"""Seeded request lists for the in-process workloads, with their answer checks.

Every request is a closed-loop call into gsg: ``call(steps)`` is the timed
part and ``check(result)`` the untimed answer check.  gsg's functions are
looked up through the ``gsg`` package at call time, so the tracer's
wrappers see every call the benchmark makes.

A pass is a fixed multiset of requests in a seeded order; the same seed
gives the same pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import gsg as G
import gsg.verify

import oracles

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_CSV = ROOT / "tests" / "data" / "table_3_3_golden.csv"

RADICES = (1, 2, 5)

# element_large: per round, (request kind, n, radices, count per radix).
# The counts put the median among the 9-15 ms n=2000 requests.  The largest
# sizes run at m = 2 only, so the 95th percentile lands inside the run of
# twelve m=2 stats at n=100, not on the edge between two request classes.
ELEMENT_ROUND = (
    ("codec", 500, RADICES, 7),
    ("codec", 2000, RADICES, 4),
    ("arith", 2000, RADICES, 4),
    ("rank", 100, RADICES, 4),
    ("stats", 50, RADICES, 2),
    ("rank", 500, (2,), 1),
    ("stats", 100, (2,), 4),
)
ELEMENT_ROUNDS = 3  # 3 rounds x 68 requests = 204 per pass
GROWTH_RADIX = 2  # the radix every kind runs at both of its sizes

# group_sweep: every job on the groups up to |G| = 384 repeats each round.
# The two largest groups get the linear-time jobs once per pass; their
# verify and fmaj/L histograms (5 s together) would leave room for too few
# passes to time each request best-of-passes.
REPEATED_GROUPS = ((2, 3), (3, 3), (1, 5), (4, 3), (2, 4))
LARGE_GROUPS = ((3, 4), (2, 5))
# The G(3,1,3) table, checked against the golden CSV, runs this many times
# per round.  Its copies fill the middle of the latency distribution, so the
# median lands inside one job's run of values, not on the edge between two.
GOLDEN_TABLES = 6
SWEEP_ROUNDS = 7  # 7 rounds x 34 jobs + 6 large-group jobs = 244 per pass


@dataclass
class Request:
    kind: str
    label: str
    call: Callable[[dict], object]
    check: Callable[[object], bool]
    probe: bool = False  # a known-defect probe: its failure is expected at seed
    m: int = 0
    n: int = 0


def _timed(steps: dict, name: str, fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    steps[name] = perf_counter() - t0
    return out


def random_window(rng: random.Random, m: int, n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    beta = list(range(1, n + 1))
    rng.shuffle(beta)
    return tuple(beta), tuple(rng.randrange(m) for _ in range(n))


def window_text(beta, colors) -> str:
    return " ".join(f"[{c}]{b}" if c else str(b) for b, c in zip(beta, colors))


# ---------------------------------------------------------------- element_large


def _codec(w) -> Request:
    m, n = w.m, w.n

    def call(steps):
        return G.element_of_integer(G.integer_of_element(w), m, n)

    return Request("codec", f"codec m={m} n={n}", call, lambda out: out == w, m=m, n=n)


def _rank(text: str, m: int, n: int) -> Request:
    def call(steps):
        w = G.parse_window(text, m)
        r = _timed(steps, "rank", G.rank, w)
        return _timed(steps, "unrank", G.unrank, r, m, n).window()

    return Request("rank", f"rank m={m} n={n}", call, lambda out: out == text, m=m, n=n)


def _arith(u, v, k: int) -> Request:
    m, n = u.m, u.n
    want_product = oracles.compose(u.beta, u.colors, v.beta, v.colors, m)
    want_power = oracles.power(u.beta, u.colors, m, k)

    def call(steps):
        return G.multiply(u, v), G.inverse(u), G.power(u, k)

    def check(out):
        product, inv, pk = out
        e = G.identity(m, n)
        return (
            (product.beta, product.colors) == want_product
            and (pk.beta, pk.colors) == want_power
            and G.multiply(u, inv) == e
            and G.multiply(inv, u) == e
        )

    return Request("arith", f"arith m={m} n={n}", call, check, m=m, n=n)


def _stats(w) -> Request:
    m, n = w.m, w.n
    want_fmaj = oracles.fmaj(w.beta, w.colors, m)

    def call(steps):
        table = G.inversion_table(w)
        length = G.length_L(w) if m >= 2 else None
        return table, length, _timed(steps, "fmaj", G.fmaj, w)

    def check(out):
        table, length, f = out
        if length is None:  # m = 1 has no root system: L is the Coxeter length
            length = oracles.inversions(w.beta)
        return sum(table.entries) == length and f == want_fmaj

    return Request("stats", f"stats m={m} n={n}", call, check, m=m, n=n)


def _element_request(rng: random.Random, kind: str, m: int, n: int) -> Request:
    beta, colors = random_window(rng, m, n)
    w = G.GroupElement(m, n, beta, colors)
    if kind == "codec":
        return _codec(w)
    if kind == "rank":
        return _rank(window_text(beta, colors), m, n)
    if kind == "arith":
        v = G.GroupElement(m, n, *random_window(rng, m, n))
        return _arith(w, v, rng.randrange(2, 1000))
    return _stats(w)


def element_large(seed: int) -> list[Request]:
    rng = random.Random(f"element_large:{seed}")
    out = [
        _element_request(rng, kind, m, n)
        for _ in range(ELEMENT_ROUNDS)
        for kind, n, radices, count in ELEMENT_ROUND
        for m in radices
        for _ in range(count)
    ]
    rng.shuffle(out)
    return out


def element_warm_up(seed: int) -> list[Request]:
    rng = random.Random(f"element_large:warm-up:{seed}")
    return [
        _element_request(rng, kind, m, 8)
        for m in RADICES
        for kind in ("codec", "rank", "arith", "stats")
    ]


# ---------------------------------------------------------------- group_sweep


def golden_rows() -> list[str]:
    return GOLDEN_CSV.read_text().splitlines()


def table_rows_ok(rows: list[str], m: int, n: int, golden: list[str]) -> bool:
    """The G(3,1,3) table equals the golden CSV; any other table has every
    window once and each row's inversion table decodes to its rank - 1."""
    if (m, n) == (3, 3):
        return rows == golden
    order = G.group_order(m, n)
    if len(rows) != order or len({row.split(",")[1] for row in rows}) != order:
        return False
    for row in rows:
        r, _, table = row.split(",")
        digits = [int(d) for d in reversed(table.split(":"))]
        if oracles.mixed_radix_value(digits, m) != int(r) - 1:
            return False
    return True


def _table(m: int, n: int, golden: list[str]) -> Request:
    def call(steps):
        rows = []
        for r in range(1, G.group_order(m, n) + 1):
            w = G.unrank(r, m, n)
            rows.append(f"{r},{w.window()},{G.inversion_table(w)}")
        return rows

    return Request("table", f"table m={m} n={n}", call, lambda rows: table_rows_ok(rows, m, n, golden))


def _histogram(statistic: str, m: int, n: int) -> Request:
    want = oracles.poincare(m, n)

    def call(steps):
        return G.histogram(statistic, m, n)

    return Request(
        "histogram", f"histogram {statistic} m={m} n={n}", call,
        lambda out: out.coeffs == want,
    )


def _verify(m: int, n: int) -> Request:
    def call(steps):
        return gsg.verify.run_property_checks(m, n)

    return Request(
        "verify", f"verify m={m} n={n}", call,
        lambda out: bool(out) and all(ok for _, ok in out),
    )


def _bfs(rng: random.Random, m: int, n: int) -> Request:
    # A seeded element of word length n(n-1)/2: the search stops at the
    # element's length, so a fixed length keeps its cost the same for
    # every seed.
    want = n * (n - 1) // 2
    beta, colors = random_window(rng, m, n)
    while oracles.word_length(beta, colors) != want:
        beta, colors = random_window(rng, m, n)
    w = G.GroupElement(m, n, beta, colors)

    def call(steps):
        return G.canonical_length(w)

    return Request("bfs", f"bfs m={m} n={n}", call, lambda out: out == want)


def _group_jobs(rng: random.Random, m: int, n: int, golden: list[str]) -> list[Request]:
    stats = ("inv", "fmaj", "L") if m >= 2 else ("inv", "fmaj")
    return (
        [_table(m, n, golden)]
        + [_histogram(s, m, n) for s in stats]
        + [_verify(m, n), _bfs(rng, m, n)]
    )


def _large_group_jobs(rng: random.Random, m: int, n: int, golden: list[str]) -> list[Request]:
    return [_table(m, n, golden), _histogram("inv", m, n), _bfs(rng, m, n)]


def group_sweep(seed: int) -> list[Request]:
    rng = random.Random(f"group_sweep:{seed}")
    golden = golden_rows()
    out = [job for m, n in LARGE_GROUPS for job in _large_group_jobs(rng, m, n, golden)]
    for _ in range(SWEEP_ROUNDS):
        for m, n in REPEATED_GROUPS:
            out += _group_jobs(rng, m, n, golden)
        out += [_table(3, 3, golden) for _ in range(GOLDEN_TABLES - 1)]
    rng.shuffle(out)
    return out


def sweep_warm_up(seed: int) -> list[Request]:
    rng = random.Random(f"group_sweep:warm-up:{seed}")
    return _group_jobs(rng, 2, 3, golden_rows())
