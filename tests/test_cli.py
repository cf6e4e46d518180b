"""CLI integration tests: output formats, round-trips, exit codes."""

import argparse
import json
import sys
import time
from math import factorial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gsg.cli
import gsg.statistics
import gsg.verify
from gsg.cli import main
from gsg.errors import BudgetExceeded
from gsg.group_core import (
    GroupElement,
    enumerate_group,
    gen_s,
    gen_t,
    group_order,
    multiply,
    parse_window,
)
from gsg.mixed_radix import _QUOTED, MixedRadixNumber, _decimal, decode, encode
from gsg.statistics import _inversions, inversion_table, unrank
from gsg.subexceedant import integer_of_element
from gsg.verify import run_property_checks

from test_acceptance import GOLDEN, PANGRAM, PANGRAM_DIGITS, PANGRAM_INT


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_convert(capsys):
    assert run(capsys, "convert", "--m", "7", "--to-digits", "199761")[:2] == (
        0,
        "3:13:1:5:2\n",
    )
    assert run(capsys, "convert", "--m", "7", "--to-int", "3:13:1:5:2")[:2] == (
        0,
        "199761\n",
    )
    assert run(capsys, "convert", "--m", "3", "--to-digits", "0")[:2] == (0, "0\n")


def test_element(capsys):
    assert run(capsys, "element", "encode", "--m", "3", "--n", "5", "2161")[:2] == (
        0,
        "[1]3 4 2 [1]5 [1]1\n",
    )
    assert run(capsys, "element", "decode", "--m", "3", "[1]3 4 2 [1]5 [1]1")[:2] == (
        0,
        "2161\n",
    )
    # zero integer: all-zero digits, i.e. the full rotation cycle
    assert run(capsys, "element", "encode", "--m", "3", "--n", "3", "0")[:2] == (
        0,
        "2 3 1\n",
    )


def test_rank_unrank(capsys):
    w = "[2]3 [4]1 [1]6 5 [1]4 [2]2"
    assert run(capsys, "rank", "--m", "5", w)[:2] == (0, "4321328\n")
    assert run(capsys, "unrank", "--m", "5", "--n", "6", "4321328")[:2] == (0, w + "\n")
    assert run(capsys, "unrank", "--m", "3", "--n", "3", "1")[:2] == (0, "1 2 3\n")


# each whole stdout line; the word length of the all-colored G(2,1,7) (645,120
# elements) and of G(2,1,8), past the sweeping commands' default budget (stats
# takes none), and of the radix-3 element where it falls below L
STATS_PINS = [
    (
        ["--m", "5", "[2]3 [4]1 [1]6 5 [1]4 [2]2"],
        '{"inv_table": "11:13:1:11:5:2", "L": 43, "fmaj": 60, "fmaj_exponents": [2, 7, 2, 15,'
        ' 18, 16], "rank": 4321328, "subexceedant_digits": "7:16:15:6:4:2", "integer_rep":'
        " 2876572}",
    ),
    (
        ["--m", "2", "--bfs", "[1]1 [1]2 [1]3 [1]4 [1]5 [1]6 [1]7"],
        '{"inv_table": "13:11:9:7:5:3:1", "L": 49, "fmaj": 7, "fmaj_exponents": [0, 0, 0, 0, 0,'
        ' 0, 7], "rank": 645120, "subexceedant_digits": "13:11:9:7:5:3:1", "integer_rep":'
        ' 645119, "canonical_length": 49}',
    ),
    (
        ["--m", "2", "--bfs", "[1]1 [1]2 [1]3 [1]4 [1]5 [1]6 [1]7 [1]8"],
        '{"inv_table": "15:13:11:9:7:5:3:1", "L": 64, "fmaj": 8, "fmaj_exponents": [0, 0, 0, 0,'
        ' 0, 0, 0, 8], "rank": 10321920, "subexceedant_digits": "15:13:11:9:7:5:3:1",'
        ' "integer_rep": 10321919, "canonical_length": 64}',
    ),
    (
        ["--m", "3", "--bfs", "1 [1]2 3"],
        '{"inv_table": "0:4:0", "L": 4, "fmaj": 4, "fmaj_exponents": [2, 2, 0], "rank": 13,'
        ' "subexceedant_digits": "6:4:0", "integer_rep": 120, "canonical_length": 3}',
    ),
]


def test_stats(capsys):
    for argv, expected in STATS_PINS:
        assert run(capsys, "stats", *argv)[:2] == (0, expected + "\n"), argv

    code, out, _ = run(capsys, "stats", "--m", "3", "1 2 3")
    payload = json.loads(out)
    assert (payload["L"], payload["fmaj"], payload["rank"]) == (0, 0, 1)


def test_stats_reads_each_value_from_its_function(capsys, monkeypatch):
    # a distinct sentinel per statistic: the JSON shows it only if stats calls that function
    for name, value in [("length_L", -1), ("fmaj", -2), ("rank", -3), ("integer_of_element", -4)]:
        monkeypatch.setattr(gsg.cli, name, lambda w, value=value: value)
    code, out, _ = run(capsys, "stats", "--m", "3", "--bfs", "1 [1]2 3")
    payload = json.loads(out)
    assert code == 0
    assert [payload[key] for key in ("L", "fmaj", "rank", "integer_rep")] == [-1, -2, -3, -4]


# capsys is read out after every command, so sharing it across examples is safe
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.integers(1, 5), st.integers(1, 60), st.data())
def test_stats_rank_and_integer_rep_property(capsys, m, n, data):
    beta = data.draw(st.permutations(range(1, n + 1)))
    colors = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    w = GroupElement(m, n, tuple(beta), tuple(colors))
    code, out, err = run(capsys, "stats", "--m", str(m), w.window())
    assert (code, err) == (0, "")
    payload = json.loads(out)
    # the i-inversion numbers in position order, least significant digit first
    assert payload["rank"] == decode(MixedRadixNumber(m, tuple(_inversions(w)))) + 1
    assert payload["integer_rep"] == integer_of_element(w)


def test_table_matches_golden_file(capsys):
    code, out, _ = run(capsys, "table", "--m", "3", "--n", "3", "--format", "csv")
    assert code == 0
    assert out == GOLDEN.read_text()
    rows = out.splitlines()
    assert len(rows) == 162
    assert rows[0] == "1,1 2 3,0:0:0"
    assert rows[26] == "27,[2]3 [1]1 2,1:2:2"
    assert rows[161] == "162,[2]1 [2]2 [2]3,8:5:2"


def test_table_json(capsys):
    code, out, _ = run(capsys, "table", "--m", "2", "--n", "2", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 8
    assert rows[0] == {"rank": 1, "window": "1 2", "inv_table": "0:0"}


# G(11,1,1) has two-digit colours, G(1,1,5) none
JSON_GROUPS = [(2, 3), (1, 5), (11, 1), (5, 2), (3, 3), (2, 4)]


@pytest.mark.parametrize("m,n", JSON_GROUPS, ids=[f"G({m},1,{n})" for m, n in JSON_GROUPS])
def test_table_json_streams_the_bytes_of_one_dump(capsys, m, n):
    code, out, _ = run(capsys, "table", "--m", str(m), "--n", str(n), "--format", "json")
    assert code == 0
    ws = [unrank(r, m, n) for r in range(1, group_order(m, n) + 1)]
    rows = [
        {"rank": r, "window": w.window(), "inv_table": str(inversion_table(w))}
        for r, w in enumerate(ws, 1)
    ]
    assert out == json.dumps(rows) + "\n"


def test_poincare(capsys):
    assert run(capsys, "poincare", "--m", "2", "--n", "2")[:2] == (0, "1,2,2,2,1\n")
    code, out, _ = run(capsys, "poincare", "--m", "3", "--n", "3")
    coeffs = [int(c) for c in out.strip().split(",")]
    assert len(coeffs) == 16 and sum(coeffs) == 162


def test_poincare_budget_exit_4(capsys):
    # G(2,1,2): degree 4, so 2 * 5 = 10 coefficient updates
    assert run(capsys, "poincare", "--m", "2", "--n", "2", "--budget", "10")[:2] == (
        0,
        "1,2,2,2,1\n",
    )
    code, out, err = run(capsys, "poincare", "--m", "2", "--n", "2", "--budget", "9")
    assert code == 4
    assert out == "" and err == "error: 10 coefficient updates for G(2,1,2) exceed budget 9\n"
    # checked before any work: this product would not finish
    code, out, _ = run(capsys, "poincare", "--m", "2", "--n", "1000000", "--budget", "10")
    assert code == 4 and out == ""


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify", "--m", "3", "--n", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines and all(line.startswith("PASS") for line in lines)


VERIFY_3_3 = """\
PASS presentation relations
PASS oracle agreement
PASS inverse law
PASS rank bijection
PASS equidistribution inv/fmaj/poincare
PASS length additivity
"""

# every group prints the same six lines; at m = 1 the roots are the symmetric
# group's type-A set. G(4,1,3) and G(2,1,4) set group_sweep's p95, and
# G(3,1,4) sweeps 1,944 elements in eight chunks
VERIFY_GROUPS = [(3, 3), (1, 4), (2, 3), (4, 3), (2, 4), (3, 4), (1, 5)]


@pytest.mark.parametrize("m,n", VERIFY_GROUPS, ids=[f"{m}-{n}" for m, n in VERIFY_GROUPS])
def test_verify_exact_output(capsys, m, n):
    assert run(capsys, "verify", "--m", str(m), "--n", str(n))[:2] == (0, VERIFY_3_3)


def test_verify_checks_budget_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("group arithmetic ran before the budget check")

    monkeypatch.setattr(gsg.verify, "multiply", no_work)
    monkeypatch.setattr(gsg.verify, "power", no_work)
    with pytest.raises(BudgetExceeded):
        run_property_checks(2, 60, budget=10)


def test_verify_failure_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(
        "gsg.verify.run_property_checks",
        lambda m, n, budget: [("forced", False)],
    )
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "2")
    assert code == 1
    assert "FAIL forced" in out


# one element per chunk, a size that divides no group order swept here, and the default
CHUNK_SIZES = (1, 7, gsg.verify._CHUNK)


def assert_only_check_fails(name, m=3, n=3):
    for size in CHUNK_SIZES:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gsg.verify, "_CHUNK", size)
            results = dict(run_property_checks(m, n))
        assert results.pop(name) is False, size
        assert all(results.values()), (size, results)


def patch_inversion_table(monkeypatch, target, change):
    """Make ``gsg.verify.inversion_table`` return ``change(entries)`` for ``target``."""
    real = gsg.verify.inversion_table

    def patched(w):
        t = real(w)
        # unchecked: a changed entry may break its digit bound on purpose
        return MixedRadixNumber._unchecked(t.m, change(t.entries)[::-1]) if w == target else t

    monkeypatch.setattr(gsg.verify, "inversion_table", patched)


# the root checks run at every m; at m = 1 the roots are the type-A set
ROOT_CHECK_TARGETS = [(3, 3, "[2]3 [1]1 2"), (1, 5, "3 1 5 2 4")]


def test_verify_oracle_agreement_catches_one_wrong_inversion_number():
    for m, n, window in ROOT_CHECK_TARGETS:
        with pytest.MonkeyPatch.context() as patch:
            target = parse_window(window, m)
            patch_inversion_table(patch, target, lambda e: (e[0] + 1,) + e[1:])
            assert_only_check_fails("oracle agreement", m, n)


def test_verify_oracle_agreement_catches_a_reordered_inversion_table():
    # reversed, the entries keep their sum, so only the entry-by-entry check sees it
    for (m, n, window), entries in zip(ROOT_CHECK_TARGETS, [(1, 2, 2), (1, 2, 0, 1, 0)]):
        with pytest.MonkeyPatch.context() as patch:
            target = parse_window(window, m)
            assert inversion_table(target).entries == entries
            patch_inversion_table(patch, target, lambda e: e[::-1])
            assert_only_check_fails("oracle agreement", m, n)


def test_verify_length_additivity_catches_one_wrong_length():
    real = gsg.verify.length_L
    for m, n, window in ROOT_CHECK_TARGETS:
        with pytest.MonkeyPatch.context() as patch:
            target = parse_window(window, m)
            patch.setattr(gsg.verify, "length_L", lambda w: real(w) + (w == target))
            assert_only_check_fails("length additivity", m, n)


def test_verify_inverse_law_catches_one_wrong_inverse(monkeypatch):
    real, target = gsg.verify.inverse, parse_window("[2]3 [1]1 2", 3)
    # target is a 3-cycle, so it is not its own inverse
    monkeypatch.setattr(gsg.verify, "inverse", lambda w: w if w == target else real(w))
    assert_only_check_fails("inverse law")


def test_verify_rank_bijection_catches_one_wrong_unrank(monkeypatch):
    real = gsg.verify.unrank
    monkeypatch.setattr(
        gsg.verify, "unrank", lambda r, m, n: real(6 if r == 5 else r, m, n)
    )
    assert_only_check_fails("rank bijection")


def test_verify_equidistribution_catches_one_wrong_fmaj(monkeypatch):
    real, target = gsg.verify.fmaj, parse_window("[2]3 [1]1 2", 3)
    monkeypatch.setattr(gsg.verify, "fmaj", lambda w: real(w) + (w == target))
    assert_only_check_fails("equidistribution inv/fmaj/poincare")


# target has rank 27: 26 repeats another element's rank, 0 and 163 lie outside 1..162
@pytest.mark.parametrize("wrong", [26, 0, 163])
def test_verify_rank_bijection_catches_one_wrong_rank(monkeypatch, wrong):
    real, target = gsg.verify.rank, parse_window("[2]3 [1]1 2", 3)
    monkeypatch.setattr(gsg.verify, "rank", lambda w: wrong if w == target else real(w))
    assert_only_check_fails("rank bijection")


def test_verify_catches_one_fault_in_the_last_chunk(monkeypatch):
    target = parse_window("[1]4 [2]3 2 [1]1", 3)
    elements = list(enumerate_group(3, 4))
    last_chunk = (len(elements) - 1) // gsg.verify._CHUNK * gsg.verify._CHUNK
    assert elements.index(target) >= last_chunk > 0
    patch_inversion_table(monkeypatch, target, lambda e: e[:1] + (e[1] + 1,) + e[2:])
    assert_only_check_fails("oracle agreement", 3, 4)


@pytest.mark.parametrize("m,n", [(1, 4), (2, 3), (3, 3), (2, 4)])
def test_verify_results_do_not_depend_on_the_chunk_size(monkeypatch, m, n):
    expected = run_property_checks(m, n)
    assert all(ok for _, ok in expected)
    order = group_order(m, n)
    for size in (1, 2, 7, order - 1, order, order + 1):
        monkeypatch.setattr(gsg.verify, "_CHUNK", size)
        assert run_property_checks(m, n) == expected, size


S = {i: gen_s(3, 4, i) for i in range(1, 4)}
T = {i: gen_t(3, 4, i) for i in range(1, 5)}

# one product from each family of defining relations of G(3,1,4);
# n = 4 is the least n with an (s_i s_j)^2 relation
PRESENTATION_PRODUCTS = {
    "s_i^2": ("power", (S[2], 2)),
    "(s_i s_i+1)^3": ("power", (multiply(S[1], S[2]), 3)),
    "(s_i s_j)^2": ("power", (multiply(S[1], S[3]), 2)),
    "t_i^m": ("power", (T[1], 3)),
    "t_i t_j": ("multiply", (T[1], T[3])),
    "s_i t_i s_i": ("multiply", (S[2], T[2])),
    "s_i t_j": ("multiply", (S[1], T[3])),
}


@pytest.mark.parametrize(
    "function,args", PRESENTATION_PRODUCTS.values(), ids=PRESENTATION_PRODUCTS.keys()
)
def test_verify_presentation_catches_one_wrong_product(monkeypatch, function, args):
    real = getattr(gsg.verify, function)
    # that one product comes out as its first factor
    monkeypatch.setattr(gsg.verify, function, lambda *a: a[0] if a == args else real(*a))
    assert_only_check_fails("presentation relations", 3, 4)


def test_verify_enumerates_the_group_once(monkeypatch):
    real, calls = gsg.verify.enumerate_group, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(gsg.verify, "enumerate_group", counting)
    assert all(ok for _, ok in run_property_checks(3, 3))
    assert len(calls) == 1
    # the equidistribution check fills its histograms in the same pass, with no sweep of its own
    assert not hasattr(gsg.verify, "histogram")
    assert "histogram" not in run_property_checks.__code__.co_names


@pytest.mark.parametrize("m,n,passes", [(3, 3, 3), (2, 4, 3), (1, 5, 3)])
def test_verify_makes_few_inversion_passes_per_element(monkeypatch, m, n, passes):
    # rank, inversion_table and length_L make one each; the inv tally sums
    # the block root counts
    real, calls = gsg.statistics._inversions, []

    def counting(w):
        calls.append(w)
        return real(w)

    monkeypatch.setattr(gsg.statistics, "_inversions", counting)
    assert all(ok for _, ok in run_property_checks(m, n))
    assert len(calls) == passes * group_order(m, n)


def count_calls(patch, names):
    """Count the calls through each of ``names`` in ``gsg.verify``."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counting(*args, name=name, real=getattr(gsg.verify, name)):
            calls[name] += 1
            return real(*args)

        patch.setattr(gsg.verify, name, counting)
    return calls


@pytest.mark.parametrize("m,n", [(3, 3), (2, 4)])
def test_verify_computes_each_column_once_per_element(m, n):
    order = group_order(m, n)
    with pytest.MonkeyPatch.context() as patch:
        presentation = count_calls(patch, ["multiply"])
        assert gsg.verify._check_presentation(m, n)
    per_element = ["inverse", "rank", "unrank", "inversion_table", "length_L", "fmaj"]
    with pytest.MonkeyPatch.context() as patch:
        calls = count_calls(patch, per_element + ["_negatives", "multiply"])
        assert all(ok for _, ok in run_property_checks(m, n))
    assert calls == {
        **dict.fromkeys(per_element, order),
        "_negatives": n * order,
        "multiply": 2 * order + presentation["multiply"],
    }


def test_verify_tally_stays_right_after_both_root_checks_fail(monkeypatch):
    # the first element is wrong in inversion_table and length_L alike; the
    # inv tally reads the block root counts, which stay right in every chunk
    target = next(enumerate_group(3, 3))
    real_table, real_length = gsg.verify.inversion_table, gsg.verify.length_L
    assert real_table(target).digits[0] == 0
    wrong = MixedRadixNumber._unchecked(3, (1,) + real_table(target).digits[1:])
    monkeypatch.setattr(
        gsg.verify, "inversion_table", lambda w: wrong if w == target else real_table(w)
    )
    monkeypatch.setattr(gsg.verify, "length_L", lambda w: real_length(w) + (w == target))
    for size in CHUNK_SIZES:
        monkeypatch.setattr(gsg.verify, "_CHUNK", size)
        results = dict(run_property_checks(3, 3))
        assert not results.pop("oracle agreement") and not results.pop("length additivity"), size
        assert all(results.values()), (size, results)


def test_text_encode(capsys):
    code, out, _ = run(capsys, "text-encode", "--m", "7", PANGRAM)
    assert code == 0
    integer, digits, count = out.splitlines()
    assert integer == str(PANGRAM_INT)
    assert digits == PANGRAM_DIGITS
    assert count == "42"

    code, out, _ = run(capsys, "text-encode", "--m", "7", "T")
    assert out.splitlines() == ["84", "12:0", "2"]

    code, out, _ = run(capsys, "text-encode", "--m", "2", "A")
    assert out.splitlines() == ["65", "1:2:0:1", "4"]


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "convert", "--m", "7", "--to-int", "99:0")
    assert code == 2 and "99" in err
    code, _, err = run(capsys, "rank", "--m", "3", "1 x 3")
    assert code == 2 and "entry 2" in err
    code, _, err = run(capsys, "text-encode", "--m", "7", "")
    assert code == 2
    code, _, err = run(capsys, "text-encode", "--m", "7", "café")
    assert code == 2
    code, _, err = run(capsys, "convert", "--m", "7", "--to-digits", "-3")
    assert code == 2
    code, _, err = run(capsys, "convert", "--m", "0", "--to-digits", "5")
    assert code == 2 and "--m" in err
    code, _, err = run(capsys, "unrank", "--m", "3", "--n", "0", "1")
    assert code == 2 and "--n" in err
    code, _, err = run(capsys, "element", "encode", "--m", "3", "--n", "3", "--", "-7")
    assert code == 2


# every command form with its shared options, each at a valid value
COMMAND_FORMS = [
    ("convert", {"--m": "3"}, ["--to-digits", "5"]),
    ("element encode", {"--m": "3", "--n": "3"}, ["7"]),
    ("element decode", {"--m": "3"}, ["2 1"]),
    ("rank", {"--m": "3"}, ["2 1"]),
    ("unrank", {"--m": "3", "--n": "3"}, ["1"]),
    ("stats", {"--m": "3"}, ["2 1"]),
    ("stats --bfs", {"--m": "3"}, ["2 1"]),
    ("table", {"--m": "3", "--n": "2", "--budget": "100"}, []),
    ("poincare", {"--m": "3", "--n": "2", "--budget": "100"}, []),
    ("verify", {"--m": "3", "--n": "2", "--budget": "100"}, []),
    ("text-encode", {"--m": "3"}, ["Hi"]),
    # unrank and element encode with the --budget that bounds their work
    ("unrank", {"--m": "3", "--n": "3", "--budget": "100"}, ["1"]),
    ("element encode", {"--m": "3", "--n": "3", "--budget": "100"}, ["7"]),
]


@pytest.mark.parametrize(
    "command,options,rest,zeroed",
    [
        (command, options, rest, option)
        for command, options, rest in COMMAND_FORMS
        for option in options
    ],
)
def test_shared_option_below_1_exits_2(capsys, command, options, rest, zeroed):
    argv = command.split()
    for option, value in options.items():
        argv += [option, "0" if option == zeroed else value]
    code, out, err = run(capsys, *argv, *rest)
    assert (code, out) == (2, "")
    assert zeroed in err


@pytest.mark.parametrize("window", ["[01]2 01", "[01]2 1", "02 1", "[1]2 01"])
def test_leading_zero_entries_exit_2(capsys, window):
    code, out, err = run(capsys, "rank", "--m", "3", window)
    assert (code, out) == (2, "")
    assert "leading zero" in err


def test_color_prefix_at_m_1_exits_2(capsys):
    code, out, err = run(capsys, "rank", "--m", "1", "[1]2 1")
    assert (code, out) == (2, "")
    assert err == "error: entry 1 ('[1]2'): m = 1 takes no color prefix\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("convert", "--m", "2", "--to-int", "\u00b2"),  # superscript two
        ("convert", "--m", "2", "--to-int", "\u0661:0"),  # Arabic-Indic one
        ("rank", "--m", "4", "[\u0663]1"),  # Arabic-Indic three as a color
        ("rank", "--m", "3", "1 2 3\n"),  # trailing newline in the last entry
    ],
)
def test_non_ascii_digits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("unrank", "--m", "\u0663", "--n", "3", "1"),  # Arabic-Indic three
        ("convert", "--m", "3", "--to-digits", " 1_0 "),  # spaces, underscore
        ("unrank", "--m", "3", "--n", "3", "+1"),  # plus sign
        ("element", "encode", "--m", "3", "--n", "3", "\uff15"),  # fullwidth five
        ("table", "--m", "2", "--n", "2", "--budget", "1_000"),
    ],
)
def test_numeric_arguments_ascii_only_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_argparse_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--m", "7"])  # neither --to-digits nor --to-int
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_range_errors_exit_3(capsys):
    code, _, err = run(capsys, "element", "encode", "--m", "3", "--n", "3", "162")
    assert code == 3
    code, _, err = run(capsys, "unrank", "--m", "3", "--n", "3", "163")
    assert code == 3
    code, _, err = run(capsys, "unrank", "--m", "3", "--n", "3", "0")
    assert code == 3


def test_budget_errors_exit_4(capsys):
    code, _, err = run(capsys, "table", "--m", "3", "--n", "8", "--budget", "1000")
    assert (code, err) == (4, "error: elements for G(3,1,8) exceed budget 1000\n")
    # the product reached n, so the message names the order
    assert run(capsys, "table", "--m", "3", "--n", "3", "--budget", "100") == (
        4, "", "error: 162 elements for G(3,1,3) exceed budget 100\n"
    )
    code, out, err = run(capsys, "verify", "--m", "2", "--n", "60", "--budget", "10")
    assert code == 4
    assert out == "" and err.count("\n") == 1
    # element encode counts its n digits before the codec reads a negative x
    argv = ("element", "encode", "--m", "2", "--n", "5", "--budget", "3", "--", "-5")
    assert run(capsys, *argv) == (4, "", "error: 5 digits for G(2,1,5) exceed budget 3\n")


HUGE_N = ("100000000000", "9" * 5000)


# each command counts its work from n before it builds anything: n(n-1)/2 list
# moves for unrank, n digits for element encode
@pytest.mark.parametrize("n", HUGE_N, ids=["10^11", "5000 digits"])
@pytest.mark.parametrize(
    "argv,unit,work",
    [
        (("unrank", "--m", "2", "1"), "list moves", lambda n: n * (n - 1) // 2),
        (("element", "encode", "--m", "3", "5"), "digits", lambda n: n),
    ],
    ids=["unrank", "element encode"],
)
def test_huge_n_exits_4_before_any_work(capsys, monkeypatch, argv, unit, work, n):
    for name in ("unrank", "element_of_integer"):
        monkeypatch.setattr(gsg.cli, name, lambda *args: pytest.fail("ran past the budget"))
    start = time.perf_counter()
    code, out, err = run_at_default_limit(capsys, *argv, "--n", n)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    number, m = with_int_limit(0, int, n), argv[argv.index("--m") + 1]
    expected = f"{_decimal(work(number))} {unit} for G({m},1,{_decimal(number)})"
    assert err == f"error: {expected} exceed budget 1000000\n"
    assert len(err.encode()) < 200


@pytest.mark.parametrize("rank", ["0", "-1"])
def test_unrank_refuses_a_rank_below_1_before_the_order(capsys, monkeypatch, rank):
    # the budget admits n = 10^10, whose order alone is 10^10 factors
    monkeypatch.setattr(
        gsg.statistics, "_radix_product", lambda *args: pytest.fail("built the order")
    )
    argv = ("unrank", "--m", "64", "--n", "10000000000", "--budget", "9" * 20, "--", rank)
    start = time.perf_counter()
    assert run(capsys, *argv) == (3, "", f"error: rank {rank} is below 1\n")
    assert time.perf_counter() - start < 1.0


def test_memory_error_exits_4_with_one_line(capsys, monkeypatch):
    # a budget this large lets element encode reach a width of 10^10 digits;
    # the allocation is stood in for, never made
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(gsg.cli, "element_of_integer", out_of_memory)
    big = ("--m", "10000000000", "--n", "10000000000", "--budget", "9" * 20)
    assert run(capsys, "element", "encode", *big, "1") == (4, "", "error: out of memory\n")


# (valid, malformed or boundary) token pools for the never-a-traceback
# property; --budget stays at most 10^6, so no drawn argv does heavy work
INTEGERS = (("1", "2", "3", "0001"), ("0", "-1", "1" + "0" * 20, "1.5", ""))
BUDGETS = (("100", "1000000", "0001"), ("0", "-1", "1"))
WINDOWS = (("2 1", "[1]2 1", "[2]3 1 2", "1"), ("1 1", "[0]1", "2  1", "[1]", ""))
DIGIT_STRINGS = (("1:0", "0:1:2", "1:3"), ("9:9:9", "1::2", "", "x"))
M, N, BUDGET = ("--m", INTEGERS), ("--n", INTEGERS), ("--budget", BUDGETS)
# (command words, options with their token pools, positional token pools)
GRAMMAR = [
    (("convert",), [M, ("--to-digits", INTEGERS)], []),
    (("convert",), [M, ("--to-int", DIGIT_STRINGS)], []),
    (("element", "encode"), [M, N, BUDGET], [INTEGERS]),
    (("element", "decode"), [M], [WINDOWS]),
    (("rank",), [M], [WINDOWS]),
    (("unrank",), [M, N, BUDGET], [INTEGERS]),
    (("stats",), [M, ("--bfs", None)], [WINDOWS]),
    (("table",), [M, N, BUDGET, ("--format", (("csv", "json"), ("xml",)))], []),
    (("poincare",), [M, N, BUDGET], []),
    (("verify",), [M, N, BUDGET], []),
    (("text-encode",), [M], [(("HI", "a b"), ("\u00e9", ""))]),
]


@st.composite
def argvs(draw):
    """A command, then each of its options and positionals kept four times in
    five, each token valid four times in five, the options in any order, and
    now and then a stray token."""
    words, options, positionals = draw(st.sampled_from(GRAMMAR))
    often = lambda: draw(st.integers(0, 4)) > 0
    token = lambda pools: draw(st.sampled_from(pools[0] if often() else pools[1]))
    parts = [[flag, *([token(pools)] if pools else [])] for flag, pools in options if often()]
    argv = [*words, *(t for part in draw(st.permutations(parts)) for t in part)]
    argv += [token(pools) for pools in positionals if often()]
    return argv + draw(st.sampled_from([[]] * 8 + [["--bogus"], ["--to-int", "1:0"]]))


# capsys is read out after every command, so sharing it across examples is safe
@settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argvs())
def test_never_a_traceback(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code in range(5), argv
    assert "Traceback" not in err, argv


@pytest.mark.parametrize(
    "argv,n,budget",
    [
        (("unrank", "--m", "2", "1"), 1414, 1414 * 1413 // 2),
        (("element", "encode", "--m", "2", "5"), 2000, 2000),
    ],
    ids=["unrank", "element encode"],
)
def test_budget_of_unrank_and_element_encode_is_exact(capsys, argv, n, budget):
    argv = (*argv, "--n", str(n))
    code, out, _ = run(capsys, *argv, "--budget", str(budget))
    assert code == 0 and out.count(" ") == n - 1
    assert run(capsys, *argv, "--budget", str(budget - 1))[:2] == (4, "")
    assert run(capsys, *argv)[0] == 0  # the default budget, 10^6


# verify tests each element against all |Delta| = m*n*(n+1)/2 - n roots: at
# n = 1 a group of m elements costs m*(m-1) root tests. The count is named
# when the order's product reached n, and left out when it stopped short
@pytest.mark.parametrize(
    "m,n,count",
    [("1000000", "1", "999999000000 "), ("2", "100000000000", "")],
    ids=["1000000-1", "2-100000000000"],
)
def test_verify_budget_counts_root_tests_before_any_work(capsys, monkeypatch, m, n, count):
    monkeypatch.setattr(gsg.verify, "multiply", lambda *args: pytest.fail("ran past the budget"))
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--m", m, "--n", n)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (4, "")
    assert err == f"error: {count}root tests for G({m},1,{n}) exceed budget 1000000\n"


def test_verify_budget_is_exact(capsys):
    # G(3,1,3): 162 elements times 15 roots
    assert run(capsys, "verify", "--m", "3", "--n", "3", "--budget", "2430")[:2] == (0, VERIFY_3_3)
    assert run(capsys, "verify", "--m", "3", "--n", "3", "--budget", "2429") == (
        4, "", "error: 2430 root tests for G(3,1,3) exceed budget 2429\n"
    )


def test_stats_word_length_needs_no_budget(capsys):
    # G(2,1,8) has 10,321,920 elements, past the default budget of the sweeping commands
    window = " ".join(f"[1]{v}" for v in range(1, 9))
    code, out, _ = run(capsys, "stats", "--m", "2", "--bfs", window)
    payload = json.loads(out)
    assert code == 0
    assert payload["canonical_length"] == payload["L"] == 64
    with pytest.raises(SystemExit) as exc:
        main(["stats", "--m", "3", "--budget", "10", "2 1"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_cli_roundtrips(capsys):
    # convert back and forth
    _, digits, _ = run(capsys, "convert", "--m", "4", "--to-digits", "123456789")
    _, integer, _ = run(capsys, "convert", "--m", "4", "--to-int", digits.strip())
    assert integer.strip() == "123456789"
    # element encode/decode
    _, window, _ = run(capsys, "element", "encode", "--m", "4", "--n", "6", "98765")
    _, back, _ = run(capsys, "element", "decode", "--m", "4", window.strip())
    assert back.strip() == "98765"
    # rank/unrank
    _, window, _ = run(capsys, "unrank", "--m", "4", "--n", "5", "777")
    _, back, _ = run(capsys, "rank", "--m", "4", window.strip())
    assert back.strip() == "777"


def with_int_limit(limit, fn, *args):
    """``fn(*args)`` under the given int<->str digit limit (0 = none)."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        return fn(*args)
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["poincare", "--m", "2", "--n", "2"], 0),
        (["rank", "--m", "3", "[01]2 1"], 2),
        (["poincare", "--m", "0", "--n", "2"], 2),
        (["unrank", "--m", "2", "--n", "2", "9"], 3),
        (["poincare", "--m", "2", "--n", "80", "--budget", "10"], 4),
        (["poincare", "--m", "x", "--n", "2"], None),  # argparse's SystemExit
        # one past each end of G(5,1,6)'s 11,250,000 ranks
        (["unrank", "--m", "5", "--n", "6", "0"], 3),
        (["unrank", "--m", "5", "--n", "6", "11250001"], 3),
    ],
    ids=[
        "exit 0", "exit 2 window", "exit 2 option", "exit 3", "exit 4", "argparse exit",
        "exit 3 rank 0", "exit 3 past the last rank",
    ],
)
def test_main_puts_back_the_str_digit_limit(capsys, argv, code):
    def limit_after_main():
        if code is None:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main(argv) == code
        return sys.get_int_max_str_digits()

    assert with_int_limit(5000, limit_after_main) == 5000


def run_at_default_limit(capsys, *argv):
    # main must lift CPython's default limit itself
    default = sys.int_info.default_max_str_digits
    return with_int_limit(default, run, capsys, *argv)


def test_convert_to_int_past_str_digit_limit(capsys):
    n = 1700
    top = ":".join(str(2 * (i + 1) - 1) for i in reversed(range(n)))
    expected = with_int_limit(0, str, 2**n * factorial(n) - 1)
    assert len(expected) > 4300
    assert run_at_default_limit(capsys, "convert", "--m", "2", "--to-int", top)[:2] == (
        0,
        expected + "\n",
    )


def test_convert_to_digits_past_str_digit_limit(capsys):
    text = "1234567890" * 440
    x = with_int_limit(0, int, text)
    code, out, _ = run_at_default_limit(capsys, "convert", "--m", "7", "--to-digits", text)
    assert code == 0
    assert out == f"{encode(x, 7)}\n"
    assert decode(MixedRadixNumber.from_text(out.strip(), 7)) == x


@pytest.mark.parametrize(
    "argv",
    [["rank", "--m", "2", "1 " + "1" * 5000], ["convert", "--m", "2", "--to-int", "1" * 5000 + ":0"]],
    ids=["window value", "digit"],
)
def test_over_long_entry_exits_2_without_echoing_its_digits(capsys, argv):
    code, out, err = run_at_default_limit(capsys, *argv)
    assert (code, out) == (2, "")
    assert "5000 digits" in err and len(err) < 100


ONES = "1" * 5000


# each parse error that quotes its entry or digit, on an entry 5000 characters long
@pytest.mark.parametrize(
    "argv,message",
    [
        (("rank", "--m", "2", "1 x" + ONES), "is malformed"),
        (("rank", "--m", "2", "1 0" + ONES), "has a leading zero"),
        (("rank", "--m", "1", f"[1]{ONES} 1"), "m = 1 takes no color prefix"),
        (("rank", "--m", "3", f"[5]{ONES} 1"), "color 5 outside 1..2"),
        (("convert", "--m", "2", "--to-int", "1:x" + ONES), "is not a decimal number"),
    ],
    ids=["malformed", "leading zero", "m = 1 prefix", "color range", "digit"],
)
def test_bad_over_long_entry_exits_2_with_a_short_message(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert message in err and "characters)" in err and len(err.encode()) < 200


NINES = "-" + "9" * 5000  # a negative number past the 4300-digit int-to-str limit
NINES_TEXT = f"<{(10**5000 - 1).bit_length()}-bit number>"


# gsg lifts the int-to-str limit while it runs, so a caller's number would print whole
@pytest.mark.parametrize(
    "argv,message",
    [
        (("convert", "--m", "2", "--to-digits", NINES), f"cannot encode negative integer {NINES_TEXT}"),
        (
            ("element", "encode", "--m", "2", "--n", "3", "--", NINES),
            f"cannot encode negative integer {NINES_TEXT}",
        ),
        (("element", "encode", "--m", NINES, "--n", "3", "5"), f"--m must be >= 1, got {NINES_TEXT}"),
        (("element", "encode", "--m", "2", "--n", NINES, "5"), f"--n must be >= 1, got {NINES_TEXT}"),
        (("table", "--m", "2", "--n", "2", "--budget", NINES), f"--budget must be >= 1, got {NINES_TEXT}"),
    ],
    ids=["convert", "element encode", "--m", "--n", "--budget"],
)
def test_huge_argument_exits_2_with_its_bit_length(capsys, argv, message):
    code, out, err = run_at_default_limit(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
    assert len(err.encode()) < 200


def test_over_long_non_integer_argument_exits_2_with_a_short_message(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["convert", "--m", "2", "--to-digits", "9" * 5000 + "x"])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert f"invalid integer: {'9' * 32!r}... (5001 characters)" in err
    assert len(err.encode()) < 300


XS = "x" * 5000
# argparse quotes a choice that holds a quote or a space in double quotes
QUOTED, SPACED = "x'" * 2500, "x" + " z" * 2500


# argparse's own errors: an unknown command, an unknown choice, an unknown,
# ambiguous or misused option; each with the piece of the caller's text that
# argparse repeats, the whole argument or the text after "=" or after "-h"
@pytest.mark.parametrize(
    "argv,repeated",
    [
        ([XS], XS),
        (["table", "--m", "2", "--n", "2", "--format", XS], XS),
        (["convert", "--m", "2", "--to-digits", "5", "--" + XS], "--" + XS),
        ([QUOTED], QUOTED),
        ([SPACED], SPACED),
        (["table", "--m", "2", "--n", "2", "--format", QUOTED], QUOTED),
        (["table", "--m", "2", "--n", "2", "--format=" + XS], XS),
        (["table", "--m", "2", "--n", "2", "--format=" + SPACED], SPACED),
        (["stats", "--m", "2", "-h" + XS], XS),
        (["stats", "--m", "2", "--bfs=" + XS, "1"], XS),
        (["convert", "--m", "2", "--to=" + SPACED], "--to=" + SPACED),
        (["stats", "--m", "2", "--bfs=" + SPACED, "1"], SPACED),
    ],
    ids=[
        "command",
        "choice",
        "option",
        "quoted command",
        "spaced command",
        "quoted choice",
        "= choice",
        "= spaced choice",
        "short option value",
        "= flag value",
        "= spaced ambiguous option",
        "= spaced flag value",
    ],
)
def test_over_long_argparse_error_exits_2_with_a_short_message(capsys, argv, repeated):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    if "-h" + XS in argv and sys.version_info >= (3, 13):
        # from 3.13, argparse acts on -h before it reads the text attached to it
        assert (exc.value.code, err) == (0, "")
        assert out.startswith("usage: gsg stats [-h]") and "show this help message" in out
        assert "x" * (_QUOTED + 1) not in out
        return
    assert (exc.value.code, out) == (2, "")
    assert f"<{len(repeated)} characters>" in err and "Traceback" not in err
    assert len(err.encode()) < 300
    # argparse's own text after the caller's is kept; later patch releases
    # (3.13.13, for one) list the choices without quotes
    choices = err.replace("'", "")
    assert ("(choose from csv, json)" in choices) == ("table" in argv)
    assert ("text-encode)" in choices) == (len(argv) == 1)


# a run of 32 characters, _QUOTED, is the longest that a message keeps whole
@pytest.mark.parametrize(
    "argv",
    [
        ["tabel"],
        ["c" * 32],
        ["table", "--m", "2", "--n", "2", "--format", "xml"],
        ["table", "--m", "2", "--n", "2", "--format=xml"],
        ["verify", "--m", "2", "--n", "2", "--x"],
        ["verify", "--m", "2", "--n", "2", "x", "y", "c" * 32],
        ["x'" * 16],
        ["table", "--m", "2", "--n", "2", "--format", "a'b \"c\\"],
    ],
)
def test_short_argparse_error_is_argparse_own(capsys, monkeypatch, argv):
    def stderr_of(argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    err = stderr_of(argv)
    assert "invalid choice" in err or "unrecognized arguments" in err
    monkeypatch.setattr(gsg.cli._Parser, "error", argparse.ArgumentParser.error)
    assert err == stderr_of(argv)


# many short unknown arguments, many of the longest kept whole, and one long one with quotes
@pytest.mark.parametrize(
    "extras,shown",
    [
        (["x"] * 2500, "x x x ... (2500 arguments)"),
        (["c" * 32] * 100, " ".join(["c" * 32] * 3) + " ... (100 arguments)"),
        (["x'" * 2500], "<5000 characters>"),
    ],
    ids=["short", "longest kept", "quoted"],
)
def test_many_unrecognized_arguments_exit_2_with_a_short_message(capsys, extras, shown):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--m", "2", "--n", "2", *extras])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.endswith(f"gsg: error: unrecognized arguments: {shown}\n")
    assert len(err.encode()) < 300


def test_text_encode_past_str_digit_limit(capsys):
    text = (PANGRAM + " ") * 50
    assert len(text) == 2200
    codes = "".join(str(ord(ch)) for ch in text)
    digits = encode(with_int_limit(0, int, codes), 7)
    assert run_at_default_limit(capsys, "text-encode", "--m", "7", text)[:2] == (
        0,
        f"{codes}\n{digits}\n{digits.n}\n",
    )


# capsys is read out after every command, so sharing it across examples is safe
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.integers(1, 6), st.integers(1, 2000) | st.just(2000), st.data())
def test_cli_roundtrips_property(capsys, m, n, data):
    order = m**n * factorial(n)
    rnd = data.draw(st.randoms(use_true_random=False))
    x = data.draw(st.integers(0, order - 1) | st.just(rnd.randrange(order)))
    text = with_int_limit(0, str, x)
    code, window, _ = run(capsys, "element", "encode", "--m", str(m), "--n", str(n), text)
    assert code == 0
    assert run(capsys, "element", "decode", "--m", str(m), window.strip())[:2] == (
        0,
        text + "\n",
    )
    code, digits, _ = run(capsys, "convert", "--m", str(m), "--to-digits", text)
    assert code == 0
    assert run(capsys, "convert", "--m", str(m), "--to-int", digits.strip())[:2] == (
        0,
        text + "\n",
    )

