"""The ``cli`` workload: seeded ``gsg`` invocations and their expected results.

Each invocation runs ``python -m gsg.cli`` as its own process, one at a time,
with the checkout's ``src`` on ``PYTHONPATH``.  The traced run replays the
same argv list in process through ``gsg.cli.main``.

Known-defect probes feed integers past CPython's 4300-digit int<->str
limit.  They count as failed unless they exit 0 with the right output or
exit 3 with a message; at seed all three fail.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
import tempfile
import threading
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from math import factorial
from typing import Callable

import gsg as G
import gsg.cli

import oracles
from workloads import RADICES, ROOT, Request, golden_rows, random_window, table_rows_ok, window_text

ROUNDS = 6  # 6 rounds x 35 invocations = 210 per pass
TIMEOUT_S = 120
OUT = ROOT / ".bench_out"  # scratch space for the children's output

peak_rss_kb = 0  # the largest ru_maxrss of any gsg process run so far

README_WINDOW = "[2]3 [4]1 [1]6 5 [1]4 [2]2"
PANGRAM = "THE QUICK BROWN FOX JUMPS OVER THE LAZY DOG"


@dataclass
class Invocation:
    kind: str
    argv: list[str]
    check: Callable[[int, str, str], bool]
    probe: bool = False


def _lift_int_limit(fn, arg):
    # the checks handle integers past the default int<->str limit; the
    # limit is restored so in-process gsg calls still see the default
    getter = getattr(sys, "get_int_max_str_digits", None)
    if getter is None:
        return fn(arg)
    old = getter()
    sys.set_int_max_str_digits(0)
    try:
        return fn(arg)
    finally:
        sys.set_int_max_str_digits(old)


def big_str(x: int) -> str:
    return _lift_int_limit(str, x)


def big_int(text: str) -> int:
    return _lift_int_limit(int, text)


def _prints(expected: str):
    def check(code, out, err):
        return code == 0 and out == expected

    return check


def _exits(expected_code: int):
    def check(code, out, err):
        return code == expected_code and "error" in err and "Traceback" not in err

    return check


def _probe(expected: str):
    def check(code, out, err):
        if code == 0:
            return out == expected
        return code == 3 and bool(err.strip()) and "Traceback" not in err

    return check


def _table(m: int, n: int, fmt: str, golden: list[str]) -> Invocation:
    def check(code, out, err):
        if code != 0:
            return False
        if fmt == "csv":
            rows = out.splitlines()
        else:
            rows = [f"{d['rank']},{d['window']},{d['inv_table']}" for d in json.loads(out)]
        return table_rows_ok(rows, m, n, golden)

    return Invocation("table", ["table", "--m", str(m), "--n", str(n), "--format", fmt], check)


def _verify(m: int, n: int) -> Invocation:
    def check(code, out, err):
        lines = out.splitlines()
        return code == 0 and len(lines) >= 4 and all(line.startswith("PASS ") for line in lines)

    return Invocation("verify", ["verify", "--m", str(m), "--n", str(n)], check)


def _stats(text: str, m: int, bfs: bool = False) -> Invocation:
    w = G.parse_window(text, m)
    want = {
        "rank": G.rank(w),
        "integer_rep": G.integer_of_element(w),
        "fmaj": oracles.fmaj(w.beta, w.colors, m),
    }
    want_length = oracles.inversions(w.beta) if m == 1 else None

    def check(code, out, err):
        if code != 0:
            return False
        got = json.loads(out)
        entries = [int(e) for e in got["inv_table"].split(":")]
        length_ok = sum(entries) == got["L"] and want_length in (None, got["L"])
        bfs_ok = not bfs or got["canonical_length"] == oracles.word_length(w.beta, w.colors)
        return (
            length_ok
            and bfs_ok
            and sum(got["fmaj_exponents"]) == got["fmaj"]
            and all(got[k] == v for k, v in want.items())
        )

    argv = ["stats", "--m", str(m)] + (["--bfs"] if bfs else []) + [text]
    return Invocation("stats", argv, check)


def _text_encode(text: str, m: int, probe: bool = False) -> Invocation:
    concat = "".join(str(ord(ch)) for ch in text)
    digits = G.encode(big_int(concat), m)
    expected = f"{concat}\n{digits}\n{digits.n}\n"
    check = _probe(expected) if probe else _prints(expected)
    return Invocation("probe" if probe else "text", ["text-encode", "--m", str(m), text], check, probe)


def _random_text(rng: random.Random, length: int) -> str:
    # starts with a letter so argparse never reads it as an option
    alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ abcdefghijklmnopqrstuvwxyz0123456789.,!?"
    return rng.choice("ABCDEFGHIJKLMNOPQRSTUVWXYZ") + "".join(
        rng.choice(alphabet) for _ in range(length - 1)
    )


def readme_examples(golden: list[str]) -> list[Invocation]:
    """The README's command examples, with their documented answers."""
    return [
        Invocation("readme", ["convert", "--m", "7", "--to-digits", "199761"], _prints("3:13:1:5:2\n")),
        Invocation("readme", ["convert", "--m", "7", "--to-int", "3:13:1:5:2"], _prints("199761\n")),
        Invocation("readme", ["element", "encode", "--m", "3", "--n", "5", "2161"], _prints("[1]3 4 2 [1]5 [1]1\n")),
        Invocation("readme", ["element", "decode", "--m", "3", "[1]3 4 2 [1]5 [1]1"], _prints("2161\n")),
        Invocation("readme", ["rank", "--m", "5", README_WINDOW], _prints("4321328\n")),
        Invocation("readme", ["unrank", "--m", "5", "--n", "6", "4321328"], _prints(README_WINDOW + "\n")),
        _stats(README_WINDOW, 5),
        _stats("1 [1]2 3", 3, bfs=True),
        _table(3, 3, "csv", golden),
        Invocation("readme", ["poincare", "--m", "2", "--n", "2"], _prints("1,2,2,2,1\n")),
        _verify(3, 3),
        _text_encode(PANGRAM, 7),
    ]


def _round(rng: random.Random, golden: list[str]) -> list[Invocation]:
    out = readme_examples(golden)
    out += [_table(2, 3, "csv", golden), _table(2, 3, "json", golden), _table(3, 3, "json", golden), _verify(2, 3)]

    # seeded round trips through the CLI, n <= 200
    m, n = rng.choice(RADICES), rng.randint(2, 200)
    beta, colors = random_window(rng, m, n)
    text = window_text(beta, colors)
    w = G.GroupElement(m, n, beta, colors)
    x, r = G.integer_of_element(w), G.rank(w)
    out += [
        Invocation("roundtrip", ["element", "decode", "--m", str(m), text], _prints(f"{x}\n")),
        Invocation("roundtrip", ["element", "encode", "--m", str(m), "--n", str(n), str(x)], _prints(text + "\n")),
        Invocation("roundtrip", ["rank", "--m", str(m), text], _prints(f"{r}\n")),
        Invocation("roundtrip", ["unrank", "--m", str(m), "--n", str(n), str(r)], _prints(text + "\n")),
    ]
    m = rng.choice(RADICES)
    y = rng.randrange(10 ** rng.randint(1, 1000))
    digits = str(G.encode(y, m))
    out += [
        Invocation("roundtrip", ["convert", "--m", str(m), "--to-digits", str(y)], _prints(digits + "\n")),
        Invocation("roundtrip", ["convert", "--m", str(m), "--to-int", digits], _prints(f"{y}\n")),
    ]

    m, n = rng.choice((1, 2, 3, 5)), rng.randint(2, 40)
    out.append(_stats(window_text(*random_window(rng, m, n)), m))
    m, n = rng.randint(1, 5), rng.randint(1, 6)
    out.append(Invocation(
        "poincare", ["poincare", "--m", str(m), "--n", str(n)],
        _prints(",".join(map(str, oracles.poincare(m, n))) + "\n"),
    ))
    out.append(_text_encode(_random_text(rng, rng.randint(1, 60)), rng.randint(1, 9)))

    # bad inputs, each with its documented exit code
    m, n = rng.choice((2, 3, 5)), rng.randint(3, 9)
    order = G.group_order(m, n)
    dup = list(range(1, n + 1))
    dup[rng.randrange(1, n)] = dup[0]
    out += [
        Invocation("bad_input", ["rank", "--m", str(m), " ".join(map(str, dup))], _exits(2)),
        Invocation("bad_input", ["convert", "--m", str(m), "--to-int", f"1:{rng.randint(2 * m, 99)}:0"], _exits(2)),
        Invocation("bad_input", ["poincare", "--m", "0", "--n", str(n)], _exits(2)),
        Invocation("bad_input", ["unrank", "--m", str(m), "--n", str(n), str(order + rng.randint(1, 99))], _exits(3)),
        Invocation("bad_input", ["element", "encode", "--m", str(m), "--n", str(n), str(order + rng.randint(0, 99))], _exits(3)),
        Invocation("bad_input", ["table", "--m", "3", "--n", "3", "--budget", str(rng.randint(1, 161))], _exits(4)),
        Invocation("bad_input", ["verify", "--m", "2", "--n", "3", "--budget", str(rng.randint(1, 47))], _exits(4)),
    ]

    # known-defect probes: integers past the 4300-digit int<->str limit
    top = ":".join(str(2 * (i + 1) - 1) for i in reversed(range(1700)))
    out.append(Invocation(
        "probe", ["convert", "--m", "2", "--to-int", top],
        _probe(big_str(2**1700 * factorial(1700) - 1) + "\n"), probe=True,
    ))
    huge = str(rng.randint(1, 9)) + "".join(rng.choice("0123456789") for _ in range(4399))
    out.append(Invocation(
        "probe", ["convert", "--m", "7", "--to-digits", huge],
        _probe(f"{G.encode(big_int(huge), 7)}\n"), probe=True,
    ))
    out.append(_text_encode(_random_text(rng, 2200), 7, probe=True))
    return out


def invocations(seed: int) -> list[Invocation]:
    rng = random.Random(f"cli:{seed}")
    golden = golden_rows()
    out = [inv for _ in range(ROUNDS) for inv in _round(rng, golden)]
    rng.shuffle(out)
    return out


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_process(argv: list[str], env: dict) -> tuple[int, str, str]:
    """Runs one gsg process; reaps it with wait4 to read its own peak RSS."""
    global peak_rss_kb
    with tempfile.TemporaryFile(dir=OUT) as out, tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen([sys.executable, "-m", "gsg.cli", *argv], cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        peak_rss_kb = max(peak_rss_kb, usage.ru_maxrss)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode()


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = gsg.cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught error: the process would print it and exit 1
        err.write(traceback.format_exc())
        code = 1
    return code, out.getvalue(), err.getvalue()


def _request(inv: Invocation, runner) -> Request:
    return Request(
        inv.kind, " ".join(inv.argv)[:80],
        lambda steps: runner(inv.argv),
        lambda result: inv.check(*result),
        probe=inv.probe,
    )


def process_requests(seed: int) -> list[Request]:
    OUT.mkdir(exist_ok=True)
    env = child_env()
    return [_request(inv, lambda argv: run_process(argv, env)) for inv in invocations(seed)]


def in_process_requests(seed: int) -> list[Request]:
    return [_request(inv, run_in_process) for inv in invocations(seed)]


def warm_up() -> None:
    run_in_process(["poincare", "--m", "2", "--n", "2"])
