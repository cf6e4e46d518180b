"""Per-call time and retained memory of gsg's element operations, by size.

Run from the root of a checkout, naming each tree of sources to measure as
``LABEL=DIR``, where DIR holds the ``gsg`` package:

    python perf/growth.py --out BENCH.json --tree parent=../parent/src --tree change=src

For each operation in ``OPS``, at each n of ``--n`` (default 8 100 500 2000)
and each m in ``MS``, a case records

- ``us_per_round``: each of ``ROUNDS`` rounds' best of ``REPEATS`` timed
  repeats, in microseconds per call, in round order; a case stops repeating
  once it has run ``CAP_S`` seconds in a round;
- ``us_per_call``: the least of ``us_per_round``;
- ``retained_bytes``: what tracemalloc still counts allocated per result,
  over ``KEEP`` results kept alive (small tuples come from CPython's free
  lists, so at n = 8 this can read near 0).

Each tree runs in its own processes, one per (m, n) block and round, and the
trees take turns block by block, the first one alternating, so that a drift
in the machine's speed falls on them alike; a machine whose speed swings
between phases gives each tree a block in more than one phase.  Inputs come from a generator seeded by
(m, n): every tree sees the same ones.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
import timeit
import tracemalloc
from pathlib import Path

OPS = (
    "element_of_integer", "integer_of_element", "unrank", "inverse", "power", "parse_window",
    "GroupElement", "identity",
)
MS = (1, 2, 5)
NS = (8, 100, 500, 2000)
ROUNDS = 3
REPEATS = 7
REPEAT_S = 0.002  # each timed repeat runs at least this long
CAP_S = 2.0
KEEP = 10
POWER = 7


def _calls(m: int, n: int) -> dict:
    """One zero-argument call per operation, on inputs seeded by (m, n)."""
    import random

    from gsg.group_core import GroupElement, group_order, identity, inverse, parse_window, power
    from gsg.statistics import unrank
    from gsg.subexceedant import element_of_integer, integer_of_element

    rng = random.Random(f"{m},{n}")
    order = group_order(m, n)
    x, r = rng.randrange(order), rng.randrange(1, order + 1)
    w = element_of_integer(rng.randrange(order), m, n)
    text = w.window()
    return {
        "element_of_integer": lambda: element_of_integer(x, m, n),
        "integer_of_element": lambda: integer_of_element(w),
        "unrank": lambda: unrank(r, m, n),
        "inverse": lambda: inverse(w),
        "power": lambda: power(w, POWER),
        "parse_window": lambda: parse_window(text, m),
        # the checked constructor fed new ints: b + 0 is a new object past 256
        "GroupElement": lambda: GroupElement(m, n, [b + 0 for b in w.beta], w.colors),
        "identity": lambda: identity(m, n),
    }


def _time_us(call) -> float:
    number = 1
    while timeit.timeit(call, number=number) < REPEAT_S:
        number *= 2
    best, start = float("inf"), time.perf_counter()
    for _ in range(REPEATS):
        best = min(best, timeit.timeit(call, number=number) / number)
        if time.perf_counter() - start > CAP_S:
            break
    return best * 1e6


def _retained_bytes(call) -> int:
    call()  # anything built once per process is built before the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = [call() for _ in range(KEEP)]
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del kept
    return round(retained / KEEP)


def measure_block(m: int, n: int) -> dict:
    """Every operation's case at one (m, n), and the digest of the gsg measured."""
    import gsg

    calls = _calls(m, n)
    cases = [
        {"op": op, "m": m, "n": n, "us_per_call": round(_time_us(call), 3),
         "retained_bytes": _retained_bytes(call)}
        for op, call in calls.items()
    ]
    digest = hashlib.sha256()
    for path in sorted(Path(gsg.__file__).parent.glob("*.py")):
        digest.update(path.read_bytes())
    return {"src_sha256": digest.hexdigest(), "cases": cases}


def _run_block(src: Path, m: int, n: int) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(Path(__file__).parent)]))
    code = f"import json, growth; print(json.dumps(growth.measure_block({m}, {n})))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(proc.stdout)


def _tree(text: str) -> tuple[str, Path]:
    label, sep, src = text.partition("=")
    if not (label and sep and (Path(src) / "gsg").is_dir()):
        raise argparse.ArgumentTypeError(f"want LABEL=DIR with DIR/gsg a package: {text!r}")
    return label, Path(src).resolve()


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--tree", type=_tree, action="append", required=True, metavar="LABEL=DIR")
    parser.add_argument("--n", type=int, nargs="+", default=NS)
    args = parser.parse_args(argv)
    trees = args.tree
    runs = [{"label": label, "src_sha256": None, "cases": {}} for label, _ in trees]
    blocks = [(m, n) for _ in range(ROUNDS) for n in args.n for m in MS]
    for i, (m, n) in enumerate(blocks):
        order = range(len(trees)) if i % 2 == 0 else reversed(range(len(trees)))
        for t in order:
            block = _run_block(trees[t][1], m, n)
            runs[t]["src_sha256"] = block["src_sha256"]
            for case in block["cases"]:
                key = (OPS.index(case["op"]), m, n)
                kept = runs[t]["cases"].setdefault(key, {**case, "us_per_round": []})
                kept["us_per_round"].append(case["us_per_call"])
                kept["us_per_call"] = min(kept["us_per_round"])
    for run in runs:
        run["cases"] = [run["cases"][key] for key in sorted(run["cases"])]
    record = {
        "machine": {
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        },
        "settings": {
            "rounds": ROUNDS, "repeats": REPEATS, "repeat_s": REPEAT_S, "cap_s": CAP_S, "keep": KEEP,
            "power": POWER, "seed": "random.Random(f'{m},{n}')",
        },
        "runs": runs,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
