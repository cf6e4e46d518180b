"""Self-test of the benchmark harness; about two minutes on two cores.

    python3 bench/selftest.py

Runs each workload briefly (one round per pass) and checks that:

1. every metric of ``BENCHMARK.json`` is printed, with its unit;
2. a wrong answer planted by a benchmark-side fake raises the error rate;
3. the per-layer counts repeat exactly across two traced runs;
4. ``run.py`` exits non-zero without a result line when the checkout holds
   only the benchmark, and spans written by a traced run read back whole.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import gsg  # noqa: E402
import gsg.cli  # noqa: E402

import cliwork  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# one round per pass keeps each brief run to a few seconds
workloads.ELEMENT_ROUNDS = workloads.SWEEP_ROUNDS = cliwork.ROUNDS = 1

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = {"count", "bytes", "count/req", "count/digit"}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"FAIL {message}")
    print(f"PASS {message}", flush=True)


def brief(workload: str, trace: bool):
    return run.run_workload(workload, seed=7, seconds=1, trace=trace)


def check_metrics(workload: str, final: dict, section: str) -> None:
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in final["metrics"].items()}
    expect(got == want, f"{workload}: every {section} metric printed with its unit")
    expect(all(isinstance(m["value"], (int, float)) for m in final["metrics"].values()),
           f"{workload}: every {section} value is a number")


def planted(workload: str, namespace, attr: str, fake) -> dict:
    real = getattr(namespace, attr)
    setattr(namespace, attr, fake(real))
    try:
        return brief(workload, trace=workload == "cli")[0]
    finally:
        setattr(namespace, attr, real)


def wrong_unrank(real):
    def fake(r, m, n):
        w = real(r, m, n)
        beta = (w.beta[1], w.beta[0]) + w.beta[2:]
        return gsg.GroupElement(m, n, beta, w.colors)

    return fake


def wrong_histogram(real):
    return lambda statistic, m, n, *rest: gsg.QPolynomial((1,))


def wrong_main(real):
    def fake(argv=None):
        print("0")
        return 0

    return fake


def check_planted() -> None:
    final = planted("element_large", gsg, "unrank", wrong_unrank)
    expect(final["failed"] > 0 and not final["correct"]
           and final["metrics"]["success_rate"]["value"] < 1,
           "element_large: a planted wrong unrank lowers success_rate")
    final = planted("group_sweep", gsg, "histogram", wrong_histogram)
    expect(final["failed"] > 0 and not final["correct"]
           and final["metrics"]["success_rate"]["value"] < 1,
           "group_sweep: a planted wrong histogram lowers success_rate")
    final = planted("cli", gsg.cli, "main", wrong_main)
    expect(not final["correct"] and final["metrics"]["cli.failed"]["value"] > 3,
           "cli: a planted wrong main raises cli.failed beyond the probes")


def check_counts(workload: str) -> None:
    first, _ = brief(workload, trace=True)
    second, _ = brief(workload, trace=True)
    check_metrics(workload, first, "per_layer")
    counts = {
        name: (m["value"], second["metrics"][name]["value"])
        for name, m in first["metrics"].items()
        if m["unit"] in COUNT_UNITS
    }
    differ = {name: pair for name, pair in counts.items() if pair[0] != pair[1]}
    expect(not differ, f"{workload}: {len(counts)} per-layer counts repeat exactly {differ or ''}".rstrip())
    names, fields = tracer.read_spans(run.OUT / f"spans-{workload}.gz")
    expect(len(fields["start"]) == len(fields["parent"]) > 0 and len(names) > 0,
           f"{workload}: spans read back from the traced run")


def check_bare_checkout() -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
           f"bare checkout: exit code {proc.returncode}, no result line")


def main() -> None:
    for workload in run.WORKLOADS:
        final, report = brief(workload, trace=False)
        check_metrics(workload, final, "end_to_end")
        expect(final["correct"] and report["unexpected_failures"] == 0,
               f"{workload}: no unexpected failures ({final['failed']} probe failures)")
    check_planted()
    for workload in run.WORKLOADS:
        check_counts(workload)
    check_bare_checkout()


if __name__ == "__main__":
    main()
