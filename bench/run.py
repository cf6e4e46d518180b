"""The gsg benchmark: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload element_large --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a separate traced run.  The
last line of stdout is the result object; the line before it is a report
with the machine, the source digest and per-kind sample counts.  Spans of a
traced run go to ``.bench_out/spans-<workload>.gz`` (read them back with
``tracer.read_spans``).

Every workload is a closed loop with one client: a request is sent only
after the previous one returned.  The request list is a fixed seeded pass;
``--seconds`` sets how many passes are timed.  Each pass's times are
scaled to a reference CPU speed by a fixed control job timed during that
pass, and each timing metric is the median over passes of its value in one
pass.  See ``bench/README.md`` for the design.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("element_large", "group_sweep", "cli")
# Timed passes = max(1, round(seconds / this)), whatever the machine's speed:
# 3, 5 and 1 passes at --seconds 30, which keeps a run under 45 s on a
# shared 2-core Xeon VM.
PASS_S = {"element_large": 9.0, "group_sweep": 6.0, "cli": 25.0}
SETUP_PROBES = 2  # per gap between passes
PROCESS_PROBES = 9
# A control slice runs before every CONTROL_EVERY-th request and at the end
# of each pass.  Its mean over a pass gives the machine's speed in that pass;
# the pass's times are scaled by CONTROL_REF_S / that mean.  Speed swings
# within a second do not move the control and gsg alike, so a nearer,
# smaller sample would add noise rather than remove it.
CONTROL_EVERY = 4
CONTROL_REF_S = 0.003  # the control slice on a shared 2-core Xeon VM, fast phase
CONTROL_MOD = 7**4000 + 1
CONTROL_BASE = 3**3000

END_TO_END = (
    ("setup_s", "s"),
    ("throughput_rps", "req/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("success_rate", "ratio"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("mixed_radix.calls", "count"),
    ("mixed_radix.self_s", "s"),
    ("mixed_radix.numbers_built", "count"),
    ("mixed_radix.errors", "count"),
    ("subexceedant.calls", "count"),
    ("subexceedant.self_s", "s"),
    ("subexceedant.codec.growth", "exponent"),
    ("subexceedant.errors", "count"),
    ("group_core.calls", "count"),
    ("group_core.self_s", "s"),
    ("group_core.elements_built", "count"),
    ("group_core.colored_values_built", "count"),
    ("group_core.elements_per_request", "count/req"),
    ("group_core.errors", "count"),
    ("statistics.calls", "count"),
    ("statistics.self_s", "s"),
    ("statistics.unrank.self_s", "s"),
    ("statistics.unrank.growth", "exponent"),
    ("statistics.candidates_per_digit", "count/digit"),
    ("statistics.rank.growth", "exponent"),
    ("statistics.inv_closed.self_s", "s"),
    ("statistics.fmaj_exponents.self_s", "s"),
    ("statistics.fmaj.growth", "exponent"),
    ("statistics.length_L.self_s", "s"),
    ("statistics.roots_tested", "count"),
    ("statistics.errors", "count"),
    ("verify.calls", "count"),
    ("verify.self_s", "s"),
    ("verify.errors", "count"),
    ("cli.interpreter_ms", "ms"),
    ("cli.import_ms", "ms"),
    ("cli.main_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("cli.failed", "count"),
    ("trace.overhead", "ratio"),
)

# growth metric -> (request kind, timed step); the step "request" is the whole call
GROWTH = {
    "subexceedant.codec.growth": ("codec", "request"),
    "statistics.rank.growth": ("rank", "rank"),
    "statistics.unrank.growth": ("rank", "unrank"),
    "statistics.fmaj.growth": ("stats", "fmaj"),
}


class CheckoutError(Exception):
    """The checkout lacks the sources or data the benchmark runs against."""


# ------------------------------------------------------------------ the loop


def control_slice() -> float:
    """Wall time of a fixed job that calls no gsg code.

    It mixes what gsg spends its time on: interpreted loops over small
    tuples and dicts, and big-integer arithmetic.  The collector is off
    while it runs, so its cost does not depend on the workload's heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    tally: dict = {}
    for i in range(6000):
        key = (i % 7, i % 5)
        tally[key] = tally.get(key, 0) + len(str(i))
    x = CONTROL_BASE
    for _ in range(3):
        x = x * x % CONTROL_MOD
    elapsed = perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def speed_factor(controls: list[float]) -> float:
    """Scale that turns this machine's seconds into reference seconds.

    The slices' speed flips between a fast and a slow mode many times a
    second, so the estimate is a mean, which weighs the modes by their share
    of the run as gsg's own time does; the top and bottom tenth are trimmed
    against one-off stalls.
    """
    ordered = sorted(controls)
    cut = len(ordered) // 10
    return CONTROL_REF_S / statistics.fmean(ordered[cut:len(ordered) - cut])


class PassResult:
    """Outcomes of running a request list one or more times, in order.

    Each pass's times are scaled to reference seconds by the speed factor of
    the control slices timed during that pass.
    """

    def __init__(self, requests):
        self.requests = requests
        self.steps: list[list[dict]] = []  # per pass, per request: step -> seconds
        self.controls: list[float] = []  # every control slice, raw seconds
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failures of requests other than known-defect probes
        self.examples: list[str] = []  # the first few of them, with their reason
        self.ok = [True] * len(requests)  # False once any pass failed it
        self.outputs: list[object] = [None] * len(requests)

    @property
    def latencies(self) -> list[list[float]]:
        """Per pass, each request's latency."""
        return [[timed["request"] for timed in steps] for steps in self.steps]

    @property
    def pass_s(self) -> list[float]:
        return [sum(latencies) for latencies in self.latencies]

    @property
    def wall_s(self) -> float:
        return sum(self.pass_s)

    def record(self, i, ok, output, error):
        req = self.requests[i]
        self.attempted += 1
        self.outputs[i] = output
        if not ok:
            self.failed += 1
            self.ok[i] = False
            if not req.probe:
                self.unexpected += 1
                if len(self.examples) < 10:
                    self.examples.append(f"{req.label}: {error or 'wrong answer'}")

    def add_pass(self, steps: list[dict], controls: list[float]) -> None:
        factor = speed_factor(controls)
        self.controls += controls
        self.steps.append([{name: t * factor for name, t in timed.items()} for timed in steps])


def run_passes(requests, passes: int, tracer=None, between=None) -> PassResult:
    """Closed loop over the list ``passes`` times; checks every answer.

    ``between`` runs before the first pass and after each pass, untimed.
    """
    result = PassResult(requests)
    if between:
        between()
    for _ in range(passes):
        controls: list[float] = []
        steps: list[dict] = []
        for i, req in enumerate(requests):
            if i % CONTROL_EVERY == 0:
                controls.append(control_slice())
            timed: dict = {}
            output, error = None, None
            if tracer is not None:
                tracer.request_id = i
            t0 = perf_counter()
            try:
                output = req.call(timed)
            except Exception as exc:  # a failed request is counted, the run goes on
                error = f"{type(exc).__name__}: {exc}"[:200]
            timed["request"] = perf_counter() - t0
            steps.append(timed)
            ok = False
            if error is None:
                try:
                    ok = bool(req.check(output))
                except Exception as exc:  # a malformed answer is a wrong answer
                    error = f"check raised {type(exc).__name__}: {exc}"[:200]
            result.record(i, ok, output, error)
        controls.append(control_slice())
        result.add_pass(steps, controls)
        if between:
            between()
    return result


def warm_up(workload: str, seed: int) -> None:
    """The untimed prefix a workload runs before it is ready.

    Its answers are not counted: the timed passes check the same kinds.
    """
    import workloads

    if workload == "cli":
        import cliwork

        cliwork.warm_up()
        return
    prefix = workloads.element_warm_up(seed) if workload == "element_large" else workloads.sweep_warm_up(seed)
    run_passes(prefix, 1)


def build_requests(workload: str, seed: int, in_process: bool):
    import workloads

    if workload == "element_large":
        return workloads.element_large(seed)
    if workload == "group_sweep":
        return workloads.group_sweep(seed)
    import cliwork

    if in_process:
        return cliwork.in_process_requests(seed)
    return cliwork.process_requests(seed)


# ------------------------------------------------------------------ probes


def start_s(cmd: list[str]) -> float:
    """Wall time of one fresh process, start to exit, in raw seconds."""
    import cliwork

    t0 = perf_counter()
    subprocess.run(cmd, cwd=ROOT, env=cliwork.child_env(), check=True, stdout=subprocess.DEVNULL, timeout=120)
    return perf_counter() - t0


def setup_prober(workload: str, seed: int):
    """Times fresh starts of ``bench/probe.py``: imports plus the warm-up prefix.

    Returns the list the raw times go to and a function that adds
    ``SETUP_PROBES`` of them; the run calls it between passes, so the
    median samples the machine across the whole run.
    """
    cmd = [sys.executable, str(BENCH / "probe.py"), workload, str(seed)]
    start_s(cmd)  # untimed, so every timed start finds the bytecode caches
    times: list[float] = []

    def probe() -> None:
        times.extend(start_s(cmd) for _ in range(SETUP_PROBES))

    return times, probe


def process_ms() -> tuple[float, float]:
    """Median start-to-exit times of ``python -c pass`` and of
    ``python -c "import gsg.cli"``, in reference ms.

    The two alternate and share one speed factor, so their difference is
    the import alone.
    """
    cmds = [[sys.executable, "-c", code] for code in ("pass", "import gsg.cli")]
    for cmd in cmds:
        start_s(cmd)
    times: list[list[float]] = [[], []]
    controls: list[float] = []
    for _ in range(PROCESS_PROBES):
        for cmd, samples in zip(cmds, times):
            controls += [control_slice() for _ in range(CONTROL_EVERY)]
            samples.append(start_s(cmd))
    ms = speed_factor(controls) * 1000
    return statistics.median(times[0]) * ms, statistics.median(times[1]) * ms


# ------------------------------------------------------------------ metrics


def _percentile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles' default method."""
    return statistics.quantiles(values, n=100)[q - 1]


def _growth(result: PassResult, kind: str, step: str) -> float:
    """Log-log slope of the median step time between a kind's two sizes, at m = 2."""
    import workloads

    by_size: dict[int, list[float]] = {}
    for pass_steps in result.steps:
        for req, steps in zip(result.requests, pass_steps):
            if req.kind == kind and req.m == workloads.GROWTH_RADIX and step in steps:
                by_size.setdefault(req.n, []).append(steps[step])
    if len(by_size) < 2:
        return 0.0  # the workload does not run this kind at two sizes
    lo, hi = min(by_size), max(by_size)
    ratio = statistics.median(by_size[hi]) / statistics.median(by_size[lo])
    return math.log(ratio) / math.log(hi / lo)


def per_kind(result: PassResult, attr: str = "kind") -> dict:
    """Per request kind (or class): timed samples over all passes, median
    and max latency in reference ms, failed requests.

    Steps timed inside the requests, such as ``unrank``, get their medians.
    """
    groups: dict[str, list[int]] = {}
    for i, req in enumerate(result.requests):
        groups.setdefault(getattr(req, attr), []).append(i)
    out = {}
    for key, members in sorted(groups.items()):
        timed = [steps[i] for steps in result.steps for i in members]
        latencies = [steps["request"] for steps in timed]
        row = {
            "samples": len(latencies),
            "p50_ms": statistics.median(latencies) * 1000,
            "max_ms": max(latencies) * 1000,
            "failed": sum(not result.ok[i] for i in members),
        }
        for name in sorted({name for steps in timed for name in steps} - {"request"}):
            row[f"{name}_p50_ms"] = statistics.median(steps[name] for steps in timed if name in steps) * 1000
        out[key] = row
    return out


def end_to_end_metrics(workload: str, result: PassResult, setup_times: list[float]) -> dict:
    """Each timing is taken per pass, as the pass ran; the metric is its
    median over passes."""
    passes = result.latencies
    if workload == "cli":
        import cliwork

        peak_kb = cliwork.peak_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": statistics.median(setup_times) * speed_factor(result.controls),
        "throughput_rps": statistics.median(len(p) / sum(p) for p in passes),
        "latency_p50_ms": statistics.median(statistics.median(p) for p in passes) * 1000,
        "latency_p95_ms": statistics.median(_percentile(p, 95) for p in passes) * 1000,
        "success_rate": 1 - result.failed / result.attempted,
        "peak_rss_mb": peak_kb / 1024,
    }


def per_layer_metrics(tracer, untraced: PassResult, traced: PassResult, workload: str) -> dict:
    names = tracer.by_name()
    layers = tracer.by_layer(names)
    scale = speed_factor(traced.controls)  # span times are raw seconds

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0) * scale

    out = {}
    for layer in ("mixed_radix", "subexceedant", "group_core", "statistics", "verify"):
        out[f"{layer}.calls"] = layers[layer]["calls"]
        out[f"{layer}.self_s"] = layers[layer]["self_s"] * scale
        out[f"{layer}.errors"] = layers[layer]["errors"]
    elements = tracer.count("group_core.GroupElement")
    out["mixed_radix.numbers_built"] = tracer.count("mixed_radix.MixedRadixNumber")
    out["group_core.elements_built"] = elements
    out["group_core.colored_values_built"] = tracer.count("group_core.ColoredValue")
    out["group_core.elements_per_request"] = elements / len(traced.requests)
    for name in ("unrank", "inv_closed", "fmaj_exponents", "length_L"):
        out[f"statistics.{name}.self_s"] = self_s(f"statistics.{name}")
    candidates = tracer.count("group_core.ColoredValue", inside="statistics.unrank")
    out["statistics.candidates_per_digit"] = candidates / tracer.digits_unranked if tracer.digits_unranked else 0.0
    out["statistics.roots_tested"] = tracer.count("statistics.is_negative")
    for metric, (kind, step) in GROWTH.items():
        out[metric] = _growth(untraced, kind, step)

    interpreter_ms, import_ms = process_ms()
    out["cli.interpreter_ms"] = interpreter_ms
    out["cli.import_ms"] = import_ms - interpreter_ms
    is_cli = workload == "cli"
    out["cli.main_s"] = untraced.wall_s if is_cli else 0.0
    out["cli.stdout_bytes"] = sum(len(o[1].encode()) for o in untraced.outputs if o) if is_cli else 0
    out["cli.failed"] = untraced.failed if is_cli else 0
    out["trace.overhead"] = traced.wall_s / untraced.wall_s
    return out


# ------------------------------------------------------------------ report


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:  # not a git checkout, or a packed ref
        return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gsg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


# ------------------------------------------------------------------ entry


def check_checkout() -> None:
    if not (SRC / "gsg" / "__init__.py").is_file():
        raise CheckoutError(f"no gsg sources under {SRC}")
    import workloads

    if not workloads.GOLDEN_CSV.is_file():
        raise CheckoutError(f"missing golden table {workloads.GOLDEN_CSV}")


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result object, report)."""
    passes = max(1, round(seconds / PASS_S[workload]))
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace), **machine()}
    warm_up(workload, seed)
    requests = build_requests(workload, seed, in_process=trace)

    if not trace:
        setup_times, probe = setup_prober(workload, seed)
        result = run_passes(requests, passes, between=probe)
        values = end_to_end_metrics(workload, result, setup_times)
        units = dict(END_TO_END)
        passes_run = [result]
        report.update(
            passes=len(result.steps),
            setup_samples_s=setup_times,
            pass_s=result.pass_s,
            speed_factor=speed_factor(result.controls),
            control_samples=len(result.controls),
        )
    else:
        from tracer import Tracer

        untraced = run_passes(requests, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_passes(requests, 1, tracer)
        finally:
            tracer.uninstall()
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}.gz")
        values = per_layer_metrics(tracer, untraced, traced, workload)
        units = dict(PER_LAYER)
        result = untraced
        passes_run = [untraced, traced]
        report.update(passes=1, spans=len(tracer.start), traced_wall_s=traced.wall_s, wall_s=untraced.wall_s)

    attempted = sum(r.attempted for r in passes_run)
    failed = sum(r.failed for r in passes_run)
    unexpected = sum(r.unexpected for r in passes_run)
    report.update(
        requests=len(requests),
        attempted=attempted,
        failed=failed,
        error_rate=failed / attempted,
        probe_failures=sum(not ok for req, ok in zip(requests, result.ok) if req.probe),
        unexpected_failures=unexpected,
        unexpected_examples=[e for r in passes_run for e in r.examples][:10],
        kinds=per_kind(result),
    )
    if workload != "cli":  # cli labels are argv lines, one per invocation
        report["classes"] = per_kind(result, "label")
    final = {
        "correct": not unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return final, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    try:
        check_checkout()
    except (CheckoutError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.monotonic()
    try:
        final, report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:  # the harness itself broke: no result line
        traceback.print_exc()
        return 1
    report["run_s"] = time.monotonic() - t0
    print(json.dumps({"report": report}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
