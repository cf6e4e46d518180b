"""The growth record script runs at a small size and writes every key."""

import json
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import gsg

ROOT = Path(__file__).resolve().parent.parent
# the script measures the gsg this suite imports: src/ or the installed package
SRC = Path(gsg.__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perf"))
import growth  # noqa: E402


def test_growth_record_at_n_8_has_every_key(tmp_path):
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(ROOT / "perf" / "growth.py"), "--out", str(out),
         "--tree", f"here={SRC}", "--n", "8"],
        check=True, capture_output=True, timeout=60,
    )
    assert time.perf_counter() - start < 10
    record = json.loads(out.read_text())
    assert set(record) == {"machine", "settings", "runs"}
    assert set(record["machine"]) == {
        "python", "cpu_count", "platform", "PYTHONDONTWRITEBYTECODE"
    }
    (run,) = record["runs"]
    assert run["label"] == "here" and len(run["src_sha256"]) == 64
    cases = run["cases"]
    assert [(c["op"], c["m"], c["n"]) for c in cases] == list(product(growth.OPS, growth.MS, [8]))
    for case in cases:
        assert set(case) == {"op", "m", "n", "us_per_call", "us_per_round", "retained_bytes"}
        assert case["us_per_call"] > 0 and isinstance(case["retained_bytes"], int)
        # every round's best is kept, and the case's time is the least of them
        assert len(case["us_per_round"]) == growth.ROUNDS
        assert case["us_per_call"] == min(case["us_per_round"])
