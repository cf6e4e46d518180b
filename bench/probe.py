"""Set-up probe: import gsg, run a workload's warm-up prefix, print "ready".

``python3 bench/probe.py <workload> <seed>``; ``run.py`` times fresh starts
of this script up to the "ready" line to measure ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402  (needs the path above)

run.warm_up(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
