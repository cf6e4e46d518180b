"""What starting a ``gsg`` process costs: the modules ``import gsg.cli`` loads,
and the bytes the JSON-printing commands print; only ``gsg stats`` loads
``json``, and only when it runs."""

import os
import subprocess
import sys
from pathlib import Path

import gsg

# the children import gsg from where this suite did: src/ or the installed package
# (the name gsg is the process helper below)
GSG_INIT = Path(gsg.__file__).resolve()
ENV = dict(os.environ, PYTHONPATH=str(GSG_INIT.parents[1]))

# the modules that import gsg.cli adds to those the interpreter started with,
# then the file gsg came from
PROBE = (
    "import sys; before = set(sys.modules); import gsg.cli; "
    "print(' '.join(sorted(set(sys.modules) - before))); print(sys.modules['gsg'].__file__)"
)


def gsg(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "gsg.cli", *argv], env=ENV, capture_output=True, timeout=60
    )


def test_import_loads_no_dataclasses_inspect_or_json():
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    names, origin = proc.stdout.splitlines()
    assert Path(origin).resolve() == GSG_INIT
    loaded = set(names.split())
    assert "gsg.cli" in loaded
    # nor gsg.verify: only `gsg verify` needs the sweep module
    assert not loaded & {"dataclasses", "inspect", "json", "gsg.verify"}


def test_json_commands_print_the_same_bytes():
    proc = gsg("stats", "--m", "5", "[2]3 [4]1 [1]6 5 [1]4 [2]2")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (
        b'{"inv_table": "11:13:1:11:5:2", "L": 43, "fmaj": 60, '
        b'"fmaj_exponents": [2, 7, 2, 15, 18, 16], "rank": 4321328, '
        b'"subexceedant_digits": "7:16:15:6:4:2", "integer_rep": 2876572}\n'
    )
    proc = gsg("table", "--m", "2", "--n", "2", "--format", "json")
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (
        b'[{"rank": 1, "window": "1 2", "inv_table": "0:0"}, '
        b'{"rank": 2, "window": "[1]1 2", "inv_table": "0:1"}, '
        b'{"rank": 3, "window": "2 1", "inv_table": "1:0"}, '
        b'{"rank": 4, "window": "[1]2 1", "inv_table": "1:1"}, '
        b'{"rank": 5, "window": "2 [1]1", "inv_table": "2:0"}, '
        b'{"rank": 6, "window": "[1]2 [1]1", "inv_table": "2:1"}, '
        b'{"rank": 7, "window": "1 [1]2", "inv_table": "3:0"}, '
        b'{"rank": 8, "window": "[1]1 [1]2", "inv_table": "3:1"}]\n'
    )


def test_table_json_loads_no_json():
    # the JSON table prints f-string rows; only `gsg stats` imports json
    probe = (
        "import sys; before = set(sys.modules); import gsg.cli; "
        "code = gsg.cli.main(['table', '--m', '2', '--n', '2', '--format', 'json']); "
        "print(code, 'json' in set(sys.modules) - before)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("]\n0 False\n")


def test_import_loads_no_typing_without_site():
    # -S: a site hook may load typing before gsg does
    probe = "import sys, gsg.cli; print('typing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], env=ENV, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr
