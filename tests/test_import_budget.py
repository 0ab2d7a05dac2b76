"""Import budget: the package and its CLI load neither numpy nor scipy.

Only ``verify`` (its frequency-domain QMF check) imports numpy, and only
when it runs; every other command needs the standard library alone.  The
check runs in a fresh interpreter so the test suite's own imports do not
hide an eager import.
"""

import os
import subprocess
import sys
from pathlib import Path

import latwav

SRC = str(Path(latwav.__file__).resolve().parents[1])

SCRIPT = """
import contextlib, io, sys
from pathlib import Path

def heavy():
    return sorted({m.split('.')[0] for m in sys.modules} & {'numpy', 'scipy'})

import latwav, latwav.cli
print(heavy())

from latwav.cli import main
from latwav.filters import BUNDLED_FILTERS

buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    assert main(["bundled", "db4"]) == 0
Path("db4.json").write_text(buf.getvalue())
Path("q.json").write_text('{"dim": 2, "rows": [[1, 1], [-1, 1]]}')
commands = [
    ["snf", "q.json"], ["basis", "q.json"], ["reduce", "db4.json"],
    ["transfer", "db4.json", "--target", "q.json"],
    ["cascade", "db4.json", "--levels", "4"],
    ["quincunx", "pattern", "--width", "2"],
    ["encode", "eval", "--d", "2", "--N", "1", "--point", "1,2"],
] + [["bundled", name] for name in BUNDLED_FILTERS]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in commands:
        assert main(argv) == 0, argv
print(heavy())
"""


def test_import_and_commands_other_than_verify_load_neither_numpy_nor_scipy(tmp_path):
    env = dict(os.environ, LATWAV_OUTPUT_DIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    after_import, after_commands = proc.stdout.splitlines()
    assert after_import == "[]"
    assert after_commands == "[]"
