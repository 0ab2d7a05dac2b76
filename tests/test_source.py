"""Checks that read the package's source and the README rather than a
command's output: ``src/latwav`` holds no tuned threshold and no numpy
import, the README's library example runs and ends by printing ``True``,
and the README's CLI block runs."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from util import SRC, child_env

PACKAGE = SRC / "latwav"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("pattern", [
    r"_TOL\b|_ITER\b|THRESHOLD",
    r"import numpy|from numpy|np\.random|numpy\.random|default_rng",
], ids=["tuned-threshold", "numpy"])
def test_no_source_line_matches(pattern):
    """No tuned threshold (the only tolerances are the user's) and no numpy
    (latwav runs on the standard library; numpy is test-only)."""
    found = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(PACKAGE.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if re.search(pattern, line)]
    assert found == []


def test_readme_library_example_prints_true_last(tmp_path):
    """The README's library example, run as a script in a fresh interpreter,
    exits 0 and prints ``True`` last: the transfer's witness verifies."""
    text = README.read_text()
    example = re.search(r"^## Library example\n.*?^```python\n(.*?)^```$", text,
                        re.MULTILINE | re.DOTALL).group(1)
    proc = subprocess.run([sys.executable, "-c", example], env=child_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "True"


def test_readme_cli_block_runs(tmp_path):
    """The ``sh`` block under the README's ``## CLI``, run by ``bash -e`` in
    a fresh directory with ``latwav`` as ``python -m latwav.cli``, exits 0;
    then ``latwav verify quincunx.json``, a matrix where a filter belongs,
    exits 2."""
    if shutil.which("bash") is None:
        pytest.skip("bash is not installed")
    block = re.search(r"^## CLI\n.*?^```sh\n(.*?)^```$", README.read_text(),
                      re.MULTILINE | re.DOTALL).group(1)
    env = child_env(LATWAV_OUTPUT_DIR=None, PYTHON=sys.executable)
    script = 'latwav() { "$PYTHON" -m latwav.cli "$@"; }\n' + block
    proc = subprocess.run(["bash", "-e", "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run([sys.executable, "-m", "latwav.cli", "verify", "quincunx.json"],
                          env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (2, "error: quincunx.json: missing field 'matrix'\n")
