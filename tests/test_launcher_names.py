"""The traced benchmark launcher still finds every function it wraps.

``perfbench/launcher.py`` wraps the package's layer-boundary functions by
name and lists the names it cannot resolve under ``"absent"``.  A rename or
a deleted function would silently drop a per-layer metric, so each traced
command here must report none absent.  The launcher runs in a fresh
interpreter, as the benchmark runs it.
"""

import json
import subprocess
import sys

import pytest

from latwav.filters import daubechies4_1d
from latwav.jsonio import canonical_dumps, filter_to_json
from util import SRC, child_env

LAUNCHER = SRC.parent / "perfbench" / "launcher.py"


@pytest.mark.parametrize("argv, spanned", [
    (["transfer", "db4.json", "--target", "q.json"], "transfer.transfer"),
    (["verify", "db4.json"], "verify.lawton_residuals"),
    (["reduce", "db4.json"], "lawton.build_reduced_system"),
    (["cascade", "db4.json", "--levels", "4"], "cascade.cascade_step"),
    (["snf", "q.json"], "intlat.smith_normal_form"),
], ids=["transfer", "verify", "reduce", "cascade", "snf"])
def test_traced_launcher_resolves_every_name(tmp_path, argv, spanned):
    (tmp_path / "db4.json").write_text(canonical_dumps(filter_to_json(daubechies4_1d())))
    (tmp_path / "q.json").write_text('{"dim": 2, "rows": [[1, 1], [-1, 1]]}')
    proc = subprocess.run(
        [sys.executable, str(LAUNCHER), str(tmp_path / "trace.json"), "0", *argv],
        env=child_env(LATWAV_OUTPUT_DIR=str(tmp_path)), cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["absent"] == []
    names = {span[0] for span in trace["spans"]}
    assert {"cli.main", spanned} <= names
    if argv[0] != "snf":  # the wrapped classmethod is called on the record class
        assert "intlat.from_matrix" in names
