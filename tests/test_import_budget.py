"""Import budget: the package and its CLI load neither numpy nor scipy,
and each command executes only the layers it runs.

Every command, ``verify`` of any size included, needs the standard library
alone: the QMF check sums with ``cmath`` and ``math``, and its sample points
come from the standard library's ``random``.  Nor do they load
``dataclasses`` (with ``inspect``) or ``fractions`` (with ``decimal``): the
records are tuples and plain classes, and the one exact quotient is an
integer true division.  The check runs in a fresh interpreter so the test
suite's own imports do not hide an eager import.

``import latwav`` executes no layer: the layers wait in ``sys.modules`` as
placeholders, whose type is a subclass of ``types.ModuleType``, and each
command executes exactly its own set.  Every command executes ``filters``,
whose ``BUNDLED_FILTERS`` the argument parser reads for its choices.
"""

import ast
import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import latwav
from latwav.filters import daubechies4_1d
from latwav.jsonio import canonical_dumps, filter_to_json
from util import SRC, child_env



def _fresh_run(args: list[str], cwd: Path, code: int = 0) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args`` in ``cwd``, exit code ``code``."""
    proc = subprocess.run(
        [sys.executable, *args], env=child_env(LATWAV_OUTPUT_DIR=str(cwd)), cwd=cwd,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    return proc


def _fresh_python(code: str, cwd: Path) -> list[str]:
    """The lines ``code`` prints in a fresh interpreter run in ``cwd``."""
    return _fresh_run(["-c", code], cwd).stdout.splitlines()


SCRIPT = """
import contextlib, io, sys
from pathlib import Path

def heavy():
    unwanted = {'numpy', 'scipy', 'dataclasses', 'inspect', 'fractions', 'decimal'}
    return sorted({m.split('.')[0] for m in sys.modules} & unwanted)

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

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "db4.json"]) == 0
print(heavy())

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["verify", "big.json"]) == 1
print(heavy())
"""

# 65 taps of 0.1, not a solution: 66,560 terms at the default 1024 samples.
BIG = {"dim": 1, "matrix": {"dim": 1, "rows": [[2]]},
       "coeffs": [{"n": [i], "re": 0.1} for i in range(65)]}


@pytest.fixture(scope="module")
def budget_lines(tmp_path_factory):
    """The script's four printed lines, from one fresh interpreter."""
    tmp_path = tmp_path_factory.mktemp("budget")
    (tmp_path / "big.json").write_text(json.dumps(BIG))
    return _fresh_python(SCRIPT, tmp_path)


def test_import_and_commands_other_than_verify_load_neither_numpy_nor_scipy(budget_lines):
    after_import, after_commands, _, _ = budget_lines
    assert after_import == "[]"
    assert after_commands == "[]"


def test_verify_of_a_small_filter_loads_no_numpy(budget_lines):
    _, _, after_db4, _ = budget_lines
    assert after_db4 == "[]"


def test_verify_of_a_large_filter_loads_no_numpy(budget_lines):
    _, _, _, after_big = budget_lines
    assert after_big == "[]"


def _cli_verify_heavy_imports(tmp_path: Path, name: str, code: int) -> list[str]:
    """The numpy and scipy modules among those ``python -m latwav.cli verify
    name`` imports, as ``-X importtime`` lists them; the run exits ``code``."""
    proc = _fresh_run(["-X", "importtime", "-m", "latwav.cli", "verify", name], tmp_path, code)
    imported = [line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert json.loads(proc.stdout)["pass"] is (code == 0)
    assert "latwav" in imported
    return [m for m in imported if m.split(".")[0] in ("numpy", "scipy")]


def test_python_m_cli_verify_of_db4_imports_no_numpy(tmp_path):
    """End to end: ``python -m latwav.cli verify db4.json`` imports no numpy
    module."""
    (tmp_path / "db4.json").write_text(canonical_dumps(filter_to_json(daubechies4_1d())))
    assert _cli_verify_heavy_imports(tmp_path, "db4.json", 0) == []


def test_python_m_cli_verify_of_a_large_filter_imports_no_numpy(tmp_path):
    """The same for ``big.json``, which is no solution: the run exits 1."""
    (tmp_path / "big.json").write_text(json.dumps(BIG))
    assert _cli_verify_heavy_imports(tmp_path, "big.json", 1) == []


NUMPY_BLOCKED = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
from latwav.cli import main
from latwav.filters import daubechies4_1d
from latwav.verify import qmf_check

for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", path])
    report = json.loads(out.getvalue())
    print(path, code, report["pass"], report["qmf_deviation"] <= 1e-10)
print(qmf_check(daubechies4_1d(), samples=2**15) < 1e-10)
"""


def test_verify_and_a_large_qmf_check_run_with_numpy_blocked(tmp_path):
    """With numpy made unimportable: ``verify`` passes db4, the bundled
    quincunx_db4 and db4 transferred onto companion3d (QMF shift
    (pi, 0, 0)), each with a QMF deviation of at most 1e-10, and a QMF check
    of 2^15 samples (131,072 terms) stays below 1e-10."""
    from latwav.filters import companion_3d_matrix, quincunx_daubechies4
    from latwav.transfer import transfer

    filters = {"db4.json": daubechies4_1d(), "quincunx_db4.json": quincunx_daubechies4(),
               "db4_on_companion3d.json":
                   transfer(daubechies4_1d(), companion_3d_matrix()).target_filter}
    for name, filt in filters.items():
        (tmp_path / name).write_text(canonical_dumps(filter_to_json(filt)))
    lines = _fresh_run(["-c", NUMPY_BLOCKED, *filters], tmp_path).stdout.splitlines()
    assert lines == [f"{name} 0 True True" for name in filters] + ["True"]


def test_python_m_cli_under_w_error_prints_nothing_on_stderr(tmp_path):
    """``python -W error -m latwav.cli`` runs with no warning: runpy warns
    when ``latwav.cli`` is in ``sys.modules`` before it runs as ``__main__``,
    so ``import latwav`` must not register it."""
    assert _fresh_run(["-W", "error", "-m", "latwav.cli", "bundled", "db4"],
                      tmp_path).stderr == ""


def test_public_names_and_layer_attributes_resolve_through_the_package():
    """``latwav.transfer`` stays the function that shadows its module, each
    public name is its layer's object, and each layer attribute is the
    module in ``sys.modules``."""
    assert latwav.transfer is sys.modules["latwav.transfer"].transfer
    for name in latwav.__all__:
        value = getattr(latwav, name)
        assert vars(sys.modules[value.__module__])[name] is value
    for layer in ("cascade", "config", "encode", "errors", "filters", "intlat", "jsonio",
                  "lawton", "quincunx", "verify"):
        assert getattr(latwav, layer) is sys.modules[f"latwav.{layer}"]
    assert set(latwav.__all__) <= set(dir(latwav))
    with pytest.raises(AttributeError):
        latwav.no_such_name


EXECUTED = """
import contextlib, io, sys, types
{run}
print(sorted(name for name, module in sys.modules.items()
             if name.startswith("latwav.") and type(module) is types.ModuleType))
"""

RUN_COMMAND = """
from latwav.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({argv!r}) == 0
"""

PARSER = {"cli", "config", "errors", "filters", "intlat", "jsonio"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("layers")
    (tmp_path / "db4.json").write_text(canonical_dumps(filter_to_json(daubechies4_1d())))
    (tmp_path / "q.json").write_text('{"dim": 2, "rows": [[1, 1], [-1, 1]]}')
    return tmp_path


def test_import_latwav_executes_no_layer(inputs):
    assert _fresh_python(EXECUTED.format(run="import latwav"), inputs) == ["[]"]


WRITES = """
import latwav, types
verify, quincunx = latwav.verify, latwav.quincunx
verify.QMF_SAMPLES = 7
print(type(verify) is types.ModuleType, verify.QMF_SAMPLES)
del quincunx.shannon_coeff
print(type(quincunx) is types.ModuleType, hasattr(quincunx, "shannon_coeff"))
"""


def test_a_write_to_a_fresh_layer_runs_the_layer_first(inputs):
    """An assignment to, or a deletion from, an unexecuted layer executes it
    first, as a read does; else the layer's own code would undo the
    assignment, and the deletion would find no name to delete."""
    assert _fresh_python(WRITES, inputs) == ["True 7", "True False"]


def test_a_write_to_a_placeholder_in_this_process_runs_it_first():
    """The same on a placeholder made here, a second copy of ``quincunx``
    that is not in ``sys.modules``."""
    from importlib.util import find_spec, module_from_spec

    for write in (lambda m: setattr(m, "shannon_coeff", None),
                  lambda m: delattr(m, "shannon_coeff")):
        module = module_from_spec(find_spec("latwav.quincunx"))
        module.__class__ = latwav._Layer
        write(module)
        assert type(module) is types.ModuleType
        assert getattr(module, "shannon_coeff", None) is None


@pytest.mark.parametrize("argv, layers", [
    (["snf", "q.json"], set()),
    (["basis", "q.json"], set()),
    (["encode", "eval", "--d", "2", "--N", "1", "--point", "1,2"], {"encode"}),
    (["quincunx", "pattern", "--width", "2"], {"quincunx"}),
    (["bundled", "db4"], {"encode", "lawton"}),
    (["reduce", "db4.json"], {"encode", "lawton"}),
    (["verify", "db4.json"], {"encode", "lawton", "verify"}),
    (["transfer", "db4.json", "--target", "q.json"], {"encode", "lawton", "transfer"}),
    (["cascade", "db4.json", "--levels", "4"], {"encode", "lawton", "cascade"}),
], ids=["snf", "basis", "encode", "quincunx", "bundled", "reduce", "verify", "transfer",
        "cascade"])
def test_each_command_executes_only_its_own_layers(inputs, argv, layers):
    run = RUN_COMMAND.format(argv=argv)
    executed = _fresh_python(EXECUTED.format(run=run), inputs)
    assert executed == [str(sorted(f"latwav.{name}" for name in PARSER | layers))]


RESIDUALS = """
import latwav
print(latwav.lawton_residuals is sys.modules["latwav.lawton"].lawton_residuals)
"""


def test_the_residual_evaluator_executes_lawton_alone(inputs):
    """``lawton_residuals`` lives in ``lawton``, beside the pair scan it
    reads: reading it executes ``lawton`` (and what ``lawton`` imports)
    but not ``verify``, which re-exports the same object under its own
    name for the benchmark launcher."""
    lines = _fresh_python(EXECUTED.format(run=RESIDUALS), inputs)
    assert lines == ["True", str(["latwav.encode", "latwav.errors", "latwav.intlat",
                                  "latwav.lawton"])]
    assert latwav.verify.lawton_residuals is latwav.lawton.lawton_residuals


def test_no_layer_imports_another_layers_private_name():
    """A relative ``from .x import _name`` reaches into another layer's
    private code: a decision that two modules must know belongs behind a
    public name of one of them."""
    found = []
    for path in sorted((SRC / "latwav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                found += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                          f"import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []


# Dependencies first, so every layer is still unexecuted when its turn
# comes; four threads on a short switch interval, more than the cores here.
RACE = """
import sys, threading, types
import latwav

sys.setswitchinterval(1e-6)
for name in ["errors", "intlat", "jsonio", "config", "encode", "filters", "lawton",
             "quincunx", "transfer", "verify", "cascade"]:
    module = sys.modules["latwav." + name]
    assert type(module) is not types.ModuleType, name
    barrier = threading.Barrier(4)
    seen = []

    def touch():
        barrier.wait()
        seen.append(sorted(vars(module)))

    threads = [threading.Thread(target=touch) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive(), name
    whole = sorted(vars(module))
    print(name, seen == [whole] * 4)
"""


def test_threads_reading_a_fresh_layer_all_see_it_whole(inputs):
    """Threads wait while the first one executes the layer.  Without the
    lock (``importlib.util.LazyLoader`` before Python 3.13) the others
    nearly always read a half-run namespace."""
    lines = _fresh_python(RACE, inputs)
    assert len(lines) == 11
    assert all(line.endswith(" True") for line in lines), lines
