"""End-to-end CLI behavior: pipelines, artifacts, exit codes."""

import argparse
import cmath
import errno
import gc
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latwav.cli
import latwav.jsonio
from latwav.cli import _build_parser, main
from latwav.config import Config
from latwav.jsonio import (
    canonical_dumps,
    filter_to_json,
    matrix_to_json,
    system_dumps,
    system_to_json,
)
from latwav.filters import daubechies4_1d, haar_1d, quincunx_matrix
from latwav.lawton import lawton_residuals, pair_count
from latwav.quincunx import support_pattern
from latwav.transfer import Filter
from util import child_env, count_work, error_line, reference_canonical_dumps


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(tmp_path))
    (tmp_path / "haar1d.json").write_text(canonical_dumps(filter_to_json(haar_1d())))
    (tmp_path / "db4.json").write_text(canonical_dumps(filter_to_json(daubechies4_1d())))
    (tmp_path / "quincunx.json").write_text(
        canonical_dumps(matrix_to_json(quincunx_matrix().A))
    )
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_snf_command(workdir, capsys):
    code, out, _ = run(capsys, "snf", str(workdir / "quincunx.json"))
    assert code == 0
    data = json.loads(out)
    assert data["D"]["rows"] == [[1, 0], [0, 2]]


def test_basis_command(workdir, capsys):
    code, out, _ = run(capsys, "basis", str(workdir / "quincunx.json"))
    assert code == 0
    assert json.loads(out)["coset_rep"] == [0, 1]


def test_reduce_command(workdir, capsys):
    code, out, _ = run(capsys, "reduce", str(workdir / "db4.json"))
    assert code == 0
    data = json.loads(out)
    assert data["index_set"] == [[0], [2]]


def test_verify_pass_and_fail_exit_codes(workdir, capsys):
    code, out, _ = run(capsys, "verify", str(workdir / "haar1d.json"))
    assert code == 0
    data = json.loads(out)
    assert data["pass"] is True
    assert data["max_residual"] < 1e-15

    bad = Filter.from_coeffs(haar_1d().matrix, {(0,): 0.8, (1,): 0.7})
    (workdir / "bad.json").write_text(canonical_dumps(filter_to_json(bad)))
    code, out, _ = run(capsys, "verify", str(workdir / "bad.json"))
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_tolerance_flag(workdir, capsys):
    loose = Filter.from_coeffs(haar_1d().matrix, {(0,): 0.70710678, (1,): 0.70710678})
    (workdir / "loose.json").write_text(canonical_dumps(filter_to_json(loose)))
    code, out, _ = run(capsys, "verify", str(workdir / "loose.json"))
    assert code == 1  # default 1e-10 rejects the truncated decimals
    code, out, _ = run(capsys, "verify", str(workdir / "loose.json"),
                       "--tolerance", "1e-6")
    assert code == 0
    assert json.loads(out)["tolerance"] == 1e-6


def test_verdict_includes_its_boundary(workdir, capsys):
    """A filter whose largest residual equals the tolerance passes, in the
    library and in the CLI."""
    report = lawton_residuals(daubechies4_1d())
    assert report.max_residual > 0.0
    assert report.passes(report.max_residual)
    code, out, _ = run(capsys, "verify", str(workdir / "db4.json"),
                       "--tolerance", repr(report.max_residual))
    assert code == 0
    assert '"pass":true' in out


def test_transfer_output_reverifies_identically(workdir, capsys):
    code, out, _ = run(
        capsys, "transfer", str(workdir / "db4.json"),
        "--target", str(workdir / "quincunx.json"),
    )
    assert code == 0
    report = json.loads(out)
    target_path = workdir / "db4_on_quincunx.json"
    target_path.write_text(canonical_dumps(report["target_filter"]))

    code, out_src, _ = run(capsys, "verify", str(workdir / "db4.json"))
    assert code == 0
    code, out_tgt, _ = run(capsys, "verify", str(target_path))
    assert code == 0
    assert json.loads(out_src)["max_residual"] == json.loads(out_tgt)["max_residual"]


def test_cascade_artifacts(workdir, capsys):
    code, out, _ = run(capsys, "cascade", str(workdir / "db4.json"), "--levels", "6")
    assert code == 0
    summary = json.loads(out)
    assert summary["level"] == 6
    assert (workdir / "db4.grid.csv").exists()
    assert (workdir / "db4.grid.json").exists()
    assert (workdir / "db4.convergence.csv").exists()
    assert (workdir / "db4.phi.csv").exists()
    conv = (workdir / "db4.convergence.csv").read_text().strip().splitlines()
    assert conv[0] == "level,l2_difference"
    assert len(conv) == 7


def test_cascade_of_complex_taps(workdir, capsys):
    """A complex-tap filter's cascade writes complex values to grid.csv, as
    ``repr(re)`` and a signed imaginary part with ``j``; phi.csv takes only
    the real parts, and the printed ``"integral"`` is the modulus |∫φ|."""
    run_cascade = importlib.import_module("latwav.cascade").run_cascade
    db4 = daubechies4_1d()
    filt = Filter.from_coeffs(db4.matrix, {(n,): v * cmath.exp(0.3j * n)
                                           for (n,), v in db4.coeffs.items()})
    (workdir / "twist.json").write_text(canonical_dumps(filter_to_json(filt)))
    code, out, err = run(capsys, "cascade", str(workdir / "twist.json"), "--levels", "3")
    assert code == 0 and err.startswith("warning: filter residual ")
    with pytest.warns(UserWarning):
        grid, _ = run_cascade(filt, max_level=3)
    cells = sorted(grid.cells.items())
    assert all(isinstance(value, complex) for _, value in cells)
    assert any(value.imag for _, value in cells)

    assert (workdir / "twist.grid.csv").read_text().splitlines() == ["j_1,value"] + [
        f"{j},{value.real!r}{value.imag:+}j" for (j,), value in cells]
    assert (workdir / "twist.phi.csv").read_text().splitlines() == ["t,phi"] + [
        f"{(j + 0.5) / 8!r},{value.real!r}" for (j,), value in cells]
    integral = json.loads(out)["integral"]
    assert integral == abs(grid.integral()) and integral != grid.integral().real


def test_quincunx_pattern_command(workdir, capsys):
    code, out, _ = run(capsys, "quincunx", "pattern", "--width", "3")
    assert code == 0
    assert json.loads(out)["pattern_holds"] is True
    csv = (workdir / "quincunx_pattern_w3.csv").read_text().strip().splitlines()
    assert csv[0] == "m,n,s"
    assert len(csv) == 50


@pytest.mark.parametrize("width", [6, 50])
def test_quincunx_pattern_holds_at_every_width(workdir, capsys, width):
    """The odd-sum coefficients shrink like 1/W^2 but never vanish, and the
    even-sum ones are exactly zero: the pattern holds at widths where the
    smallest odd magnitude is below 0.01."""
    code, out, _ = run(capsys, "quincunx", "pattern", "--width", str(width))
    assert code == 0
    data = json.loads(out)
    assert data["pattern_holds"] is True
    assert data["max_even_magnitude"] == 0.0
    expected = 2 * math.sqrt(2) / math.pi ** 2 / (width ** 2 - 1 + width % 2)
    assert math.isclose(data["min_odd_magnitude"], expected, rel_tol=1e-12)
    assert data["min_odd_magnitude"] < 1e-2
    # the CSV rows come in window order, as the former sorted rendering
    values = support_pattern(width).values
    former = "m,n,s\n" + "".join(f"{m},{n},{values[(m, n)]!r}\n" for m, n in sorted(values))
    assert (workdir / f"quincunx_pattern_w{width}.csv").read_text() == former


def test_encode_eval_command(workdir, capsys):
    code, out, _ = run(capsys, "encode", "eval", "--d", "2", "--N", "1", "--point", "1,2")
    assert code == 0
    data = json.loads(out)
    assert data["flatten_value"] == 10
    assert data["support_code"] is None


def test_bundled_command(workdir, capsys):
    code, out, _ = run(capsys, "bundled", "haar1d")
    assert code == 0
    data = json.loads(out)
    assert data["dim"] == 1


def test_input_error_exit_codes(workdir, capsys):
    (workdir / "broken.json").write_text('{"dim": 2')
    code, _, err = run(capsys, "snf", str(workdir / "broken.json"))
    assert code == 2
    assert "line" in err

    (workdir / "odd.json").write_text(canonical_dumps({"dim": 1, "rows": [[3]]}))
    code, _, err = run(capsys, "snf", str(workdir / "odd.json"))
    assert code == 2

    code, _, err = run(capsys, "verify", str(workdir / "missing.json"))
    assert code == 2


@pytest.mark.parametrize("dim", ["true", "2.0", '"2"'], ids=["bool", "float", "string"])
def test_non_integer_dim_is_input_error(workdir, capsys, dim):
    """A dim must be a JSON integer in a matrix and in a filter (true == 1 and
    2.0 == 2 in Python, so a plain comparison let them through)."""
    rows = [[1, 1], [-1, 1]] if dim != "true" else [[2]]
    (workdir / "m.json").write_text(f'{{"dim":{dim},"rows":{json.dumps(rows)}}}')
    code, out, err = run(capsys, "snf", str(workdir / "m.json"))
    assert (code, out) == (2, "")
    assert "'dim'" in err and "not an integer" in err

    data = json.loads((workdir / "haar1d.json").read_text())
    text = canonical_dumps(data).replace('"dim":1', f'"dim":{dim}', 1)
    (workdir / "f.json").write_text(text)
    code, out, err = run(capsys, "reduce", str(workdir / "f.json"))
    assert (code, out) == (2, "")
    assert "not an integer" in err


def test_config_file_and_output_dir(workdir, capsys, tmp_path, monkeypatch):
    out_dir = tmp_path / "artifacts"
    monkeypatch.delenv("LATWAV_OUTPUT_DIR")
    config = workdir / "config.json"
    config.write_text(canonical_dumps({
        "tolerance": 1e-8,
        "output_dir": str(out_dir),
    }))
    code, out, _ = run(
        capsys, "--config", str(config),
        "cascade", str(workdir / "haar1d.json"), "--levels", "3",
    )
    assert code == 0
    assert (out_dir / "haar1d.grid.csv").exists()

    bad = workdir / "badconfig.json"
    bad.write_text(canonical_dumps({"unknown_knob": 1}))
    code, _, err = run(capsys, "--config", str(bad), "bundled", "haar1d")
    assert code == 2
    assert "unknown" in err


def _fail_if_called(*args, **kwargs):
    raise AssertionError("computed before the input was checked")


@pytest.mark.parametrize("how", ["env-is-a-file", "config-under-a-file"])
def test_unusable_output_dir_is_input_error_before_any_compute(workdir, capsys, monkeypatch,
                                                               how):
    afile = workdir / "afile"
    afile.write_text("not a directory")
    argv = []
    if how == "env-is-a-file":
        monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(afile))
    else:
        monkeypatch.delenv("LATWAV_OUTPUT_DIR")
        config = workdir / "config.json"
        config.write_text(canonical_dumps({"output_dir": str(afile / "sub")}))
        argv = ["--config", str(config)]
    monkeypatch.setattr("latwav.cascade.run_cascade", _fail_if_called)
    monkeypatch.setattr("latwav.quincunx.support_pattern", _fail_if_called)
    for command in (["cascade", str(workdir / "db4.json"), "--levels", "2"],
                    ["quincunx", "pattern", "--width", "2"]):
        code, out, err = run(capsys, *argv, *command)
        assert code == 2, err
        assert out == ""
        assert err.startswith("error: output directory") and "cannot be created" in err
        assert "Traceback" not in err
    assert afile.read_text() == "not a directory"


@pytest.mark.parametrize("command", [
    ["reduce", "{db4}"],
    ["verify", "{db4}"],
    ["transfer", "{db4}", "--target", "{quincunx}"],
    ["cascade", "{db4}", "--levels", "1"],
], ids=["reduce", "verify", "transfer", "cascade"])
def test_pair_budget_is_checked_before_the_build(workdir, capsys, monkeypatch, command):
    """db4's system holds 6 pairs (two parity classes of 2 points): a budget
    of 5 refuses it with exit 2 before any bucket exists, 6 admits it."""
    command = [a.format(db4=workdir / "db4.json", quincunx=workdir / "quincunx.json")
               for a in command]
    config = workdir / "config.json"
    config.write_text('{"pair_budget": 5}')
    with monkeypatch.context() as patch:
        patch.setattr(importlib.import_module("latwav.lawton"), "build_reduced_system",
                      _fail_if_called)
        code, out, err = run(capsys, "--config", str(config), *command)
    assert code == 2
    assert out == ""
    assert error_line(err).endswith("the reduced system needs 6 pairs, pair budget is 5")
    config.write_text('{"pair_budget": 6}')
    code, _, err = run(capsys, "--config", str(config), *command)
    assert code == 0, err


@pytest.mark.parametrize("argv, want", [
    (["reduce", "{db4}"],
     {"support": 1, "chart": [1], "build": 1, "pairs": [6], "from_matrix": 1, "snf": 1,
      "scan": 1}),
    (["verify", "{db4}"], {"support": 1, "chart": [1], "from_matrix": 1, "snf": 1, "scan": 1}),
    (["cascade", "{db4}", "--levels", "8"],
     {"support": 1, "chart": [1], "from_matrix": 1, "snf": 1, "scan": 1,
      "cells": [4, 10, 22, 46, 94, 190, 382, 766]}),
    (["transfer", "{db4}", "--target", "{quincunx}"],
     {"support": 3, "chart": [1, 1, 2], "from_matrix": 3, "snf": 3, "verify": 3, "scan": 1}),
    (["snf", "{quincunx}"], {"snf": 1}),
    (["basis", "{quincunx}"], {"snf": 1}),
    (["encode", "eval", "--d", "2", "--N", "1", "--point", "1,2"], {}),
    (["quincunx", "pattern", "--width", "2"], {}),
    (["bundled", "db4"], {"from_matrix": 1, "snf": 1}),
], ids=["reduce", "verify", "cascade", "transfer", "snf", "basis", "encode", "quincunx",
        "bundled"])
def test_cli_work_ledger(workdir, capsys, monkeypatch, argv, want):
    """The work a command does, pinned where timings cannot be: one
    SupportSet, one chart and one ``from_matrix`` run (the filter's matrix)
    for the input filter, no witness check, and db4's cells per cascade
    level.  Each ``from_matrix`` runs one SNF; besides them only ``snf`` and
    ``basis`` run one, on a matrix they never make a DilationMatrix of, and
    ``verify``'s QMF shift reads the adapted basis that ``from_matrix`` keeps.
    Only ``reduce`` builds the reduced system, once, off the chart that the
    pair budget computed: ``verify`` and the cascade's residual warning read
    that chart.  ``transfer`` builds no system either: it makes three
    SupportSets, charts and ``from_matrix`` runs (source, [2] and target)
    and three chart checks.  ``bundled db4`` makes [2] and no chart;
    ``encode eval`` and ``quincunx pattern`` do none of this work.  Every
    build stores the pairs that ``pair_count`` gives for the input.  Each of
    ``reduce``, ``verify``, ``cascade`` and ``transfer`` makes one O(L^2)
    same-parity scan: the build's, the residuals', or the source chart's
    generator pairs, which both transfer stages read.  A change that adds
    work fails here on every machine."""
    pairs = pair_count(daubechies4_1d().chart)
    counts = count_work(monkeypatch)
    code, _, err = run(capsys, *(a.format(db4=workdir / "db4.json",
                                          quincunx=workdir / "quincunx.json") for a in argv))
    assert code == 0, err
    assert counts == want
    assert counts.get("pairs", []) == [pairs] * counts.get("build", 0)


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_collector_state(workdir, capsys, enabled):
    """Commands run with the cyclic collector paused; an in-process caller
    gets its own setting back after exit codes 0, 1 and 2."""
    bad = Filter.from_coeffs(haar_1d().matrix, {(0,): 0.8, (1,): 0.7})
    (workdir / "bad.json").write_text(canonical_dumps(filter_to_json(bad)))
    (workdir / "broken.json").write_text('{"dim": 2')
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, want in ((["reduce", workdir / "db4.json"], 0),
                           (["verify", workdir / "bad.json"], 1),
                           (["snf", workdir / "broken.json"], 2)):
            code, _, _ = run(capsys, *map(str, argv))
            assert (code, gc.isenabled()) == (want, enabled)
    finally:
        gc.enable()


def test_cascade_level_cap(workdir, capsys):
    code, _, err = run(capsys, "cascade", str(workdir / "haar1d.json"), "--levels", "30")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("field, value", [
    ("re", '"abc"'), ("re", '"NaN"'), ("re", "1e309"), ("re", "NaN"),
    ("re", "true"), ("re", "1" + "0" * 400), ("im", "-1e400"),
], ids=["string", "nan-string", "1e309", "nan", "bool", "huge-int", "im-inf"])
def test_non_finite_or_non_numeric_coefficient_is_input_error(workdir, capsys, field, value):
    """Coefficient values must be finite JSON numbers: anything else exits 2
    with a message and writes nothing on stdout."""
    data = json.loads((workdir / "haar1d.json").read_text())
    data["coeffs"][1][field] = "PLACEHOLDER"
    (workdir / "bad_value.json").write_text(
        canonical_dumps(data).replace('"PLACEHOLDER"', value)
    )
    code, out, err = run(capsys, "verify", str(workdir / "bad_value.json"))
    assert code == 2
    assert out == ""
    assert f"coeffs[1].{field}" in err and "not a finite number" in err


# the QMF check's numpy arithmetic warns about the overflow on its way
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowing_result_is_not_written_as_nan(workdir, capsys):
    """Finite input whose residuals overflow double precision: strict JSON
    output refuses the infinity instead of printing a bare token."""
    big = Filter.from_coeffs(haar_1d().matrix, {(0,): 1e200, (1,): 1e200})
    (workdir / "big.json").write_text(canonical_dumps(filter_to_json(big)))
    code, out, err = run(capsys, "verify", str(workdir / "big.json"))
    assert code == 2
    assert out == ""
    assert "not finite" in err


def _two_tap(points) -> str:
    d = len(points[0])
    matrix = '{"dim":1,"rows":[[2]]}' if d == 1 else '{"dim":2,"rows":[[1,1],[-1,1]]}'
    coeffs = ",".join('{"n":[%s],"re":0.7071067811865476}' % ",".join(p) for p in points)
    return '{"dim":%d,"matrix":%s,"coeffs":[%s]}' % (d, matrix, coeffs)


@pytest.mark.parametrize("argv, text, message", [
    (["verify", "{f}"], _two_tap([("1" + "0" * 4999,), ("1",)]), "too large to read: Exceeds the limit"),
    (["--config", "{f}", "bundled", "haar1d"], '{"cell_budget":1' + "0" * 4999 + "}",
     "too large to read: Exceeds the limit"),
    (["verify", "{f}"], _two_tap([("1" + "0" * 400,), ("1",)]), "beyond double range"),
    (["verify", "{f}"], _two_tap([("1" + "0" * 2200, "0"), ("0", "1")]), "beyond double range"),
    (["transfer", "{f}", "--target", "{quincunx}"], _two_tap([("0", "0"), ("1" + "0" * 2200, "1")]),
     "integer too long to print"),
    (["cascade", "{f}", "--levels", "2"], _two_tap([("1" + "0" * 400,), ("1",)]),
     "beyond double range"),
    (["cascade", "{f}", "--levels", "2"], _two_tap([("9" * 4300,), ("1",)]), "too long to print"),
], ids=["verify-long-literal", "config-long-literal", "verify-1d-far", "verify-2d-far",
        "transfer-long-result", "cascade-far-centre", "cascade-long-cell"])
def test_integers_beyond_float_or_print_range_are_input_errors(workdir, capsys, argv, text,
                                                               message):
    """Integers too long to parse or print, or too large for a float, exit
    2 with a message naming the cause; a cascade writes no artifacts."""
    (workdir / "f.json").write_text(text)
    before = sorted(workdir.iterdir())
    paths = {"f": workdir / "f.json", "quincunx": workdir / "quincunx.json"}
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert out == ""
    assert message in error_line(err)
    assert sorted(workdir.iterdir()) == before


def test_cascade_whose_level_difference_overflows_is_an_input_error(workdir, capsys):
    """Taps of 1e300 keep every cell finite for three levels, but the square
    in a level difference overflows: exit 2 with one error line after the
    residual warning, no traceback and no artifact."""
    big = Filter.from_coeffs(haar_1d().matrix, {(0,): 1e300, (1,): 1e300})
    (workdir / "big.json").write_text(canonical_dumps(filter_to_json(big)))
    before = sorted(workdir.iterdir())
    code, out, err = run(capsys, "cascade", str(workdir / "big.json"), "--levels", "3")
    assert (code, out) == (2, "")
    assert error_line(err) == (f"error: {workdir / 'big.json'}: "
                               "a level difference is beyond double range")
    assert sorted(workdir.iterdir()) == before


def test_verify_of_a_phase_beyond_double_range_is_an_input_error(workdir, capsys):
    """A position that fits a double, 10^308, whose phase n.xi overflows at
    most sample points: the deviation is NaN, which strict JSON refuses."""
    (workdir / "f.json").write_text(_two_tap([("1" + "0" * 308,), ("1",)]))
    code, out, err = run(capsys, "verify", str(workdir / "f.json"))
    assert (code, out) == (2, "")
    assert err.splitlines() == [error_line(err)]
    assert "result is not finite" in err


TOO_LONG = ("Exceeds the limit (4300 digits) for integer string conversion; "
            "use sys.set_int_max_str_digits() to increase the limit")
E2200 = "1" + "0" * 2200  # 10^2200, whose square has 4401 digits: too many to print
BIG_DIAGONAL = '{"dim": 2, "rows": [[%s, 0], [0, %s]]}' % (E2200, E2200)


@pytest.mark.parametrize("argv, text, message", [
    (["encode", "eval", "--d", "2", "--N", "1", "--point", "1,x"], None,
     "error: --point '1,x' is not a comma-separated integer tuple"),
    (["encode", "eval", "--d", "3", "--N", "1", "--point", "1,2"], None,
     "error: --point has 2 coordinates, --d is 3"),
    (["verify", "{f}"], "[1, 2]", "error: {f}: expected an object"),
    (["verify", "{f}"], '{"dim": 2, "matrix": {"dim": 1, "rows": [[2]]}, "coeffs": []}',
     "error: {f}: dim = 2 but matrix is 1x1"),
    (["snf", "{f}"], '{"dim": 0, "rows": []}', "error: {f}: 'dim' = 0 must be at least 1"),
    (["snf", "{f}"], '{"dim": 1, "rows": [[0]]}', "error: {f}: determinant is 0, expected +/-2"),
    (["basis", "{f}"], '{"dim": 1, "rows": [[0]]}',
     "error: {f}: determinant is 0, expected +/-2"),
    (["--config", "{f}", "cascade", "{db4}", "--levels", "5"], '{"cell_budget": 10}',
     "error: {db4}: level 3 exceeds the cell budget 10"),
    (["--config", "{f}", "bundled", "db4"], '{"tolerance": 1' + "0" * 400 + "}",
     "error: {f}: tolerance must be a positive number, got 1" + "0" * 400),
    (["cascade", "{f}", "--levels", "2"], _two_tap([("1" + "0" * 400,), ("1",)]),
     "error: {f}: a cell centre is beyond double range: int too large to convert to float"),
    (["cascade", "{f}", "--levels", "2"], _two_tap([("9" * 4300,), ("9" * 4299 + "8",)]),
     "error: {f}: a cell position is too long to print: " + TOO_LONG),
    (["verify", "{f}"], _two_tap([("1" + "0" * 308,), ("1",)]),
     "error: {f}: result is not finite: Out of range float values are not JSON compliant"),
    (["transfer", "{f}", "--target", "{quincunx}"], _two_tap([("0", "0"), ("1" + "0" * 2200, "1")]),
     "error: {f}: result holds an integer too long to print: " + TOO_LONG),
    (["reduce", "{f}"], _two_tap([("9" * 4300,), ("-" + "9" * 4300,)]),
     "error: {f}: result holds an integer too long to print: " + TOO_LONG),
    (["snf", "{f}"], BIG_DIAGONAL, "error: {f}: determinant is <4401-digit integer>, expected +/-2"),
    (["basis", "{f}"], BIG_DIAGONAL,
     "error: {f}: determinant is <4401-digit integer>, expected +/-2"),
    (["verify", "{f}"], '{"dim": 2, "matrix": %s, "coeffs": [{"n": [0, 0], "re": 1}]}'
     % BIG_DIAGONAL, "error: {f}.matrix: determinant is <4401-digit integer>, expected +/-2"),
    (["quincunx", "pattern", "--width", E2200], None,
     f"error: --width {E2200} needs <4401-digit integer> coefficients, cell budget is 5000000"),
], ids=["encode-point-not-integer", "encode-point-length", "filter-list", "filter-dim-mismatch",
        "matrix-dim-0", "snf-singular", "basis-singular", "cascade-cell-budget",
        "config-tolerance-beyond-double", "cascade-far-centre", "cascade-long-cell",
        "verify-not-finite", "transfer-long-result", "reduce-long-generator",
        "snf-long-determinant", "basis-long-determinant", "verify-long-determinant",
        "quincunx-width-long-square"])
def test_input_guards_pin_their_message(workdir, capsys, argv, text, message):
    """Each refusal is one line that names its input."""
    paths = {"f": workdir / "f.json", "db4": workdir / "db4.json",
             "quincunx": workdir / "quincunx.json"}
    if text is not None:
        paths["f"].write_text(text)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    assert err.splitlines() == [message.format(**paths)]


# Values that an input may carry: integers at the edges of what JSON reads
# (10^4299 is the longest literal that prints), of double range and of
# int64, and one value of each other JSON type.
HOSTILE = {"1e4299": 10**4299, "-1e4299": -10**4299, "1e400": 10**400, "2^63": 2**63,
           "1e308": 1e308, "-0.0": -0.0, "true": True, "string": "1", "list": [], "null": None}
# A command that reads each config field and refuses or finishes fast.
CONFIG_READERS = {
    "tolerance": ["verify", "{haar}"],
    "cascade_level_cap": ["cascade", "{haar}", "--levels", "1"],
    "cell_budget": ["quincunx", "pattern", "--width", "1"],
    "output_dir": ["quincunx", "pattern", "--width", "1"],
    "pair_budget": ["reduce", "{haar}"],
}
# A fast call of each command with a numeric option; the hostile option
# is appended, and argparse keeps its last occurrence.
OPTION_CALLS = {
    ("verify",): ["verify", "{haar}"],
    ("cascade",): ["cascade", "{haar}", "--levels", "1"],
    ("quincunx", "pattern"): ["quincunx", "pattern", "--width", "1"],
    ("encode", "eval"): ["encode", "eval", "--d", "2", "--N", "1", "--point", "1,2"],
}


def _numeric_options(parser, command=()):
    """(command, option) for each option that the parser reads as a number."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _numeric_options(sub, (*command, name))
        elif action.type in (int, float):
            yield command, action.option_strings[0]


def _hostile_table() -> dict:
    """id -> (argv, the text of the file {f} or None, what a refusal names):
    every config field, every numeric option, a matrix entry (both diagonal
    entries, so the determinant squares it), a filter position and a filter
    tap, crossed with every hostile value."""
    tap = 0.5 ** 0.5
    table = {}
    for label, value in HOSTILE.items():
        for field in Config._fields:
            table[f"config-{field}-{label}"] = (["--config", "{f}", *CONFIG_READERS[field]],
                                                json.dumps({field: value}), "{f}")
        for command, option in _numeric_options(_build_parser()):
            table[f"{command[0]}{option}-{label}"] = (
                [*OPTION_CALLS[command], option, json.dumps(value)], None, option)
        documents = {
            "matrix-entry": ("snf", {"dim": 2, "rows": [[value, 0], [0, value]]}),
            "filter-position": ("verify", {"dim": 1, "matrix": {"dim": 1, "rows": [[2]]},
                                           "coeffs": [{"n": [0], "re": tap},
                                                      {"n": [value], "re": tap}]}),
            "filter-tap": ("verify", {"dim": 1, "matrix": {"dim": 1, "rows": [[2]]},
                                      "coeffs": [{"n": [0], "re": value}, {"n": [1], "re": tap}]}),
        }
        for where, (command, document) in documents.items():
            table[f"{where}-{label}"] = ([command, "{f}"], json.dumps(document), "{f}")
    return table


HOSTILE_TABLE = _hostile_table()


@pytest.mark.parametrize("argv, text, name", HOSTILE_TABLE.values(), ids=list(HOSTILE_TABLE))
def test_every_input_refuses_a_hostile_value_in_one_line(workdir, capsys, monkeypatch, argv,
                                                         text, name):
    """Each case exits 0, 1 or 2 without a traceback.  A refusal is one
    line that names the file or the option; argparse's own refusal of an
    option's text names the option on its last line."""
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("LATWAV_OUTPUT_DIR")  # so the config's output_dir is read
    paths = {"f": workdir / "f.json", "haar": workdir / "haar1d.json"}
    if text is not None:
        paths["f"].write_text(text)
    try:
        code = main([a.format(**paths) for a in argv])
    except SystemExit as exc:
        assert exc.code == 2
        assert f"argument {name}: invalid" in capsys.readouterr().err.splitlines()[-1]
        return
    out, err = capsys.readouterr()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert name.format(**paths) in error_line(err)
    else:
        assert out.count("\n") == 1 and not err.startswith("error:")


def test_a_filter_of_zeros_is_an_input_error(workdir, capsys):
    """Every tap exactly zero: the loader drops them all, with a warning,
    and the library's empty-support error becomes an input error."""
    path = workdir / "f.json"
    path.write_text('{"dim": 1, "matrix": {"dim": 1, "rows": [[2]]}, '
                    '"coeffs": [{"n": [0], "re": 0}]}')
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["warning: dropped 1 exactly-zero coefficient(s)",
                                f"error: {path}: filter support is empty"]


@pytest.mark.parametrize("argv, message", [
    (["encode", "eval", "--d", "2", "--N", "0", "--point", "1,2"], "--N must be >= 1"),
    (["quincunx", "pattern", "--width", "0"], "--width must be >= 1"),
    (["cascade", "{db4}", "--levels", "-2"], "--levels must be nonnegative"),
    (["cascade", "{db4}", "--levels", "2", "--tol", "-1"], "--tol must be a nonnegative number"),
    (["verify", "{db4}", "--tolerance", "-1"], "--tolerance must be a positive number"),
    (["verify", "{db4}", "--tolerance", "0"], "--tolerance must be a positive number"),
    (["verify", "{db4}", "--tolerance", "nan"], "--tolerance must be a positive number"),
    (["encode", "eval", "--d", "3", "--N", "100000", "--point", "1,-2,2"], "digits print"),
    (["encode", "eval", "--d", "3", "--N", "1000000000000", "--point", "1,-2,2"], "digits print"),
    (["encode", "eval", "--d", "1", "--N", "100000", "--point=-2"], "digits print"),
    (["encode", "eval", "--d", "2", "--N", "1" + "0" * 400, "--point", "1,2"], "digits print"),
    (["quincunx", "pattern", "--width", "100000"], "cell budget is 5000000"),
], ids=["encode-N-0", "quincunx-width-0", "cascade-levels-negative", "cascade-tol-negative",
        "verify-tolerance-negative", "verify-tolerance-zero", "verify-tolerance-nan",
        "encode-N-1e5", "encode-N-1e12", "encode-N-1e5-1d", "encode-N-1e400",
        "quincunx-width-1e5"])
def test_out_of_range_option_is_input_error(workdir, capsys, argv, message):
    argv = [a.format(db4=workdir / "db4.json") for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert message in err


def test_encode_eval_prints_codes_near_the_digit_limit(capsys):
    """--N 3000 in 3-D forms integers of about 3,600 digits, under the limit."""
    code, out, _ = run(capsys, "encode", "eval", "--d", "3", "--N", "3000", "--point", "1,-2,2")
    assert code == 0
    assert json.loads(out)["radix_value"] == 1 - 2 * 4 ** 3000 + 2 * 4 ** 6000


@pytest.mark.parametrize("argv", [
    ["cascade", "{db4}", "--levels", "0"],
    ["quincunx", "pattern", "--width", "1"],
], ids=["cascade-levels-0", "quincunx-width-1"])
def test_smallest_accepted_option_runs(workdir, capsys, argv):
    code, out, err = run(capsys, *(a.format(db4=workdir / "db4.json") for a in argv))
    assert (code, err) == (0, "")
    assert json.loads(out)["output_dir"] == str(workdir)


@pytest.mark.parametrize("budget, width, refused", [(25, 2, False), (25, 3, True),
                                                     (24, 2, True)])
def test_quincunx_width_over_the_budget_is_refused_before_compute(workdir, capsys, monkeypatch,
                                                                  budget, width, refused):
    """--width W needs (2W + 1)^2 cells; a width over the budget is refused
    before the pattern is computed or written."""
    quincunx = importlib.import_module("latwav.quincunx")
    calls = []
    compute = quincunx.support_pattern
    monkeypatch.setattr(quincunx, "support_pattern", lambda w: calls.append(w) or compute(w))
    config = workdir / "config.json"
    config.write_text(json.dumps({"cell_budget": budget}))
    code, out, err = run(capsys, "--config", str(config), "quincunx", "pattern",
                         "--width", str(width))
    csv = workdir / f"quincunx_pattern_w{width}.csv"
    if refused:
        assert (code, out, calls, csv.exists()) == (2, "", [], False)
        assert err == (f"error: --width {width} needs {(2 * width + 1) ** 2} coefficients, "
                       f"cell budget is {budget}\n")
    else:
        assert (code, err, calls, csv.exists()) == (0, "", [width], True)


def test_quincunx_width_at_the_cell_budget(workdir, capsys):
    config = workdir / "config.json"
    config.write_text('{"cell_budget": 49}')
    code, _, _ = run(capsys, "--config", str(config), "quincunx", "pattern", "--width", "3")
    assert code == 0
    code, _, err = run(capsys, "--config", str(config), "quincunx", "pattern", "--width", "4")
    assert code == 2
    assert "cell budget is 49" in err


@pytest.mark.parametrize("text, message", [
    (None, "No such file"),
    ('{"tolerance": "x"}', "tolerance must be a positive number"),
    ('{"tolerance": NaN}', "tolerance must be a positive number"),
    ('{"cell_budget": 1.5}', "cell_budget must be a positive integer"),
    ('{"output_dir": 3}', "output_dir must be a string"),
    ("5", "config must be a JSON object"),
    ("[1]", "config must be a JSON object"),
    ('"x"', "config must be a JSON object"),
    ('{"enumeration_budget": 5}', "unknown config keys"),
], ids=["missing", "tolerance-string", "tolerance-nan", "budget-float", "output-dir-number",
        "number", "array", "string", "enumeration-budget"])
def test_bad_config_file_is_input_error(workdir, capsys, text, message):
    config = workdir / "config.json"
    if text is not None:
        config.write_text(text)
    code, out, err = run(capsys, "--config", str(config), "bundled", "haar1d")
    assert code == 2
    assert out == ""
    assert message in err


def test_undecodable_file_is_input_error(workdir, capsys):
    (workdir / "binary.json").write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "verify", str(workdir / "binary.json"))
    assert code == 2
    assert "decode" in err
    code, _, err = run(capsys, "--config", str(workdir / "binary.json"), "bundled", "haar1d")
    assert code == 2
    assert "decode" in err


def test_output_is_compact_canonical_json(workdir, capsys):
    code, out, _ = run(capsys, "reduce", str(workdir / "db4.json"))
    assert code == 0
    text = out.rstrip("\n")
    assert "\n" not in text and ": " not in text and ", " not in text
    assert canonical_dumps(json.loads(text)) == text
    assert list(json.loads(text)) == sorted(json.loads(text))


GOLDEN_MATRICES = {
    "dilation2": '{"dim":1,"rows":[[2]]}',
    "quincunx": '{"dim":2,"rows":[[1,1],[-1,1]]}',
    "antidiagonal": '{"dim":2,"rows":[[0,2],[1,0]]}',
    "companion3d": '{"dim":3,"rows":[[0,0,-2],[1,0,0],[0,1,0]]}',
}
GOLDEN_FILTERS = ("db4", "haar1d", "quincunx_db4", "quincunx_haar")
# SHA-256 of each call's stdout (or artifact); see _golden_outputs.
GOLDEN_DIGESTS = {
    "bundled db4": "247a8e179dd2acafde281c40717decef628c7a8723c6a64eedbb539489ec0419",
    "reduce db4": "8b2f6851d63a1961cfc72a94b3d40732a096963f249eb06a3233ed017753f7d7",
    "verify db4": "0a98f5aa9508342f42ba51b1fdaa88a834a16959e864754833509d5bb4b1ebde",
    "bundled haar1d": "5a0532dc36d3ec685a971839f5c1525f4d01dab3180b425ac8af7c8d20142713",
    "reduce haar1d": "97d6459d3914f4dee10235a17331c1490e03c8923d13b25c3437915ba52ed4aa",
    "verify haar1d": "d486a04bfa1baa9a9a2571da886be09d31c6cc7bb691462d818665f08a2b56f6",
    "bundled quincunx_db4": "a41b248252cfa9768072d4bc66960036fdfa3e2f8be5f6c632ca01c9fe31bc87",
    "reduce quincunx_db4": "1277409d51205bd4dac96c7591c34a253186c135df8ea6b337ac05b0a6e093cc",
    "verify quincunx_db4": "2ba4303d0b2a0b96fad51f98846e93a112c45c577dbe743dd2a1f401c2467d9a",
    "bundled quincunx_haar": "13ec272d974c0b2478121c7f8dd4f79a25c70a3fee293d77bcdea53437e9ea9c",
    "reduce quincunx_haar": "fcad0a5d4ad9cb329cb17d0a378f2315bebd2869c13c903d92a8aa893b2644b5",
    "verify quincunx_haar": "685d8e9317287ea4b23604e4e9b1306ced45c330db237b3122d18b819e44b758",
    "transfer db4 dilation2": "838fe0e1f927d47f2e9c80ed04505bc8802cd6ebf9a110c941f512dcd4223015",
    "transfer db4 quincunx": "fe13bf95b8aab6e9e260ce91861f5b9e0b845178a33b5d3ef8b01f2bb0172822",
    "transfer db4 antidiagonal": "4a2b0934529fc065737f3fcf9c780b7d60f82ae97747336fbf3c414e7c209445",
    "transfer db4 companion3d": "b63a8902ca9fe0d0bed6e52121ffa27fb951865e3dfa614636885645631bdad7",
    "transfer quincunx_db4 dilation2": "6e0da3134eaa3677b1015e7f6e4cdcb079e6da6312cfd5f0160fafb72d80b6de",
    "transfer quincunx_db4 quincunx": "aa4bc0c10d78214c73eb87a9fc8fc1893ae5c3a994c2edb96095e1a3dbe2d858",
    "transfer quincunx_db4 antidiagonal": "4e6092cec9f804569185d790ae0ce6580bf70f67448b6b5ccf77a5e46a718ef9",
    "transfer quincunx_db4 companion3d": "bd841a58f4d03fdd01e70bf8102262db64d3ee32ace341e5cd5ff678335de355",
    "snf quincunx": "2aeba79ea085fdc3a3a93997c43c2f98c4c9c6b30282fd27d52b3264e7089ed3",
    "basis quincunx": "2573a15c11e6501f84bc1d030191bc0dc87ec0b0c788b278fb32a0f88602a1bf",
    "snf companion3d": "99221f79a6a280d3a1cd1e64597f95d2b733a290bad646ecd4da62cf00b975b7",
    "basis companion3d": "13794bf3c7aa286e492de0416481107e1c674cd00f03bf5d4da109703a512a29",
    "encode eval": "84750618c056d111ce7ff7c678ad9095cdec77a4f7d7a9a0e4ec1f962d555e8a",
    "cascade db4": "b43417ecbdd72a4f025ab77bd01422fa783af6ec2cfcd6fb525cd6b7c4dfdb29",
    "cascade db4.grid.csv": "a1c4bbfd360742a99d1e7460350dcecdaa4f5ddd4af5930edfe8a675843eadb2",
    "cascade db4.grid.json": "9c1d236ca4afa1b400241f82acc1a46725ebc119aa7992ccb23a40a2df6764eb",
    "cascade db4.convergence.csv": "e0855634508e52be0a8c8d25503df4c4ec6a8a8c0522bf125b6ac5e4c4da8807",
    "cascade db4.phi.csv": "953f395c35df351c8a05aed87dcdae43bd2e01ce396ec6bbcec8ac0a79ccf409",
    "cascade quincunx_db4": "ad94dcd7a039500bf8d85ba14bd6828a064146d0f90bf1d96bac0c21c9e289b7",
    "cascade quincunx_db4.grid.csv": "d94e6bc605c525d9a6ef24e29b262e3899cd37a08bd39fc223b1ac072ae9269a",
    "cascade quincunx_db4.convergence.csv": "18a977428e3c201f3c61f06179621ab25fdf846ed4431414f2cc11015a06a634",
    "cascade quincunx_haar": "eba2b270311f10608382ea8265c49d41f57e3aa2332b70c1a7a199d3fcb819f9",
    "cascade quincunx_haar.grid.csv": "42928b688ba9081a6ab8c7f588ee35c886b4b5f5197b6b3694e1f573201c5875",
    "cascade quincunx_haar.convergence.csv": "e5afb816667a6fb1055b931b202f883ccc274b626e0e19643fd72a496745c6c5",
}


def _golden_outputs(tmp_path, capsys) -> dict[str, bytes]:
    """Stdout of a fixed set of CLI calls, and the artifacts of three cascades.

    ``verify`` keeps only its residual fields: ``qmf_deviation`` is sampled
    through numpy and its last bits depend on the BLAS kernel.  The cascade
    summary drops ``output_dir``, which names the temporary directory.
    """
    outputs = {}

    def call(name, *argv):
        code = main([str(a) for a in argv])
        text = capsys.readouterr().out
        assert code == 0, name
        outputs[name] = text.encode()
        return text

    for name, text in GOLDEN_MATRICES.items():
        (tmp_path / f"{name}.json").write_text(text)
    for name in GOLDEN_FILTERS:
        (tmp_path / f"{name}.json").write_text(call(f"bundled {name}", "bundled", name))
        call(f"reduce {name}", "reduce", tmp_path / f"{name}.json")
        data = json.loads(call(f"verify {name}", "verify", tmp_path / f"{name}.json"))
        pinned = {k: data[k] for k in ("per_index", "sum_residual", "max_residual")}
        outputs[f"verify {name}"] = json.dumps(pinned, sort_keys=True).encode()
    for name in ("db4", "quincunx_db4"):
        for target in GOLDEN_MATRICES:
            call(f"transfer {name} {target}", "transfer", tmp_path / f"{name}.json",
                 "--target", tmp_path / f"{target}.json")
    for target in ("quincunx", "companion3d"):
        for command in ("snf", "basis"):
            call(f"{command} {target}", command, tmp_path / f"{target}.json")
    call("encode eval", "encode", "eval", "--d", "3", "--N", "2", "--point", "1,-2,2")

    cascades = {
        "db4": ("6", ("grid.csv", "grid.json", "convergence.csv", "phi.csv")),
        "quincunx_db4": ("8", ("grid.csv", "convergence.csv")),
        "quincunx_haar": ("8", ("grid.csv", "convergence.csv")),
    }
    for name, (levels, suffixes) in cascades.items():
        summary = json.loads(call(f"cascade {name}", "cascade", tmp_path / f"{name}.json",
                                  "--levels", levels))
        del summary["output_dir"]
        outputs[f"cascade {name}"] = json.dumps(summary, sort_keys=True).encode()
        for suffix in suffixes:
            outputs[f"cascade {name}.{suffix}"] = (
                tmp_path / "out" / f"{name}.{suffix}").read_bytes()
    return outputs


def test_cli_output_matches_golden_digests(tmp_path, capsys, monkeypatch):
    """CLI output stays byte-identical across refactors: the digests were
    recorded before the reduced system became a cached property of Filter,
    and the quincunx cascades before level_difference sampled through the
    closed-form digit set."""
    monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(tmp_path / "out"))
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in _golden_outputs(tmp_path, capsys).items()
    }
    assert digests == GOLDEN_DIGESTS


def test_golden_documents_dump_as_with_cycle_checks(tmp_path, capsys, monkeypatch):
    """Every document the golden calls print or write is byte-identical to
    the former dump, which kept the encoder's cycle markers.  ``reduce``
    prints through ``system_dumps``, compared with that dump of
    ``system_to_json``; its point texts are not counted as documents."""
    monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(tmp_path / "out"))
    documents, systems = [], []

    def checked(obj):
        text = canonical_dumps(obj)
        assert text == reference_canonical_dumps(obj)
        documents.append(text)
        return text

    def checked_system(system):
        with monkeypatch.context() as inner:
            inner.setattr(latwav.jsonio, "canonical_dumps", canonical_dumps)
            text = system_dumps(system)
        assert text == reference_canonical_dumps(system_to_json(system))
        systems.append(text)
        return text

    monkeypatch.setattr(latwav.jsonio, "canonical_dumps", checked)
    monkeypatch.setattr(latwav.jsonio, "system_dumps", checked_system)
    _golden_outputs(tmp_path, capsys)
    assert len(documents) == 27  # 24 printed documents and 3 grid.json sidecars
    assert len(systems) == 4  # one reduce per golden filter


def _zero_tap_filter(workdir, filt=None):
    """A 1-D ``filt`` (Haar by default) with one more tap, exactly zero, past
    its last, in ``zero.json``."""
    data = json.loads(canonical_dumps(filter_to_json(filt or haar_1d())))
    data["coeffs"].append({"n": [len(data["coeffs"])], "re": 0.0})
    (workdir / "zero.json").write_text(json.dumps(data))
    return workdir / "zero.json"


def test_library_warnings_print_as_one_warning_line(workdir, capsys):
    """A library warning prints as `warning: <message>` alone, like the
    `error:` lines: no source path, no category, no echoed source line."""
    code, out, err = run(capsys, "reduce", str(_zero_tap_filter(workdir)))
    assert code == 0 and json.loads(out)["support"] == [[0], [1]]
    assert err == "warning: dropped 1 exactly-zero coefficient(s)\n"

    bad = Filter.from_coeffs(haar_1d().matrix, {(0,): 0.9, (1,): 0.7071067811865476})
    (workdir / "bad.json").write_text(canonical_dumps(filter_to_json(bad)))
    code, out, err = run(capsys, "cascade", str(workdir / "bad.json"), "--levels", "2")
    assert code == 0 and json.loads(out)["level"] == 2
    assert err == ("warning: filter residual 3.100e-01 exceeds 1.0e-10; "
                   "cascade convergence is not guaranteed\n")


def test_stdout_closed_early_in_process(workdir, capsys, monkeypatch):
    """The same in process: a write to a pipe whose reader is gone returns
    1 from ``main`` with nothing on stderr, and the later flush is silent."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    # Line-buffered, so the command's print writes to the pipe at once.
    with open(write_end, "w", buffering=1) as closed, monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", closed)
        code = main(["reduce", str(workdir / "db4.json")])
        print("more")
    assert (code, capsys.readouterr().err) == (1, "")


def _big_filter(tmp_path) -> Path:
    """A 1-D filter of 512 taps, whose reduced system prints megabytes."""
    big = Filter.from_coeffs(haar_1d().matrix, {(n,): math.sin(n + 1) for n in range(512)})
    (tmp_path / "big.json").write_text(canonical_dumps(filter_to_json(big)))
    return tmp_path / "big.json"


def _child(argv, cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=None,
           **env) -> subprocess.Popen:
    """``python -m latwav.cli`` with ``argv`` in a child process, its stdout
    block-buffered as in a shell pipe: ``PYTHONUNBUFFERED`` is removed from
    its environment unless ``env`` sets it.  ``env`` adds to the environment,
    and ``preexec_fn`` runs in the child before it starts Python."""
    return subprocess.Popen([sys.executable, "-m", "latwav.cli", *argv], cwd=cwd,
                            env=child_env(**{"PYTHONUNBUFFERED": None, **env}),
                            stdout=stdout, stderr=stderr, preexec_fn=preexec_fn)


def test_stdout_closed_early_exits_1_with_no_message(tmp_path):
    """A reader that closes stdout after 10 bytes, as ``latwav reduce big.json
    | head -c 10`` does, leaves exit 1 and an empty stderr: no traceback."""
    proc = _child(["reduce", _big_filter(tmp_path).name], tmp_path)
    head = proc.stdout.read(10)
    proc.stdout.close()  # the output is megabytes: the child is still writing
    code = proc.wait(timeout=120)
    err = proc.stderr.read()
    proc.stderr.close()
    assert head == b'{"equation'
    assert (code, err) == (1, b"")


@pytest.mark.parametrize("argv", [["bundled", "db4"], ["--help"]])
def test_buffered_output_closed_before_the_exit_flush_exits_1_with_no_message(tmp_path, argv):
    """A small output stays in stdout's buffer until the exit flush.  When the
    reader has already gone, as in ``latwav bundled db4 | true``, that flush
    fails, and the process still exits 1 with an empty stderr; so does
    argparse's ``--help``."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child(argv, tmp_path, stdout=write_end)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (1, b"")


def test_buffered_output_reaches_the_reader_in_full(tmp_path, capsys):
    """The process ends only after its output is flushed: a child's ``reduce``
    of 512 taps, read to the end, is byte for byte ``main``'s output."""
    path = _big_filter(tmp_path)
    assert main(["reduce", str(path)]) == 0
    want = capsys.readouterr().out.encode()
    out, err = _child(["reduce", path.name], tmp_path).communicate(timeout=120)
    assert (err, out) == (b"", want)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv, env", [
    (["bundled", "db4"], {}),
    (["bundled", "db4"], {"PYTHONUNBUFFERED": "1"}),
    (["reduce", "big.json"], {}),
], ids=["exit-flush", "unbuffered-print", "buffered-megabytes"])
def test_output_to_a_full_disk_exits_1_with_one_error_line(tmp_path, argv, env):
    """A write to stdout that fails for want of space prints one error line
    and exits 1, never 0, with no traceback: at the exit flush of a small
    buffered output, or inside the command, at an unbuffered ``print`` or
    once a buffered output outgrows stdout's buffer (``reduce`` of 512 taps)."""
    _big_filter(tmp_path)
    with open("/dev/full", "wb") as full:
        proc = _child(argv, tmp_path, stdout=full, **env)
        _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err.decode() == "error: the output cannot be written: No space left on device\n"


def test_a_print_to_a_full_disk_in_process_exits_1_with_one_error_line(workdir, capsys,
                                                                        monkeypatch):
    """In process: a ``print`` inside a command that fails for want of space
    returns 1 from ``main`` with one error line, and points stdout's file at
    the null device, so the later flush neither fails nor writes."""
    class Full(io.FileIO):
        full = True

        def write(self, data):
            if self.full:
                raise OSError(errno.ENOSPC, "No space left on device")
            return super().write(data)

    raw = Full(workdir / "stdout.txt", "w")
    # Line-buffered, so the command's print writes at once.
    with io.TextIOWrapper(io.BufferedWriter(raw), line_buffering=True) as stdout, \
            monkeypatch.context() as patch:
        patch.setattr(sys, "stdout", stdout)
        code = main(["bundled", "db4"])
        raw.full = False  # the file under the descriptor is now the null device
        stdout.flush()
    assert (code, capsys.readouterr().err) == (
        1, "error: the output cannot be written: No space left on device\n")
    assert (workdir / "stdout.txt").read_text() == ""


class _FullStream(io.TextIOBase):
    """A text stream on a full disk: each write keeps its text in ``tried``,
    then raises ``ENOSPC``."""

    def __init__(self):
        self.tried = []

    def write(self, text):
        self.tried.append(text)
        raise OSError(errno.ENOSPC, "No space left on device")


FULL_STDERR_CASES = pytest.mark.parametrize("argv, code", [
    (["snf", "missing.json"], 2),
    (["verify", "db4.json", "--tolerance", "-1"], 2),
    (["verify", "zero.json"], 0),
], ids=["snf-missing", "verify-tolerance", "verify-zero-tap"])


@FULL_STDERR_CASES
def test_a_stderr_that_cannot_be_written_keeps_the_exit_code(workdir, capsys, monkeypatch,
                                                             argv, code):
    """In process, with every write to stderr failing: the error or warning
    line is lost, and nothing else changes.  An input error still returns 2,
    and a ``verify`` whose only stderr line is a warning still returns 0 with
    its stdout unchanged."""
    monkeypatch.chdir(workdir)
    _zero_tap_filter(workdir, daubechies4_1d())
    want = run(capsys, *argv)
    assert want[0] == code and want[2].count("\n") == 1
    full = _FullStream()
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stderr", full)
        got = main(argv)
    assert (got, capsys.readouterr().out) == want[:2]
    assert [line + "\n" for line in full.tried] == [want[2]]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("env", [{}, {"PYTHONUNBUFFERED": "1"}], ids=["buffered", "unbuffered"])
@FULL_STDERR_CASES
def test_a_child_whose_stderr_is_a_full_disk_keeps_the_exit_code(workdir, capsys, monkeypatch,
                                                                  argv, code, env):
    """The same in a child with stderr on ``/dev/full``, whether its streams
    are buffered or not: no exit 120 from a failed flush at exit, and no
    exit 1 from a traceback that cannot be printed."""
    monkeypatch.chdir(workdir)
    _zero_tap_filter(workdir, daubechies4_1d())
    want = run(capsys, *argv)[1]
    with open("/dev/full", "wb") as full:
        proc = _child(argv, workdir, stderr=full, **env)
        out, _ = proc.communicate(timeout=120)
    assert (proc.returncode, out.decode()) == (code, want)


def _fail_writing(monkeypatch, name):
    """``Path.write_text`` of a file whose name holds ``name`` writes half of
    its text, then raises ``EFBIG``, as a write past the file-size limit does."""
    write_text = Path.write_text

    def write(self, text, *args, **kwargs):
        if name in self.name:
            write_text(self, text[:len(text) // 2], *args, **kwargs)
            raise OSError(errno.EFBIG, "File too large")
        return write_text(self, text, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", write)


@pytest.mark.parametrize("argv, name", [
    (["cascade", "db4.json", "--levels", "6"], "db4.phi.csv"),
    (["quincunx", "pattern", "--width", "3"], "quincunx_pattern_w3.csv"),
], ids=["cascade-phi", "quincunx"])
def test_a_failed_artifact_write_leaves_no_file(workdir, capsys, monkeypatch, argv, name):
    """An artifact that cannot be written ends the command with exit 1, one
    error line naming it and no summary, and the output directory holds
    neither that command's files under their final names nor a temporary:
    ``cascade``'s ``phi.csv`` is its last artifact, after three that were
    written in full."""
    monkeypatch.chdir(workdir)
    before = sorted(os.listdir(workdir))
    _fail_writing(monkeypatch, name)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {workdir / name} cannot be written: File too large\n"
    assert sorted(os.listdir(workdir)) == before


def test_a_failed_rename_leaves_the_output_directory_as_it_was(workdir, capsys, monkeypatch):
    """A directory under ``phi.csv``'s final name is refused before any
    artifact is written: exit 1 with one line naming the final path, not a
    temporary, and the output directory holds that directory alone."""
    out = workdir / "out"
    (out / "db4.phi.csv").mkdir(parents=True)
    monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(out))
    code, stdout, err = run(capsys, "cascade", str(workdir / "db4.json"), "--levels", "3")
    assert (code, stdout) == (1, "")
    assert err == f"error: {out / 'db4.phi.csv'} cannot be written: {os.strerror(errno.EISDIR)}\n"
    assert os.listdir(out) == ["db4.phi.csv"]


def test_a_directory_over_an_earlier_run_keeps_its_other_three_files_intact(workdir, capsys,
                                                                           monkeypatch):
    """The same over the four artifacts of an earlier run, its ``phi.csv``
    since replaced by a directory: exit 1 with the one line, no temporary
    left, and the earlier run's other three files present and byte-identical,
    since the refusal comes before any rename."""
    out = workdir / "out"
    monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(out))
    db4 = str(workdir / "db4.json")
    assert run(capsys, "cascade", db4, "--levels", "3")[0] == 0
    (out / "db4.phi.csv").unlink()
    earlier = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(earlier) == ["db4.convergence.csv", "db4.grid.csv", "db4.grid.json"]
    (out / "db4.phi.csv").mkdir()
    code, stdout, err = run(capsys, "cascade", db4, "--levels", "4")
    assert (code, stdout) == (1, "")
    assert err == f"error: {out / 'db4.phi.csv'} cannot be written: {os.strerror(errno.EISDIR)}\n"
    assert sorted(os.listdir(out)) == sorted([*earlier, "db4.phi.csv"])
    assert {name: (out / name).read_bytes() for name in earlier} == earlier


def test_a_failed_last_rename_takes_back_the_artifacts_renamed_before_it(workdir, capsys,
                                                                         monkeypatch):
    """A rename that fails after the others have succeeded (``EBUSY`` on
    ``phi.csv``, cascade's last) unlinks the three artifacts this run had
    renamed: exit 1 with one line naming the final path, and no file of
    this run.  An earlier run's files under those three names go with them;
    its ``phi.csv``, never replaced, stays as it was."""
    out = workdir / "out"
    monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(out))
    db4 = str(workdir / "db4.json")
    assert run(capsys, "cascade", db4, "--levels", "3")[0] == 0
    phi = (out / "db4.phi.csv").read_bytes()
    replace = os.replace

    def busy_phi(src, dst):
        if Path(dst).name == "db4.phi.csv":
            raise OSError(errno.EBUSY, os.strerror(errno.EBUSY), str(src))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", busy_phi)
    code, stdout, err = run(capsys, "cascade", db4, "--levels", "4")
    assert (code, stdout) == (1, "")
    assert err == f"error: {out / 'db4.phi.csv'} cannot be written: {os.strerror(errno.EBUSY)}\n"
    assert os.listdir(out) == ["db4.phi.csv"]
    assert (out / "db4.phi.csv").read_bytes() == phi


def test_a_symlink_under_a_final_name_is_replaced_even_if_it_points_to_a_directory(
        workdir, capsys, monkeypatch):
    """Only a directory itself is refused: a symlink under an artifact's
    final name is replaced by the artifact, and its target is left alone."""
    out, elsewhere = workdir / "out", workdir / "elsewhere"
    out.mkdir()
    elsewhere.mkdir()
    (out / "db4.phi.csv").symlink_to(elsewhere)
    monkeypatch.setenv("LATWAV_OUTPUT_DIR", str(out))
    code, _, err = run(capsys, "cascade", str(workdir / "db4.json"), "--levels", "3")
    assert code == 0, err
    assert (out / "db4.phi.csv").is_file() and not (out / "db4.phi.csv").is_symlink()
    assert os.listdir(elsewhere) == []


def _limit_file_size():
    """In a child before it starts Python: files stop growing at 20,000
    bytes, and a write past that fails with ``EFBIG``, not ``SIGXFSZ``."""
    import resource
    import signal

    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (20_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)


@pytest.mark.skipif(sys.platform == "win32", reason="needs RLIMIT_FSIZE")
@pytest.mark.parametrize("argv, name", [
    (["cascade", "db4.json", "--levels", "8"], "db4.phi.csv"),
    (["quincunx", "pattern", "--width", "200"], "quincunx_pattern_w200.csv"),
], ids=["cascade", "quincunx"])
def test_an_artifact_past_the_file_size_limit_exits_1_with_one_line_and_no_file(tmp_path,
                                                                               argv, name):
    """A child whose file-size limit (lowered in that child only) stops an
    artifact exits 1 with one error line, prints no summary, and leaves no
    file in its output directory but its input."""
    (tmp_path / "db4.json").write_text(canonical_dumps(filter_to_json(daubechies4_1d())))
    proc = _child(argv, tmp_path, preexec_fn=_limit_file_size)
    out, err = proc.communicate(timeout=120)
    assert (proc.returncode, out) == (1, b"")
    assert err.decode() == f"error: {name} cannot be written: File too large\n"
    assert os.listdir(tmp_path) == ["db4.json"]


@pytest.mark.parametrize("fault, code, err", [
    (None, 0, ""),
    (BrokenPipeError(errno.EPIPE, "Broken pipe"), 1, ""),
    (OSError(errno.ENOSPC, "No space left on device"), 1,
     "error: the output cannot be written: No space left on device\n"),
])
def test_run_flushes_stdout_then_exits_with_the_code(monkeypatch, capsys, fault, code, err):
    """``run`` flushes stdout before ``os._exit``, which gets ``main``'s code,
    or 1 when the flush fails: silently for a closed reader, with one error
    line for any other fault."""
    class Sink(io.BytesIO):
        def write(self, data):
            if self.fault:
                raise self.fault
            return super().write(data)

    sink, exits = Sink(), []
    sink.fault = fault
    monkeypatch.setattr(sys, "argv", ["latwav", "bundled", "db4"])
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(sink, encoding="utf-8"))
    monkeypatch.setattr(os, "_exit", lambda status: exits.append((status, sink.getvalue())))
    latwav.cli.run()
    printed = canonical_dumps(filter_to_json(daubechies4_1d())) + "\n"
    assert exits == [(code, b"" if fault else printed.encode())]
    assert capsys.readouterr().err == err
    sink.fault = None  # so the stream's close writes without raising


@pytest.mark.parametrize("argv, code, stream", [(["--help"], 0, "out"), (["snf"], 2, "err")])
def test_run_ends_argparse_exits_the_same_way(monkeypatch, capsys, argv, code, stream):
    """``--help`` and a usage error leave ``main`` through argparse's
    SystemExit; ``run`` passes its status to ``os._exit`` like any code."""
    exits = []
    monkeypatch.setattr(sys, "argv", ["latwav", *argv])
    monkeypatch.setattr(os, "_exit", exits.append)
    latwav.cli.run()
    assert exits == [code]
    assert getattr(capsys.readouterr(), stream).startswith("usage: latwav")
