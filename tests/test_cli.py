"""End-to-end CLI behavior: pipelines, artifacts, exit codes."""

import json

import pytest

from latwav.cli import main
from latwav.jsonio import canonical_dumps, filter_to_json, matrix_to_json
from latwav.filters import daubechies4_1d, haar_1d, quincunx_matrix
from latwav.transfer import Filter


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


def test_quincunx_pattern_command(workdir, capsys):
    code, out, _ = run(capsys, "quincunx", "pattern", "--width", "3")
    assert code == 0
    assert json.loads(out)["pattern_holds"] is True
    csv = (workdir / "quincunx_pattern_w3.csv").read_text().strip().splitlines()
    assert csv[0] == "m,n,s"
    assert len(csv) == 50


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
