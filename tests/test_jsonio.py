"""Wire formats and their round-trip guarantees."""

import json

import pytest

from latwav.cascade import initial_grid, run_cascade
from latwav.errors import InputFormatError, LatwavError
from latwav.filters import daubechies4_1d, quincunx_haar, quincunx_matrix
from latwav.intlat import smith_normal_form
from latwav.lawton import SupportSet, build_reduced_system, lawton_residuals
from latwav.jsonio import (
    basis_to_json,
    canonical_dumps,
    dilation_from_json,
    filter_from_json,
    filter_to_json,
    grid_centers_1d_csv,
    grid_sidecar_json,
    grid_to_csv,
    matrix_from_json,
    matrix_to_json,
    residual_report_to_json,
    snf_to_json,
    system_dumps,
    system_to_json,
    transfer_report_to_json,
)
from latwav.transfer import Filter, transfer


def roundtrips(data) -> bool:
    text = canonical_dumps(data)
    return canonical_dumps(json.loads(text)) == text


def test_matrix_round_trip():
    m = quincunx_matrix().A
    data = matrix_to_json(m)
    assert roundtrips(data)
    assert matrix_from_json(json.loads(canonical_dumps(data))) == m


def test_matrix_validation_errors():
    with pytest.raises(InputFormatError, match="missing field"):
        matrix_from_json({"dim": 2})
    with pytest.raises(InputFormatError, match="row 0"):
        matrix_from_json({"dim": 2, "rows": [[1], [2, 3]]})
    with pytest.raises(InputFormatError, match="not an integer"):
        matrix_from_json({"dim": 1, "rows": [[1.5]]})
    with pytest.raises(InputFormatError, match="eigenvalue"):
        dilation_from_json({"dim": 2, "rows": [[1, 1], [0, 2]]})
    for dim in (True, 2.0, "2", None):
        rows = [[2]] if dim is True else [[1, 1], [-1, 1]]
        with pytest.raises(InputFormatError, match="'dim' = .* is not an integer"):
            matrix_from_json({"dim": dim, "rows": rows})


def test_filter_round_trip_real_and_complex():
    filt = daubechies4_1d()
    data = filter_to_json(filt)
    assert roundtrips(data)
    back = filter_from_json(json.loads(canonical_dumps(data)))
    assert back.coeffs == filt.coeffs

    mixed = Filter.from_coeffs(
        quincunx_matrix(), {(0, 0): 0.5 + 0.25j, (1, 1): -0.125}
    )
    back2 = filter_from_json(filter_to_json(mixed))
    assert back2.coeffs == mixed.coeffs


def test_filter_validation():
    base = filter_to_json(daubechies4_1d())
    bad = json.loads(canonical_dumps(base))
    bad["coeffs"][0].pop("re")
    with pytest.raises(InputFormatError, match="coeffs\\[0\\]"):
        filter_from_json(bad)
    dup = json.loads(canonical_dumps(base))
    dup["coeffs"].append(dict(dup["coeffs"][0]))
    with pytest.raises(InputFormatError, match="duplicate"):
        filter_from_json(dup)
    for dim in (True, 1.0):
        flagged = json.loads(canonical_dumps(base))
        flagged["dim"] = dim
        with pytest.raises(InputFormatError, match="'dim' = .* is not an integer"):
            filter_from_json(flagged)
    for coeffs in ([], {"n": [0], "re": 1.0}):
        listless = json.loads(canonical_dumps(base))
        listless["coeffs"] = coeffs
        with pytest.raises(InputFormatError, match="^filter: 'coeffs' must be a non-empty list$"):
            filter_from_json(listless)


def test_snf_and_basis_reports():
    snf = smith_normal_form(quincunx_matrix().A)
    data = snf_to_json(snf)
    assert set(data) == {"U", "D", "V"}
    assert roundtrips(data)
    basis = basis_to_json(snf)
    assert basis["coset_rep"] == [0, 1]
    assert roundtrips(basis)


def test_system_report_shape():
    data = system_to_json(quincunx_haar().system)
    assert set(data) >= {"matrix", "support", "index_set", "equations"}
    eq0 = data["equations"][0]
    assert set(eq0) == {"k", "pairs", "rhs"}
    assert eq0["rhs"] == 1
    assert roundtrips(data)


@pytest.mark.parametrize("points", [[(0,), (10**5000,)], [(1 - 10**4300,), (10**4300 - 1,)]],
                         ids=["point", "generator"])
def test_system_dumps_refuses_integers_too_long_to_print(points):
    """A support point or generator past the print limit is the same
    refusal as in the encoder's dump, a plain ``LatwavError`` that names no
    file.  The second support's points have 4300 digits and print; its
    generator has 4301."""
    system = build_reduced_system(SupportSet.from_points(points), daubechies4_1d().matrix)
    for dump in (lambda: canonical_dumps(system_to_json(system)), lambda: system_dumps(system)):
        with pytest.raises(LatwavError, match="result holds an integer too long to print") as raised:
            dump()
        assert type(raised.value) is LatwavError


def test_residual_report_round_trip():
    report = lawton_residuals(daubechies4_1d())
    data = residual_report_to_json(report)
    assert data["max_residual"] == report.max_residual
    assert roundtrips(data)


def test_transfer_report_round_trip():
    report = transfer(daubechies4_1d(), quincunx_matrix())
    data = transfer_report_to_json(report)
    assert set(data) >= {"source_filter", "target_filter", "shift",
                         "window_exponent", "support_map", "index_map", "stages"}
    assert roundtrips(data)


def test_grid_exports():
    grid, _ = run_cascade(daubechies4_1d(), max_level=3)
    csv = grid_to_csv(grid)
    lines = csv.strip().splitlines()
    assert lines[0] == "j_1,value"
    assert len(lines) == len(grid.cells) + 1
    # values parse back to the stored floats
    for line in lines[1:]:
        j, value = line.split(",")
        assert float(value) == grid.cells[(int(j),)]
    sidecar = grid_sidecar_json(grid)
    assert sidecar["level"] == 3
    assert roundtrips(sidecar)
    centers = grid_centers_1d_csv(grid)
    assert centers.startswith("t,phi")


def test_centre_export_refuses_a_grid_that_is_not_1d():
    with pytest.raises(InputFormatError) as raised:
        grid_centers_1d_csv(initial_grid(quincunx_matrix()))
    assert str(raised.value) == "center export requires a 1-dimensional grid"
