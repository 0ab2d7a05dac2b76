"""Property test: every transfer's index map, derived from its support map,
equals the former encode_index/decode_index route, and residuals carry over
bit for bit, over random expansive dyadic matrices in d = 1-4."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latwav.intlat import DilationMatrix, IntMatrix  # noqa: E402
from latwav.transfer import Filter, transfer  # noqa: E402
from latwav.verify import lawton_residuals  # noqa: E402
from util import companion, reference_index_map  # noqa: E402


@st.composite
def expansive_dyadic(draw, dim: int) -> DilationMatrix:
    """A unimodular conjugate U C U^-1 of the companion C of x^d +/- 2.

    C has determinant +/-2 and every eigenvalue of modulus 2^(1/d) > 1, so
    each conjugate is expansive; random integer matrices mostly are not."""
    c = companion((1,) + (0,) * (dim - 1) + (draw(st.sampled_from((2, -2))),))
    u = IntMatrix.identity(dim)
    for _ in range(draw(st.integers(0, 3)) if dim > 1 else 0):
        i, j = draw(st.permutations(range(dim)))[:2]
        rows = [[int(r == s) for s in range(dim)] for r in range(dim)]
        rows[i][j] = draw(st.sampled_from((-2, -1, 1, 2)))
        u = u.mul(IntMatrix.from_rows(rows))
    return DilationMatrix.from_matrix(u.mul(c).mul(u.unimodular_inverse()))


@st.composite
def filters(draw, matrix: DilationMatrix) -> Filter:
    """Random real or complex taps on a translated random support."""
    d = matrix.dim
    offset = draw(st.tuples(*[st.integers(-5, 5)] * d))
    cube = st.tuples(*[st.integers(0, draw(st.integers(1, 3)))] * d)
    points = draw(st.sets(cube, min_size=1, max_size=8))
    tap = st.floats(0.125, 1.0) | st.floats(-1.0, -0.125)
    complex_taps = draw(st.booleans())
    coeffs = {
        tuple(o + c for o, c in zip(offset, p)):
            complex(draw(tap), draw(tap)) if complex_taps else draw(tap)
        for p in points
    }
    return Filter.from_coeffs(matrix, coeffs)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(data=st.data())
def test_index_maps_match_the_encoding_route(data):
    source = data.draw(expansive_dyadic(data.draw(st.integers(1, 4))))
    target = data.draw(expansive_dyadic(data.draw(st.integers(1, 4))))
    filt = data.draw(filters(source))
    report = transfer(filt, target)

    for stage, to_line in zip(report.stages, (True, False)):
        assert stage.iso.index_map == reference_index_map(stage, to_line)
    assert report.iso.index_map == reference_index_map(report)

    src, tgt = lawton_residuals(filt), lawton_residuals(report.target_filter)
    assert tgt.sum_residual == src.sum_residual
    for k, value in src.per_index.items():
        assert tgt.per_index[report.iso.index_map[k]] == value
