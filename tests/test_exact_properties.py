"""Property tests of the exact layers: the Smith normal form's invariants on
random determinant +/-2 matrices in d = 1-5, decode after encode as the
identity on the support and index windows in d = 1-4 with N up to 12, the
reduced-system build equal to the former full pair scan in d = 1-4, its pair
count known before the build, its direct dump equal to the encoder's, and
the residuals read off the chart equal, bit for bit, to the former walk over
the built system's pairs."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latwav.encode import (  # noqa: E402
    EncodingParams,
    decode_index,
    decode_support,
    encode_index,
    encode_support,
    in_index_window,
    in_support_window,
    radix_encode,
)
from latwav.intlat import IntMatrix, coset_representative, smith_normal_form  # noqa: E402
from latwav.jsonio import system_dumps, system_to_json  # noqa: E402
from latwav.lawton import (  # noqa: E402
    Filter,
    SupportSet,
    _chart,
    build_reduced_system,
    lawton_residuals,
    pair_count,
)
from util import (  # noqa: E402
    lattice_chart,
    reference_canonical_dumps,
    reference_lawton_residuals,
    reference_pair_scan_build,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@st.composite
def det_two_matrices(draw, max_dim: int = 5) -> IntMatrix:
    """P * diag(1, ..., 1, +/-2) * Q, where P and Q are products of random
    elementary row additions, swaps and negations."""
    d = draw(st.integers(1, max_dim))

    def unimodular() -> IntMatrix:
        rows = [[int(i == j) for j in range(d)] for i in range(d)]
        for _ in range(draw(st.integers(0, 3 * d))):
            i, j = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
            q = draw(st.integers(-4, 4))
            if i != j and q:
                rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
            elif i != j:
                rows[i], rows[j] = rows[j], rows[i]
            else:
                rows[i] = [-x for x in rows[i]]
        return IntMatrix(rows)

    last = draw(st.sampled_from((2, -2)))
    diag = IntMatrix(
        [[(last if i == d - 1 else 1) if i == j else 0 for j in range(d)] for i in range(d)]
    )
    return unimodular().mul(diag).mul(unimodular())


@PROPERTY
@given(det_two_matrices())
def test_snf_invariants(m):
    snf = smith_normal_form(m)
    d = m.dim
    assert snf.U.det() in (1, -1)
    assert snf.V.det() in (1, -1)
    assert snf.D.rows == tuple(
        tuple((2 if i == d - 1 else 1) if i == j else 0 for j in range(d)) for i in range(d)
    )
    assert snf.U.mul(snf.D).mul(snf.V) == m
    # U*e_d is outside A*Z^d: A x = U e_d has no integer solution x.
    det = m.det()
    rep = coset_representative(snf)
    assert rep == tuple(row[-1] for row in snf.U.rows)
    assert any(x % det for x in m.adjugate().vec(rep))


@st.composite
def params(draw) -> EncodingParams:
    return EncodingParams(draw(st.integers(1, 4)), draw(st.integers(1, 12)))


@st.composite
def support_points(draw, p: EncodingParams):
    return tuple(draw(st.integers(0, p.window - 1)) for _ in range(p.dim))


@st.composite
def index_points(draw, p: EncodingParams):
    """Centered coordinates with an even last one; the reflection k -> -k
    flips the radix value's sign, so one of k, -k has a nonnegative value."""
    w = p.window
    x = tuple(draw(st.integers(1 - w, w - 1)) for _ in range(p.dim - 1))
    k = x + (2 * draw(st.integers(-((w - 1) // 2), (w - 1) // 2)),)
    return k if radix_encode(p, k) >= 0 else tuple(-c for c in k)


@PROPERTY
@given(data=st.data())
def test_decode_inverts_encode_on_both_windows(data):
    p = data.draw(params())
    n = data.draw(support_points(p))
    k = data.draw(index_points(p))
    assert in_index_window(p, k)
    assert decode_support(p, encode_support(p, n)) == n
    assert decode_index(p, encode_index(p, k)) == k


@PROPERTY
@given(data=st.data())
def test_decode_is_none_off_the_image(data):
    """A decoded point is a window point whose code is the value, so a value
    off the window's image decodes to None; values are drawn next to codes
    and next to the row strides, where off-image values sit."""
    p = data.draw(params())
    near = st.sampled_from((0, 1, p.row_stride - 1, p.row_stride, p.row_stride + 1))
    for code in (encode_support(p, data.draw(support_points(p))),
                 encode_index(p, data.draw(index_points(p)))):
        value = code + data.draw(st.sampled_from((1, -1))) * data.draw(near) \
            + data.draw(st.integers(-2, 2))
        n = decode_support(p, value)
        assert n is None or (in_support_window(p, n) and encode_support(p, n) == value)
        k = decode_index(p, value)
        assert k is None or (in_index_window(p, k) and encode_index(p, k) == value)


def draw_support(data, dim: int, offsets=st.integers(-60, 60)) -> SupportSet:
    """A dense or sparse support, translated by an offset drawn from ``offsets``."""
    span = data.draw(st.sampled_from((1, 2, 3, 8, 40)))
    offset = data.draw(st.tuples(*[offsets] * dim))
    box = st.tuples(*[st.integers(0, span)] * dim)
    points = data.draw(st.sets(box, min_size=1, max_size=30))
    return SupportSet.from_points(tuple(o + c for o, c in zip(offset, p)) for p in points)


@PROPERTY
@given(data=st.data())
def test_build_matches_the_full_pair_scan(data):
    """The same index set, equation order, pair order, support order and
    chart as the former build, which scanned every ordered same-parity pair;
    supports are dense or sparse and translated anywhere."""
    dil = lattice_chart(data.draw(det_two_matrices(max_dim=4)))
    support = draw_support(data, dil.dim)
    got = build_reduced_system(support, dil)
    want = reference_pair_scan_build(support, dil)
    assert got.index_set == want.index_set
    for k in want.index_set:
        assert got.equations[k] == want.equations[k], k
    assert got == want


@PROPERTY
@given(data=st.data())
def test_pair_count_matches_the_stored_build(data):
    dil = lattice_chart(data.draw(det_two_matrices(max_dim=4)))
    support = draw_support(data, dil.dim)
    system = build_reduced_system(support, dil)
    chart = _chart(support, dil)
    assert pair_count(chart) == sum(len(eq.pairs) for eq in system.equations.values())


@PROPERTY
@given(data=st.data())
def test_system_dumps_match_the_encoder_dump(data):
    """Byte-identical to the encoder's canonical dump of ``system_to_json``,
    with negative coordinates and coordinates beyond 2^63."""
    dil = lattice_chart(data.draw(det_two_matrices(max_dim=4)))
    support = draw_support(data, dil.dim, st.integers(-60, 60) | st.sampled_from(
        (2**63, -(2**63) - 5, 2**64 + 3, -(10**30), 10**40)))
    system = build_reduced_system(support, dil)
    assert system_dumps(system) == reference_canonical_dumps(system_to_json(system))


@PROPERTY
@given(data=st.data())
def test_residuals_off_the_chart_match_the_system_walk_bit_for_bit(data):
    """The same generators in the same order, and every residual equal to
    the last bit, its ``repr`` too, on real and complex taps over dense or
    sparse supports in d = 1-4."""
    dil = lattice_chart(data.draw(det_two_matrices(max_dim=4)))
    support = draw_support(data, dil.dim)
    rng = data.draw(st.randoms(use_true_random=False))

    def tap() -> float:
        return rng.uniform(-1, 1) or 1.0  # a shrunk draw may be 0.0, which is no tap

    if data.draw(st.booleans()):
        taps = [complex(tap(), tap()) for _ in support.points]
    else:
        taps = [tap() for _ in support.points]
    filt = Filter.from_coeffs(dil, dict(zip(sorted(support.points), taps)))
    got = lawton_residuals(filt)
    want = reference_lawton_residuals(Filter(dil, filt.coeffs))
    assert list(got.per_index.items()) == list(want.per_index.items())
    assert list(map(repr, got.per_index.values())) == list(map(repr, want.per_index.values()))
    assert (got.sum_residual, got.max_residual) == (want.sum_residual, want.max_residual)
