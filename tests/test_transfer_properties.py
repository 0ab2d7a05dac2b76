"""Property tests over random expansive dyadic matrices in d = 1-4: every
transfer, to_one_d and from_one_d report equals the former two-scan
transfer's, stages included; every transfer's index map equals the former encode_index/decode_index route and
the former zip of the built systems' index sets, and residuals carry over
bit for bit; one pair per generator lists the built index set in order; the
chart certificate passes on every
report, fails on corrupted support maps, and passes only where the former
per-equation check finds no fault; the witness check gives the former
check's verdict and text on true and corrupted witnesses; and the canonical
JSON of systems and reports is byte-identical to the former dump with cycle
checks."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from latwav.intlat import DilationMatrix, IntMatrix  # noqa: E402
from latwav.jsonio import (  # noqa: E402
    canonical_dumps,
    residual_report_to_json,
    system_to_json,
    transfer_report_to_json,
)
from latwav.lawton import build_reduced_system, generator_pairs, lawton_residuals  # noqa: E402
from latwav.transfer import (  # noqa: E402
    Filter,
    IsoMap,
    _chart_fault,
    _witness_fault,
    from_one_d,
    to_one_d,
    transfer,
    verify_isomorphism,
)
from util import (  # noqa: E402
    companion,
    reference_canonical_dumps,
    reference_from_one_d,
    reference_index_map,
    reference_to_one_d,
    reference_transfer,
    reference_witness_fault,
    reference_zipped_index_map,
)

PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


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
        u = u.mul(IntMatrix(rows))
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


@st.composite
def transfers(draw):
    source = draw(expansive_dyadic(draw(st.integers(1, 4))))
    target = draw(expansive_dyadic(draw(st.integers(1, 4))))
    filt = draw(filters(source))
    return filt, transfer(filt, target)


@PROPERTY
@given(data=st.data())
def test_reports_equal_the_two_scan_transfer(data):
    """One scan of the source chart gives the reports that scanning each
    stage's own chart and composing the stages' index maps gave: equal, and
    every index map in the same order."""
    filt, report = data.draw(transfers())
    target, line = report.target_filter.matrix, report.stages[0].target_filter
    for got, want in ((report, reference_transfer(filt, target)),
                      (to_one_d(filt), reference_to_one_d(filt)),
                      (from_one_d(line, target), reference_from_one_d(line, target))):
        assert got == want
        for a, b in zip((got, *got.stages), (want, *want.stages), strict=True):
            assert list(a.iso.index_map) == list(b.iso.index_map)


@PROPERTY
@given(data=st.data())
def test_index_maps_match_the_encoding_route(data):
    filt, report = data.draw(transfers())

    for stage, to_line in zip(report.stages, (True, False)):
        assert stage.iso.index_map == reference_index_map(stage, to_line)
    assert report.iso.index_map == reference_index_map(report)

    src, tgt = lawton_residuals(filt), lawton_residuals(report.target_filter)
    assert tgt.sum_residual == src.sum_residual
    for k, value in src.per_index.items():
        assert tgt.per_index[report.iso.index_map[k]] == value


@PROPERTY
@given(data=st.data())
def test_chart_certificate_is_sound_and_holds_on_every_report(data):
    """The certificate passes on both stage reports and the composed one. It
    fails on a support map with two images swapped, or with one point sent
    to another target point.  Where that point's image is rebuilt into a new
    target system, the certificate may pass, but only where the former
    per-equation check finds no fault."""
    _, report = data.draw(transfers())
    for chosen in (report, *report.stages):
        src, tgt, iso = chosen.source_filter, chosen.target_filter, chosen.iso
        assert _chart_fault(src.chart, tgt.chart, iso.support_map) is None
        assert reference_witness_fault(src.system, tgt.system, iso) is None

    chosen = data.draw(st.sampled_from((report, *report.stages)))
    src, tgt, theta = chosen.source_filter, chosen.target_filter, chosen.iso.support_map
    points = data.draw(st.permutations(src.chart.support_order))
    p, q = points[0], points[-1]
    if p != q:
        swapped = {**theta, p: theta[q], q: theta[p]}
        assert _chart_fault(src.chart, tgt.chart, swapped) is not None
    step = st.tuples(*[st.integers(-2, 2)] * tgt.dim).filter(any)
    moved = {**theta, p: tuple(a + b for a, b in zip(theta[p], data.draw(step)))}
    assert _chart_fault(src.chart, tgt.chart, moved) is not None
    if len(set(moved.values())) == len(moved):
        rebuilt = Filter(tgt.matrix, dict.fromkeys(moved.values(), 1.0))
        if _chart_fault(src.chart, rebuilt.chart, moved) is None:
            eta = dict(zip(src.system.index_set, rebuilt.system.index_set))
            assert reference_witness_fault(src.system, rebuilt.system, IsoMap(moved, eta)) is None


@PROPERTY
@given(data=st.data())
def test_index_maps_come_from_one_pair_per_generator(data):
    """The scan's pairs (a, b) give the built system's index set in order,
    each pair in its generator's equation.  Every stage and composed index
    map, read from those pairs, is the former zip of the two built systems'
    index sets, and the witness holds on the systems built on demand."""
    _, report = data.draw(transfers())
    for chosen in (report, *report.stages):
        source = chosen.source_filter
        pairs = generator_pairs(source.chart)
        system = build_reduced_system(source.support, source.matrix)
        assert [tuple(y - x for x, y in zip(a, b)) for a, b in pairs] == list(system.index_set)
        assert all(pair in system.equations[k].pairs for pair, k in zip(pairs, system.index_set))
        assert list(chosen.iso.index_map) == list(system.index_set)
        assert chosen.iso.index_map == reference_zipped_index_map(chosen)
        assert verify_isomorphism(source.system, chosen.target_filter.system, chosen.iso)


def _with_equations(system, change):
    return system._replace(equations={k: change(k, eq) for k, eq in system.equations.items()})


@PROPERTY
@given(data=st.data())
def test_witness_check_matches_the_former_check(data):
    """True witnesses; targets whose pairs are reordered (tuples differ, pair
    sets agree) or transposed; a target with one right-hand side flipped; and
    a support map with two points swapped."""
    _, report = data.draw(transfers())
    chosen = data.draw(st.sampled_from((report, *report.stages)))
    sys_a, sys_b, iso = chosen.source_filter.system, chosen.target_filter.system, chosen.iso
    flip = data.draw(st.sampled_from(sys_b.index_set))
    theta = dict(iso.support_map)
    points = data.draw(st.permutations(sorted(theta)))
    p, q = points[0], points[-1]  # the same point on a one-point support
    theta[p], theta[q] = theta[q], theta[p]
    cases = {
        "true": (sys_b, iso),
        "reordered": (_with_equations(sys_b, lambda k, eq: eq._replace(pairs=eq.pairs[::-1])), iso),
        "transposed": (_with_equations(
            sys_b, lambda k, eq: eq._replace(pairs=tuple((b, a) for a, b in eq.pairs))), iso),
        "rhs": (_with_equations(
            sys_b, lambda k, eq: eq._replace(rhs=1 - eq.rhs) if k == flip else eq), iso),
        "swapped": (sys_b, IsoMap(theta, iso.index_map)),
    }
    faults = {name: _witness_fault(sys_a, b, w) for name, (b, w) in cases.items()}
    assert faults == {name: reference_witness_fault(sys_a, b, w)
                      for name, (b, w) in cases.items()}
    assert faults["true"] is faults["reordered"] is faults["transposed"] is None
    assert faults["rhs"] is not None


@PROPERTY
@given(data=st.data())
def test_canonical_dumps_match_the_dump_with_cycle_checks(data):
    _, report = data.draw(transfers())
    documents = [system_to_json(report.source_filter.system),
                 system_to_json(report.target_filter.system),
                 transfer_report_to_json(report),
                 residual_report_to_json(lawton_residuals(report.target_filter))]
    for doc in documents:
        assert canonical_dumps(doc) == reference_canonical_dumps(doc)
