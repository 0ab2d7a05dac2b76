"""Transfer construction, witnesses, and round trips."""

import importlib
import math
import random
import re
import tracemalloc

import pytest

from latwav.encode import EncodingParams, decode_support, encode_support
from latwav.cli import main
from latwav.errors import DomainMismatchError, IsomorphismError, NotOneDimensionalError
from latwav.filters import (
    antidiagonal_matrix,
    companion_3d_matrix,
    daubechies4_1d,
    dilation_1d,
    haar_1d,
    quincunx_haar,
    quincunx_matrix,
)
from latwav.intlat import DilationMatrix, from_adapted
from latwav.jsonio import canonical_dumps, filter_to_json, matrix_to_json
from latwav.lawton import SupportSet, build_reduced_system, lawton_residuals
from latwav.transfer import (
    Filter,
    IsoMap,
    from_one_d,
    to_one_d,
    transfer,
    verify_isomorphism,
)
from util import count_work, enumerate_windows, shift_normalize


def test_filter_drops_exact_zeros_with_warning():
    with pytest.warns(UserWarning, match="dropped 1"):
        filt = Filter.from_coeffs(dilation_1d(), {(0,): 1.0, (1,): 0.0})
    assert set(filt.coeffs) == {(0,)}
    with pytest.raises(ValueError, match="empty"), pytest.warns(UserWarning):
        Filter.from_coeffs(dilation_1d(), {(0,): 0.0})


def test_shift_normalize_examples():
    filt = Filter.from_coeffs(dilation_1d(), {(0,): 0.5, (1,): 0.5})
    same, shift = shift_normalize(filt)
    assert same.coeffs == filt.coeffs and shift == (0,)

    filt2 = Filter.from_coeffs(
        quincunx_matrix(), {(-1, 2): 0.25, (0, 3): 0.75}
    )
    moved, shift2 = shift_normalize(filt2)
    assert shift2 == (-1, 2)
    assert set(moved.coeffs) == {(0, 0), (1, 1)}
    assert moved.coeffs[(0, 0)] == 0.25


def test_shift_preserves_residuals():
    base = quincunx_haar()
    shifted = Filter.from_coeffs(
        base.matrix,
        {tuple(c + 3 for c in p): v for p, v in base.coeffs.items()},
    )
    normalized, shift = shift_normalize(shifted)
    assert shift == (3, 3)
    r1 = lawton_residuals(shifted)
    r2 = lawton_residuals(normalized)
    assert sorted(r1.per_index.values()) == sorted(r2.per_index.values())
    assert r1.sum_residual == r2.sum_residual


def test_verify_isomorphism_identity():
    system = build_reduced_system(
        SupportSet.from_points([(0,), (1,), (2,), (3,)]), dilation_1d()
    )
    iso = IsoMap(
        support_map={p: p for p in system.support.points},
        index_map={k: k for k in system.index_set},
    )
    assert verify_isomorphism(system, system, iso)


def test_verify_isomorphism_window_example():
    """The unit-window quincunx system is isomorphic to {0,1,2,3} over [2]
    through the window flattening; corrupting the map breaks it."""
    dil = quincunx_matrix()
    params = EncodingParams(2, 1)
    win = enumerate_windows(params)
    sys_a = build_reduced_system(
        SupportSet.from_points(from_adapted(dil, c) for c in win.support_points), dil
    )
    sys_b = build_reduced_system(
        SupportSet.from_points([(0,), (1,), (2,), (3,)]), dilation_1d()
    )
    theta = {
        from_adapted(dil, c): (encode_support(params, c),) for c in win.support_points
    }
    eta = {
        from_adapted(dil, (0, 0)): (0,),
        from_adapted(dil, (1, 0)): (2,),
    }
    assert verify_isomorphism(sys_a, sys_b, IsoMap(theta, eta))

    bad = dict(theta)
    a, b = from_adapted(dil, (0, 0)), from_adapted(dil, (1, 0))
    bad[a], bad[b] = bad[b], bad[a]
    assert not verify_isomorphism(sys_a, sys_b, IsoMap(bad, eta))


def test_verify_isomorphism_domain_mismatch():
    system = build_reduced_system(SupportSet.from_points([(0,), (1,)]), dilation_1d())
    with pytest.raises(DomainMismatchError,
                       match="^support map domain does not match the source support$"):
        verify_isomorphism(system, system, IsoMap({(0,): (0,)}, {(0,): (0,)}))
    identity = {(0,): (0,), (1,): (1,)}
    with pytest.raises(DomainMismatchError,
                       match="^index map domain does not match the source index set$"):
        verify_isomorphism(system, system, IsoMap(identity, {(0,): (0,), (2,): (2,)}))


def test_verify_isomorphism_mutation_battery():
    """Corrupting a witness in any single way must be rejected."""
    report = transfer(daubechies4_1d(), quincunx_matrix())
    sys_a, sys_b = report.source_filter.system, report.target_filter.system
    theta, eta = report.iso.support_map, report.iso.index_map
    assert verify_isomorphism(sys_a, sys_b, report.iso)

    keys = sorted(theta)
    for i in range(len(keys)):
        for j in range(i + 1, len(keys)):
            bad = dict(theta)
            bad[keys[i]], bad[keys[j]] = bad[keys[j]], bad[keys[i]]
            assert not verify_isomorphism(sys_a, sys_b, IsoMap(bad, eta))

    k_keys = sorted(eta)
    bad_eta = dict(eta)
    bad_eta[k_keys[0]], bad_eta[k_keys[1]] = bad_eta[k_keys[1]], bad_eta[k_keys[0]]
    assert not verify_isomorphism(sys_a, sys_b, IsoMap(theta, bad_eta))

    # image outside the target support: not onto
    stray = dict(theta)
    stray[keys[0]] = (99, 99)
    assert not verify_isomorphism(sys_a, sys_b, IsoMap(stray, eta))

    # collapse two support images: not injective
    squash = dict(theta)
    squash[keys[0]] = squash[keys[1]]
    assert not verify_isomorphism(sys_a, sys_b, IsoMap(squash, eta))


def test_witness_fault_says_where():
    """The witness check names the map that is not a bijection, or the first
    generator whose equation does not map."""
    transfer_mod = importlib.import_module("latwav.transfer")
    report = transfer(daubechies4_1d(), quincunx_matrix())
    sys_a, sys_b, theta, eta = (report.source_filter.system, report.target_filter.system,
                                report.iso.support_map, report.iso.index_map)
    assert transfer_mod._witness_fault(sys_a, sys_b, report.iso) is None

    stray = dict(theta)
    stray[min(theta)] = (99, 99)
    fault = transfer_mod._witness_fault(sys_a, sys_b, IsoMap(stray, eta))
    assert fault == "support map is not a bijection onto the target support"

    k = sys_a.index_set[-1]
    for bad_value in (eta[sys_a.index_set[0]], (98, 98)):
        bad = dict(eta)
        bad[k] = bad_value
        fault = transfer_mod._witness_fault(sys_a, sys_b, IsoMap(theta, bad))
        assert fault.startswith(f"generator {k} does not map")

    # Every equation of [2] on {0, 1, 2, 3} maps onto the quincunx support
    # below, and the index map is injective, but it reaches only 2 of the
    # target's 5 generators.
    sys_a = build_reduced_system(SupportSet.from_points([(n,) for n in range(4)]),
                                 dilation_1d())
    image = [(0, 0), (1, 1), (2, 0), (3, 1)]
    sys_b = build_reduced_system(SupportSet.from_points(image), quincunx_matrix())
    theta = dict(zip(sys_a.support_order, image))
    eta = {(0,): (0, 0), (2,): (2, 0)}
    assert len(sys_b.index_set) == 5
    assert not verify_isomorphism(sys_a, sys_b, IsoMap(theta, eta))
    fault = transfer_mod._witness_fault(sys_a, sys_b, IsoMap(theta, eta))
    assert fault == "index map is not a bijection onto the target index set"


def test_chart_fault_says_where():
    """The chart certificate names the first support position whose image
    is not the target's point there, or whose code moves by another amount
    than the first code; a map of another size is not a bijection."""
    transfer_mod = importlib.import_module("latwav.transfer")

    def chart(*points):
        return Filter.from_coeffs(dilation_1d(), {(n,): 1.0 for n in points}).chart

    near, far = chart(0, 1, 2, 3), chart(0, 1, 2, 5)
    assert transfer_mod._chart_fault(near, near, {(n,): (n,) for n in range(4)}) is None
    shifted = chart(7, 8, 9, 10)
    assert transfer_mod._chart_fault(near, shifted, {(n,): (n + 7,) for n in range(4)}) is None

    squeeze = {(0,): (0,), (1,): (1,), (2,): (2,), (5,): (3,)}
    assert transfer_mod._chart_fault(far, near, squeeze) == \
        "support position 3: the code of (5,) moves by -2, not by 0"
    stretch = {(0,): (0,), (1,): (1,), (2,): (2,), (3,): (5,)}
    assert transfer_mod._chart_fault(near, far, stretch) == \
        "support position 3: the code of (3,) moves by 2, not by 0"
    mirror = {(n,): (3 - n,) for n in range(4)}
    assert transfer_mod._chart_fault(near, near, mirror) == \
        "support position 0: (0,) goes to (3,), not to (0,)"
    # the per-equation check accepts the mirror: it maps every equation onto
    # the target's up to transposition
    line = build_reduced_system(SupportSet.from_points([(n,) for n in range(4)]), dilation_1d())
    assert verify_isomorphism(line, line, IsoMap(mirror, {(0,): (0,), (2,): (2,)}))
    not_onto = "support map is not a bijection onto the target support"
    assert transfer_mod._chart_fault(near, near, {(n,): (n,) for n in range(3)}) == not_onto
    assert transfer_mod._chart_fault(far, chart(0, 1, 2), squeeze) == not_onto


def test_corrupted_support_map_fails_where_it_departs(monkeypatch, tmp_path, capsys):
    """A transfer whose support map swaps the images of two points raises
    IsomorphismError naming the first support position that departs from
    the target's support order; the CLI exits 1 with that message."""
    transfer_mod = importlib.import_module("latwav.transfer")
    decode = transfer_mod.decode_support
    swap = {1: 2, 2: 1}

    def corrupted(params, value):
        return decode(params, swap.get(value, value))

    monkeypatch.setattr(transfer_mod, "decode_support", corrupted)
    filt = Filter.from_coeffs(dilation_1d(), daubechies4_1d().coeffs)
    where = "transfer witness fails: support position 1: (1,) goes to (1, -1), not to (0, 1)"
    with pytest.raises(IsomorphismError, match=re.escape(where)):
        transfer(filt, quincunx_matrix())

    (tmp_path / "db4.json").write_text(canonical_dumps(filter_to_json(filt)))
    (tmp_path / "q.json").write_text(canonical_dumps(matrix_to_json(quincunx_matrix().A)))
    code = main(["transfer", str(tmp_path / "db4.json"), "--target", str(tmp_path / "q.json")])
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err == f"error: {where}\n"


def test_to_one_d_quincunx_haar():
    report = to_one_d(quincunx_haar())
    assert report.shift == (0, 0)
    assert report.window_exponent == 1
    inv = 1.0 / math.sqrt(2.0)
    assert report.target_filter.coeffs == {(0,): inv, (1,): inv}
    assert verify_isomorphism(report.source_filter.system, report.target_filter.system,
                              report.iso)


def test_to_one_d_is_identity_for_normalized_1d_input():
    report = to_one_d(haar_1d())
    assert report.target_filter.coeffs == haar_1d().coeffs
    assert report.shift == (0,)


def test_to_one_d_shifts_unnormalized_1d_input():
    filt = Filter.from_coeffs(dilation_1d(), {(5,): 0.5, (7,): 0.5})
    report = to_one_d(filt)
    assert report.shift == (5,)
    assert set(report.target_filter.coeffs) == {(0,), (2,)}


def test_from_one_d_haar_to_quincunx():
    report = from_one_d(haar_1d(), quincunx_matrix())
    target = report.target_filter
    rep = quincunx_matrix().coset_rep
    inv = 1.0 / math.sqrt(2.0)
    assert target.coeffs == {(0, 0): inv, rep: inv}


def test_from_one_d_db4_to_quincunx_residuals():
    report = from_one_d(daubechies4_1d(), quincunx_matrix())
    assert len(report.target_filter.coeffs) == 4
    assert lawton_residuals(report.target_filter).max_residual < 1e-12


def test_from_one_d_requires_one_dimensional_input():
    with pytest.raises(NotOneDimensionalError):
        from_one_d(quincunx_haar(), quincunx_matrix())


def _smallest_window_exponent(dim: int, top: int) -> int:
    """The smallest N >= 1 at which every integer in [0, top] decodes to a
    support-window point, found by trying N = 1, 2, ..."""
    n_exp = 1
    while any(decode_support(EncodingParams(dim, n_exp), m) is None for m in range(top + 1)):
        n_exp += 1
    return n_exp


@pytest.mark.parametrize("target", [dilation_1d, quincunx_matrix, antidiagonal_matrix,
                                    companion_3d_matrix])
@pytest.mark.parametrize("shift", [-7, -1, 0, 1, 5, 64])
def test_from_one_d_window_is_smallest_for_shifted_sources(target, shift):
    """A source whose support does not start at 0 is shift-normalized first,
    so its window exponent is the smallest one for the support's extent
    alone.  ``transfer`` always hands over codes that start at 0, so only a
    direct call shows this."""
    db4, matrix = daubechies4_1d(), target()
    filt = Filter.from_coeffs(dilation_1d(), {(m + shift,): v for (m,), v in db4.coeffs.items()})
    report = from_one_d(filt, matrix)
    assert report.shift == (shift,)
    top = max(db4.coeffs)[0] - min(db4.coeffs)[0]
    assert report.window_exponent == _smallest_window_exponent(matrix.dim, top)


def test_round_trip_random_filters():
    """to_one_d(from_one_d(f, B)) recovers f exactly for min-0 supports."""
    rnd = random.Random(77)
    targets = [dilation_1d(), quincunx_matrix(), antidiagonal_matrix(), companion_3d_matrix()]
    for _ in range(12):
        size = rnd.randint(2, 6)
        pts = {0} | {rnd.randint(1, 15) for _ in range(size - 1)}
        coeffs = {(m,): rnd.uniform(-1, 1) for m in pts}
        filt = Filter.from_coeffs(dilation_1d(), coeffs)
        for target in targets:
            out = from_one_d(filt, target)
            back = to_one_d(out.target_filter)
            assert back.target_filter.coeffs == filt.coeffs
            assert back.window_exponent == out.window_exponent


def test_round_trip_complex_coefficients():
    coeffs = {(0,): 0.3 + 0.4j, (1,): 0.25, (3,): -0.1j}
    filt = Filter.from_coeffs(dilation_1d(), coeffs)
    out = from_one_d(filt, quincunx_matrix())
    back = to_one_d(out.target_filter)
    assert back.target_filter.coeffs == coeffs


def test_transfer_composition_and_witness():
    report = transfer(quincunx_haar(), antidiagonal_matrix())
    assert len(report.stages) == 2
    assert len(report.target_filter.coeffs) == 2
    assert lawton_residuals(report.target_filter).max_residual < 1e-15
    # composed maps are the stage compositions
    for p, value in report.iso.support_map.items():
        mid = report.stages[0].iso.support_map[p]
        assert report.stages[1].iso.support_map[mid] == value


def test_transfer_to_same_matrix_is_shift_normalization():
    filt = Filter.from_coeffs(dilation_1d(), {(2,): 0.5, (3,): 0.5})
    report = transfer(filt, dilation_1d())
    normalized, _ = shift_normalize(filt)
    assert report.target_filter.coeffs == normalized.coeffs
    assert verify_isomorphism(report.source_filter.system, report.target_filter.system,
                              report.iso)


def test_transfer_coefficient_multiset_preserved():
    for target in (quincunx_matrix(), antidiagonal_matrix(), companion_3d_matrix()):
        report = transfer(daubechies4_1d(), target)
        assert sorted(report.target_filter.coeffs.values()) == sorted(
            daubechies4_1d().coeffs.values()
        )


def test_negative_one_d_dilation_source():
    """A source over [-2] canonicalizes its generators with the opposite
    sign; transfer() routes it through the chart flip and still preserves
    residuals bitwise, while from_one_d insists on the canonical [2]."""
    neg = DilationMatrix.from_matrix([[-2]])
    filt = Filter.from_coeffs(neg, {(0,): 0.4, (1,): 0.7, (2,): 0.2, (3,): 0.1})
    src = lawton_residuals(filt)
    assert all(k[0] <= 0 for k in src.system.index_set if k != (0,))

    with pytest.raises(ValueError, match="dilation \\[2\\]"):
        from_one_d(filt, quincunx_matrix())

    for target in (dilation_1d(), quincunx_matrix(), companion_3d_matrix()):
        rep = transfer(filt, target)
        tgt = lawton_residuals(rep.target_filter)
        assert sorted(tgt.per_index.values()) == sorted(src.per_index.values())
        assert tgt.sum_residual == src.sum_residual


def four_tap_family(theta):
    """One-parameter family of exact 4-tap solutions over [2]."""
    c, s = math.cos(theta), math.sin(theta)
    scale = 1.0 / (2.0 * math.sqrt(2.0))
    return (
        scale * (1 - c + s),
        scale * (1 + c + s),
        scale * (1 + c - s),
        scale * (1 - c - s),
    )


def test_window_solution_family_transfers_with_equal_residuals():
    """Exact 4-tap solutions placed on the quincunx unit window flatten to
    1D solutions on {0,1,2,3} with matched coefficients and identical
    residual values."""
    dil = quincunx_matrix()
    params = EncodingParams(2, 1)
    win = enumerate_windows(params)
    for theta in (0.3, 1.1, 2.0, 4.5):
        taps = four_tap_family(theta)
        coeffs = {
            from_adapted(dil, c): taps[encode_support(params, c)]
            for c in win.support_points
        }
        filt = Filter.from_coeffs(dil, coeffs)
        res_2d = lawton_residuals(filt)
        assert res_2d.max_residual < 1e-12

        report = to_one_d(filt)
        assert set(report.target_filter.coeffs) == {(0,), (1,), (2,), (3,)}
        assert tuple(report.target_filter.coeffs[(m,)] for m in range(4)) == taps
        res_1d = lawton_residuals(report.target_filter)
        assert sorted(res_1d.per_index.values()) == sorted(res_2d.per_index.values())
        assert res_1d.sum_residual == res_2d.sum_residual


def test_transfer_chain_preserves_residuals():
    """Residual values survive a whole chain of transfers across dimensions."""
    filt = daubechies4_1d()
    baseline = lawton_residuals(filt)
    chain = (quincunx_matrix(), companion_3d_matrix(), antidiagonal_matrix(), dilation_1d())
    current = filt
    for target in chain:
        current = transfer(current, target).target_filter
        report = lawton_residuals(current)
        assert report.sum_residual == baseline.sum_residual
        assert sorted(report.per_index.values()) == sorted(baseline.per_index.values())
    # chain ends on the line: the original filter returns exactly
    assert current.coeffs == filt.coeffs


def test_transfer_preserves_residuals_for_arbitrary_coefficients():
    """Residual values are reindexed copies even when the input solves
    nothing: transfers only rename variables."""
    rnd = random.Random(4242)
    targets = [dilation_1d(), quincunx_matrix(), antidiagonal_matrix(), companion_3d_matrix()]
    for source_matrix in (quincunx_matrix(), antidiagonal_matrix()):
        for _ in range(6):
            pts = {
                (rnd.randint(-3, 3), rnd.randint(-3, 3))
                for _ in range(rnd.randint(2, 7))
            }
            coeffs = {p: complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for p in pts}
            filt = Filter.from_coeffs(source_matrix, coeffs)
            src = lawton_residuals(filt)
            for target in targets:
                rep = transfer(filt, target)
                tgt = lawton_residuals(rep.target_filter)
                assert tgt.sum_residual == src.sum_residual
                for k, value in src.per_index.items():
                    assert tgt.per_index[rep.iso.index_map[k]] == value


def test_transfer_builds_no_system(monkeypatch, tmp_path):
    """A transfer builds no reduced system.  It computes each filter's chart
    once (source, [2] and target), from one SupportSet each, and makes three
    chart checks: the two stage witnesses and the composed one.  It scans
    the source chart's same-parity pairs once, for both stages.  Its three
    ``from_matrix`` runs, one SNF each, make the bundled matrices afresh.
    ``latwav transfer`` does the same work, but reads its two matrices from
    files: the input filter's support serves both its pair budget and its
    chart.  The systems are built only on demand, and the witness holds on
    them."""
    counts = count_work(monkeypatch)
    filt = Filter.from_coeffs(quincunx_matrix(), quincunx_haar().coeffs)
    report = transfer(filt, companion_3d_matrix())
    assert counts == {"verify": 3, "support": 3, "chart": [2, 1, 3], "from_matrix": 3, "snf": 3,
                      "scan": 1}

    # again on the same filter: only the new [2] and target filters' charts
    counts.clear()
    assert transfer(filt, companion_3d_matrix()) == report
    assert counts == {"verify": 3, "support": 2, "chart": [1, 3], "scan": 1}

    (tmp_path / "filter.json").write_text(canonical_dumps(filter_to_json(filt)))
    (tmp_path / "target.json").write_text(canonical_dumps(matrix_to_json(companion_3d_matrix().A)))
    counts.clear()
    assert main(["transfer", str(tmp_path / "filter.json"),
                 "--target", str(tmp_path / "target.json")]) == 0
    assert counts == {"verify": 3, "support": 3, "chart": [2, 1, 3], "from_matrix": 2, "snf": 2,
                      "scan": 1}

    counts.clear()
    assert verify_isomorphism(report.source_filter.system, report.target_filter.system,
                              report.iso)
    assert counts == {"build": 2, "pairs": [2, 2], "scan": 2}


def test_system_after_a_transfer_builds_off_the_held_chart(monkeypatch):
    """``Filter.system`` builds off the chart the filter holds: after a
    transfer has computed a fresh filter's chart, its system computes the
    chart no second time, and equals a build from scratch."""
    filt = Filter.from_coeffs(dilation_1d(), daubechies4_1d().coeffs)
    transfer(filt, quincunx_matrix())
    counts = count_work(monkeypatch)
    system = filt.system
    assert counts == {"build": 1, "pairs": [6], "scan": 1}  # and no chart
    counts.clear()
    assert system == build_reduced_system(filt.support, filt.matrix)
    assert counts == {"chart": [1], "scan": 1}


def test_transfer_stores_no_pair():
    """A 1-D -> quincunx transfer of 1024 points stores no pair: its
    tracemalloc peak is about 1.3 MB, where building the three systems with
    their pairs took about 52 MB."""
    rnd = random.Random(7)
    filt = Filter.from_coeffs(dilation_1d(), {(n,): rnd.uniform(0.1, 1.0)
                                              for n in rnd.sample(range(2048), 1024)})
    tracemalloc.start()
    try:
        report = transfer(filt, quincunx_matrix())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(report.iso.index_map) > 1000
    assert peak < 10 * 2**20


def test_reports_share_the_filter_system():
    """A report keeps the filters it was given and made, so the systems a
    caller builds from it are the filters' cached ones."""
    filt = Filter.from_coeffs(dilation_1d(), daubechies4_1d().coeffs)
    assert from_one_d(filt, quincunx_matrix()).source_filter is filt
    report = transfer(filt, quincunx_matrix())
    assert report.source_filter is filt
    assert report.stages[1].source_filter is report.stages[0].target_filter
    assert report.target_filter is report.stages[1].target_filter
    assert report.source_filter.system is filt.system
