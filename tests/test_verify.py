"""Residual evaluation and the frequency-domain cross-check."""

import math

import numpy as np

from latwav.filters import (
    antidiagonal_matrix,
    companion_3d_matrix,
    daubechies4_1d,
    dilation_1d,
    haar_1d,
    quincunx_daubechies4,
    quincunx_haar,
    quincunx_matrix,
)
from latwav.transfer import Filter, transfer
from latwav.verify import SQRT2, _dual_coset_shift, _sample_points, lawton_residuals, qmf_check
from util import lattice_chart, random_dyadic_matrices, reference_qmf_check

BUNDLED = (haar_1d, daubechies4_1d, quincunx_haar, quincunx_daubechies4)


def test_haar_residuals():
    report = lawton_residuals(haar_1d())
    assert report.max_residual < 1e-15
    assert set(report.per_index) == {(0,)}


def test_db4_residuals_match_direct_arithmetic():
    filt = daubechies4_1d()
    h = [filt.coeffs[(i,)] for i in range(4)]
    report = lawton_residuals(filt)
    assert set(report.per_index) == {(0,), (2,)}
    # same summation order as the evaluator: by support point
    assert report.per_index[(0,)] == abs((h[0] * h[0] + h[1] * h[1] + h[2] * h[2] + h[3] * h[3]) - 1)
    assert report.per_index[(2,)] == abs(h[0] * h[2] + h[1] * h[3])
    assert report.sum_residual == abs(h[0] + h[1] + h[2] + h[3] - SQRT2)
    assert report.max_residual < 1e-12


def test_perturbed_haar_reports_the_perturbation():
    inv = 1.0 / math.sqrt(2.0)
    filt = Filter.from_coeffs(dilation_1d(), {(0,): inv, (1,): inv + 1e-3})
    report = lawton_residuals(filt)
    assert report.max_residual >= 1e-3
    assert not report.passes(1e-10)


def test_qmf_haar_with_pi_shift():
    shift = _dual_coset_shift(haar_1d())
    assert shift.shape == (1,)
    assert abs(shift[0] - math.pi) < 1e-15
    assert qmf_check(haar_1d()) < 1e-12


def test_qmf_bundled_filters():
    for make in BUNDLED:
        assert qmf_check(make()) < 1e-10


def test_qmf_real_phases_match_reference_bitwise():
    """The real phase product gives the same deviation, bit for bit, as the
    former complex product: on the bundled filters and on random real and
    complex filters over random lattices in d = 1-3, L up to 256."""
    for make in BUNDLED:
        filt = make()
        assert qmf_check(filt) == reference_qmf_check(filt)
        assert qmf_check(filt, samples=64, seed=5) == reference_qmf_check(filt, 64, 5)
    rng = np.random.default_rng(8)
    for d in (1, 2, 3):
        for size, m in zip((1, 3, 17, 64, 256), random_dyadic_matrices(rng, d, 5)):
            pts = {tuple(int(x) for x in rng.integers(-20, 21, size=d)) for _ in range(size)}
            values = rng.normal(size=len(pts))
            if size % 2:
                values = values + 1j * rng.normal(size=len(pts))
            filt = Filter.from_coeffs(lattice_chart(m), dict(zip(sorted(pts), values.tolist())))
            assert qmf_check(filt) == reference_qmf_check(filt), (d, size, m.rows)


def test_qmf_detects_perturbation():
    inv = 1.0 / math.sqrt(2.0)
    eps = 1e-3
    filt = Filter.from_coeffs(dilation_1d(), {(0,): inv, (1,): inv + eps})
    dev = qmf_check(filt, samples=512)
    assert dev > 0.1 * eps


def test_qmf_bounded_by_residual_scale():
    """Frequency deviation stays within a modest constant of the residual."""
    inv = 1.0 / math.sqrt(2.0)
    for eps in (1e-2, 1e-4, 1e-6):
        filt = Filter.from_coeffs(dilation_1d(), {(0,): inv, (1,): inv + eps})
        res = lawton_residuals(filt).max_residual
        dev = qmf_check(filt, samples=512)
        assert dev <= 8.0 * res


def test_qmf_deterministic_for_fixed_seed():
    a = qmf_check(daubechies4_1d(), samples=256, seed=3)
    b = qmf_check(daubechies4_1d(), samples=256, seed=3)
    assert a == b


def test_qmf_sample_stream_is_pinned():
    """The first points of ``random.Random(seed)``, as literal floats: Python
    promises this stream on every version, so a change in any supported
    Python fails here."""
    assert _sample_points(3, 1, 0) == [2.1640663169737717, 1.6207753144767914, -0.4990634762961359]
    assert _sample_points(2, 2, 5) == [
        0.7722141235584434, 1.5191924583902034,  # first row
        1.8547558739363392, 2.779997122185401,  # second row
    ]
    # a longer draw begins with the shorter one
    assert _sample_points(1024, 1, 0)[:3] == _sample_points(3, 1, 0)


def test_transfer_preserves_residuals_bitwise():
    targets = (dilation_1d(), quincunx_matrix(), antidiagonal_matrix(), companion_3d_matrix())
    for make in BUNDLED:
        source = make()
        src_report = lawton_residuals(source)
        for target in targets:
            report = transfer(source, target)
            tgt_report = lawton_residuals(report.target_filter)
            assert tgt_report.sum_residual == src_report.sum_residual
            assert sorted(tgt_report.per_index.values()) == sorted(src_report.per_index.values())
            assert tgt_report.max_residual == src_report.max_residual
            # per-generator match through the composed index map
            for k, value in src_report.per_index.items():
                assert tgt_report.per_index[report.iso.index_map[k]] == value


def test_residuals_use_the_filter_system():
    filt = Filter.from_coeffs(dilation_1d(), haar_1d().coeffs)
    assert lawton_residuals(filt).system is filt.system


def test_complex_filter_residuals():
    # rotate Haar by a unimodular phase on one generator pair: still a frame
    # filter iff the equations hold; here they do not, and the report says so.
    inv = 1.0 / math.sqrt(2.0)
    filt = Filter.from_coeffs(dilation_1d(), {(0,): inv * 1j, (1,): inv})
    report = lawton_residuals(filt)
    assert report.per_index[(0,)] < 1e-15  # modulus equation still holds
    assert report.sum_residual > 0.5  # linear normalization broken
