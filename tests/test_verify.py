"""Residual evaluation and the frequency-domain cross-check."""

import math
import random
import tracemalloc

import numpy as np
import pytest

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
from latwav.lawton import lawton_residuals
from latwav.transfer import Filter, from_one_d, transfer
from latwav.verify import SQRT2, _dual_coset_shift, _sample_points, qmf_check
from util import (lattice_chart, plain_qmf_check, random_dyadic_matrices,
                  reference_dual_coset_shift, reference_qmf_check)

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
    assert _dual_coset_shift(haar_1d()) == (math.pi,)
    assert qmf_check(haar_1d()) < 1e-12


def test_qmf_bundled_filters():
    for make in BUNDLED:
        assert qmf_check(make()) < 1e-10


def test_qmf_check_roundoff_does_not_grow_with_the_matrix_skew():
    """db4 carried onto the six most skewed of 50 random dyadic matrices per
    d = 2-4, skew being the largest coordinate of the former shift
    2 pi (A^T)^-1 q (131 pi to 324 pi here): the check reads at most 1e-13.
    With that representative, whose phases grow with it, it read 3.2e-13."""
    db4 = daubechies4_1d()
    filts = [from_one_d(db4, lattice_chart(m)).target_filter for d in (2, 3, 4)
             for m in random_dyadic_matrices(np.random.default_rng(5), d, 50)]
    filts.sort(key=lambda f: max(map(abs, reference_dual_coset_shift(f))), reverse=True)
    for filt in filts[:6]:
        assert qmf_check(filt) <= 1e-13, filt.matrix.A


def _random_filters(dims):
    """Random real and complex filters over random lattices, L up to 256:
    five per dimension, drawn in order, so the draws for d = 1-3 are the
    same whether or not d = 4 follows."""
    rng = np.random.default_rng(8)
    for d in dims:
        for size, m in zip((1, 3, 17, 64, 256), random_dyadic_matrices(rng, d, 5)):
            pts = {tuple(int(x) for x in rng.integers(-20, 21, size=d)) for _ in range(size)}
            values = rng.normal(size=len(pts))
            if size % 2:
                values = values + 1j * rng.normal(size=len(pts))
            yield Filter.from_coeffs(lattice_chart(m), dict(zip(sorted(pts), values.tolist())))


def _evaluator_gap_bound(filt) -> float:
    """A bound on |qmf_check deviation - reference deviation|; the derivation
    is in ``test_qmf_stdlib_evaluator_matches_reference_within_roundoff``."""
    u = 2.0**-53

    def gamma(k):
        return k * u / (1 - k * u)

    d, size = filt.dim, len(filt.coeffs)
    k_max = max(sum(map(abs, n)) for n in filt.coeffs)
    h_sum = sum(abs(h) for h in filt.coeffs.values())
    x_max = (math.pi + max(map(abs, _dual_coset_shift(filt)))) * (1 + u)
    eta = gamma(2 * d) * k_max * x_max + 4 * u + math.sqrt(2) * gamma(size + 2) * (1 + 4 * u)
    big_m = h_sum / SQRT2
    delta = h_sum * (eta + u * (1 + eta)) / SQRT2
    power = (2 * big_m + delta) * delta + gamma(5) * (big_m + delta) ** 2
    one = 2 * power + gamma(2) * (2 * (big_m + delta) ** 2 * (1 + gamma(5)) + 1)
    return 2 * one


def test_qmf_stdlib_evaluator_matches_reference_within_roundoff():
    """``qmf_check`` against the independent numpy evaluator of
    ``tests/util.py``, on the bundled filters and on the random draws above,
    d = 1-4, L up to 256: 262,144 terms at the default samples.

    Both sample the same float points x (xi, and xi + zeta added in float
    the same way), so they differ only in roundoff.  With u = 2^-53,
    gamma_k = k u / (1 - k u), L support points, K = max |n|_1,
    H = sum |h_n|, and X = (pi + max |zeta_j|)(1 + u) >= every coordinate,
    each evaluator at each point makes these errors:

    - the phase n.x, d products of a float by an integer exact as a float
      (|n_j| < 2^53) and d - 1 additions, at most 2d roundings in any order
      and with or without FMA, is off by at most gamma_2d K X;
    - cos and sin are within two ulps, so the computed exp(-i phase) is
      within 4u of the exact exponential of the computed phase, and so
      within gamma_2d K X + 4u of exp(-i n.x), since |e^ia - e^ib| <= |a - b|;
    - the complex sum of h_n times those L unit numbers adds at most
      sqrt(2) gamma_(L+2) H (1 + 4u) (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., section 3.6);
    so the sum S is off by at most H eta, eta = gamma_2d K X + 4u +
    sqrt(2) gamma_(L+2) (1 + 4u).  Dividing by the float SQRT2 adds u |S|,
    so m0 is off by at most delta = H (eta + u (1 + eta)) / SQRT2, and
    |m0| <= M = H / SQRT2.  Then |m0|^2 is off by at most
    (2M + delta) delta + gamma_5 (M + delta)^2 (the square, and numpy's
    hypot within one ulp), and the two additions of |m0(x)|^2 +
    |m0(x + zeta)|^2 - 1 add at most gamma_2 (2 (M + delta)^2 (1 + gamma_5)
    + 1).  The max over points moves by no more than the largest pointwise
    error, and the two evaluators' errors add: the bound is twice the sum.
    """
    filters = [make() for make in BUNDLED] + list(_random_filters((1, 2, 3, 4)))
    for filt in filters:
        gap = abs(qmf_check(filt, 1024, 0) - reference_qmf_check(filt))
        assert gap <= _evaluator_gap_bound(filt), (filt.dim, len(filt.coeffs), gap)


def test_qmf_check_equals_the_plain_loop_bitwise():
    """A real tap adds rect(h, phase) in place of h * rect(1, phase);
    the deviation is the same to the last bit, on the bundled filters (every
    tap real, db4's of both signs) and on the random real and complex draws,
    d = 1-3."""
    for make in BUNDLED:
        assert qmf_check(make()) == plain_qmf_check(make())
    for filt in _random_filters((1, 2, 3)):
        assert qmf_check(filt, 128, 1) == plain_qmf_check(filt, 128, 1), filt.matrix.A.rows


@pytest.mark.parametrize("coeffs, outcome", [
    ({(0,): 1e200, (1,): 1e200}, math.inf),  # |m0|^2 overflows
    ({(0,): 1.0, (10**308,): 1.0}, math.nan),  # the phase n.xi overflows
    ({(10**308,): 1.0, (10**400,): 1.0}, OverflowError),  # a position beyond double range
], ids=["power-overflow", "phase-overflow", "position-beyond-double"])
def test_both_evaluators_fail_alike(coeffs, outcome):
    """On input beyond double range ``qmf_check`` and the independent numpy
    evaluator agree: an infinite deviation, a NaN one, or ``OverflowError``
    before any sum."""
    filt = Filter.from_coeffs(dilation_1d(), coeffs)
    for evaluate in (qmf_check, reference_qmf_check):
        if outcome is OverflowError:
            with pytest.raises(OverflowError):
                evaluate(filt, 64, 0)
            continue
        with np.errstate(all="ignore"):
            value = evaluate(filt, 64, 0)
        assert value == outcome or (math.isnan(outcome) and math.isnan(value)), evaluate


def test_a_nan_phase_after_finite_points_makes_the_deviation_nan():
    """Seed 1671 draws two points whose first is finite everywhere and whose
    second has the phase (-10^308) x0 + 10^308 x1 = -inf + inf = NaN at
    xi + zeta, with no infinite phase anywhere.  np.max keeps the NaN where
    Python's max would return the first point's deviation."""
    filt = Filter.from_coeffs(quincunx_matrix(), {(0, 0): 1.0, (10**308, -(10**308)): 1.0})
    assert not math.isnan(qmf_check(filt, 1, 1671))
    assert math.isnan(qmf_check(filt, 2, 1671))
    with np.errstate(all="ignore"):
        assert math.isnan(reference_qmf_check(filt, 2, 1671))


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


def test_residuals_store_no_pair():
    """The residuals of 2048 points come off the chart: no system is built
    (the report builds it on demand) and the tracemalloc peak is about
    1.1 MiB, where walking the built system's million pairs took 74 MiB."""
    rnd = random.Random(7)
    filt = Filter.from_coeffs(dilation_1d(), {(n,): rnd.uniform(-1.0, 1.0)
                                              for n in rnd.sample(range(4096), 2048)})
    tracemalloc.start()
    try:
        report = lawton_residuals(filt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "system" not in vars(filt) and report.filter is filt
    assert len(report.per_index) > 2000
    assert peak < 5 * 2**20


def test_complex_filter_residuals():
    # rotate Haar by a unimodular phase on one generator pair: still a frame
    # filter iff the equations hold; here they do not, and the report says so.
    inv = 1.0 / math.sqrt(2.0)
    filt = Filter.from_coeffs(dilation_1d(), {(0,): inv * 1j, (1,): inv})
    report = lawton_residuals(filt)
    assert report.per_index[(0,)] < 1e-15  # modulus equation still holds
    assert report.sum_residual > 0.5  # linear normalization broken
