"""Shannon coefficient closed form vs quadrature oracle, pattern, premise."""

import math

import pytest
from scipy.integrate import dblquad

from latwav.errors import DimensionMismatchError
from latwav.lawton import SupportSet
from latwav.quincunx import shannon_coeff, sublattice_premise, support_pattern

SQRT2 = math.sqrt(2.0)


def shannon_coeff_quadrature(m: int, n: int, epsabs: float = 1e-12,
                             epsrel: float = 1e-12) -> float:
    """Independent oracle: adaptive 2D quadrature of the defining integral.

    Integrates cos(m t1 + n t2) over the diamond |t1| + |t2| <= pi directly
    (split at the t1 = 0 kink of the boundary), no change of variables.
    """
    def integrand(t2, t1):
        return math.cos(m * t1 + n * t2)

    total = 0.0
    for lo, hi in ((-math.pi, 0.0), (0.0, math.pi)):
        val, _ = dblquad(
            integrand, lo, hi,
            lambda t1: abs(t1) - math.pi,
            lambda t1: math.pi - abs(t1),
            epsabs=epsabs, epsrel=epsrel,
        )
        total += val
    return (SQRT2 / (4.0 * math.pi ** 2)) * total


def test_frozen_values():
    assert abs(shannon_coeff(0, 0) - 1.0 / SQRT2) < 1e-15
    assert abs(shannon_coeff(1, 0) - 2.0 * SQRT2 / math.pi ** 2) < 1e-15
    assert shannon_coeff(2, 0) == 0.0
    assert shannon_coeff(1, 1) == 0.0
    assert shannon_coeff(0, 1) == shannon_coeff(1, 0)


def test_symmetry_under_negation():
    for m in range(-4, 5):
        for n in range(-4, 5):
            assert shannon_coeff(m, n) == shannon_coeff(-m, -n)


def test_oracle_agreement_full_window():
    """Closed form vs adaptive quadrature of the defining integral, |m|,|n| <= 5."""
    for m in range(-5, 6):
        for n in range(-5, 6):
            closed = shannon_coeff(m, n)
            quad = shannon_coeff_quadrature(m, n)
            assert abs(closed - quad) < 1e-10, (m, n, closed, quad)


def test_pattern_window():
    report = support_pattern(3)
    assert report.pattern_holds
    assert report.max_even_magnitude < 1e-9
    assert report.min_odd_magnitude > 1e-2
    # worst odd point in the window is (0, 3): |m^2 - n^2| = 9
    assert abs(report.min_odd_magnitude - 2.0 * SQRT2 / (9.0 * math.pi ** 2)) < 1e-15
    assert len(report.values) == 49


def test_decay_is_inverse_square_difference():
    """|s| * |m^2 - n^2| is constant on odd-sum points."""
    c = 2.0 * SQRT2 / math.pi ** 2
    for m in range(-6, 7):
        for n in range(-6, 7):
            if (m + n) % 2 != 0:
                assert abs(abs(shannon_coeff(m, n)) * abs(m * m - n * n) - c) < 1e-12


def test_window_sum_approaches_normalization():
    total = sum(
        shannon_coeff(m, n) for m in range(-25, 26) for n in range(-25, 26)
    )
    assert abs(total - SQRT2) < 0.1


def test_sublattice_premise_examples():
    full = SupportSet.from_points(
        [(m, n) for m in range(-2, 3) for n in range(-2, 3)]
    )
    assert sublattice_premise(full, 2)

    odd_only = SupportSet.from_points(
        [(m, n) for m in range(-3, 4) for n in range(-3, 4) if (m + n) % 2 != 0]
    )
    assert not sublattice_premise(odd_only, 2)


def test_sublattice_premise_shifted_pattern():
    report = support_pattern(3)
    shifted = SupportSet.from_points(
        [(m - 1, n) for (m, n), v in report.values.items() if abs(v) > 1e-9]
    )
    # the shift consumes one column of the window, so the premise holds one
    # width lower and fails at the full width
    assert sublattice_premise(shifted, 2)
    assert not sublattice_premise(shifted, 3)


def test_sublattice_premise_dimension_check():
    line = SupportSet.from_points([(0,), (1,)])
    with pytest.raises(DimensionMismatchError):
        sublattice_premise(line, 1)


def test_pattern_rejects_bad_width():
    with pytest.raises(ValueError):
        support_pattern(0)
