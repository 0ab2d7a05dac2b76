"""Bundled dilation matrices and exact example filters."""

from __future__ import annotations

import math
from functools import cache

from .intlat import DilationMatrix
from .lawton import Filter, SQRT2
from .transfer import dilation_1d, from_one_d

# 1/sqrt(2) so that sqrt(2) * h == 1.0 exactly in doubles; this keeps the
# Haar cascade an exact fixed point.
INV_SQRT2 = 1.0 / SQRT2


@cache
def quincunx_matrix() -> DilationMatrix:
    """The quincunx dilation [[1, 1], [-1, 1]] (even-sum sublattice)."""
    return DilationMatrix.from_matrix([[1, 1], [-1, 1]])


@cache
def antidiagonal_matrix() -> DilationMatrix:
    """[[0, 2], [1, 0]]: eigenvalues +/-sqrt(2)."""
    return DilationMatrix.from_matrix([[0, 2], [1, 0]])


@cache
def companion_3d_matrix() -> DilationMatrix:
    """3x3 companion matrix of x^3 + 2: all eigenvalue moduli 2^(1/3)."""
    return DilationMatrix.from_matrix([[0, 0, -2], [1, 0, 0], [0, 1, 0]])


@cache
def haar_1d() -> Filter:
    return Filter.from_coeffs(dilation_1d(), {(0,): INV_SQRT2, (1,): INV_SQRT2})


@cache
def daubechies4_1d() -> Filter:
    """The 4-tap Daubechies orthonormal filter (normalized to sum sqrt(2))."""
    r3 = math.sqrt(3.0)
    scale = 1.0 / (4.0 * SQRT2)
    taps = (1.0 + r3, 3.0 + r3, 3.0 - r3, 1.0 - r3)
    return Filter.from_coeffs(
        dilation_1d(), {(i,): scale * t for i, t in enumerate(taps)}
    )


@cache
def quincunx_haar() -> Filter:
    """Two taps of 1/sqrt(2) at the origin and the coset representative."""
    mat = quincunx_matrix()
    origin = (0,) * mat.dim
    return Filter.from_coeffs(mat, {origin: INV_SQRT2, mat.coset_rep: INV_SQRT2})


@cache
def quincunx_daubechies4() -> Filter:
    """Four-tap quincunx solution: the Daubechies filter carried to 2D."""
    return from_one_d(daubechies4_1d(), quincunx_matrix()).target_filter


BUNDLED_FILTERS = {
    "haar1d": haar_1d,
    "db4": daubechies4_1d,
    "quincunx_haar": quincunx_haar,
    "quincunx_db4": quincunx_daubechies4,
}

BUNDLED_MATRICES = {
    "dilation2": dilation_1d,
    "quincunx": quincunx_matrix,
    "antidiagonal": antidiagonal_matrix,
    "companion3d": companion_3d_matrix,
}
