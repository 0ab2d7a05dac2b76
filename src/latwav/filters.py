"""Bundled dilation matrices and exact example filters.

The CLI reads ``BUNDLED_FILTERS`` for its ``bundled`` choices on every
command, so a filter imports ``lawton`` (and ``transfer``) only when it is
built.
"""

from __future__ import annotations

import math
from functools import cache
from typing import TYPE_CHECKING

from .intlat import DilationMatrix

if TYPE_CHECKING:
    from .lawton import Filter


@cache
def dilation_1d() -> DilationMatrix:
    """The 1x1 dilation [2] (shared instance)."""
    return DilationMatrix.from_matrix([[2]])


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
    """Two taps of 1/sqrt(2): sqrt(2) * h == 1.0 exactly in doubles, which
    keeps the Haar cascade an exact fixed point."""
    from .lawton import SQRT2, Filter

    h = 1.0 / SQRT2
    return Filter.from_coeffs(dilation_1d(), {(0,): h, (1,): h})


@cache
def daubechies4_1d() -> Filter:
    """The 4-tap Daubechies orthonormal filter (normalized to sum sqrt(2))."""
    from .lawton import SQRT2, Filter

    r3 = math.sqrt(3.0)
    scale = 1.0 / (4.0 * SQRT2)
    taps = (1.0 + r3, 3.0 + r3, 3.0 - r3, 1.0 - r3)
    return Filter.from_coeffs(
        dilation_1d(), {(i,): scale * t for i, t in enumerate(taps)}
    )


@cache
def quincunx_haar() -> Filter:
    """Two taps of 1/sqrt(2), as in ``haar_1d``, at the origin and the coset
    representative."""
    from .lawton import SQRT2, Filter

    mat = quincunx_matrix()
    origin = (0,) * mat.dim
    h = 1.0 / SQRT2
    return Filter.from_coeffs(mat, {origin: h, mat.coset_rep: h})


@cache
def quincunx_daubechies4() -> Filter:
    """Four-tap quincunx solution: the Daubechies filter carried to 2D."""
    from .transfer import from_one_d

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
