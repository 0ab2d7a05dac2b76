"""Two-scale coefficients of the quincunx Shannon scaling function.

The scaling function here is the inverse transform of
(1/2pi) * chi_{[-pi,pi]^2} with the quincunx dilation [[1,1],[-1,1]].  Its
two-scale coefficient at (m, n) reduces, after moving the inner product to
the frequency side, to

    s(m, n) = (sqrt(2) / (4 pi^2)) * integral over |t1|+|t2| <= pi
              of cos(m t1 + n t2) dt1 dt2.

Rotating the diamond by u = t1 + t2, v = t1 - t2 makes the integral separable
and exactly evaluable: it vanishes iff m + n is even (and (m, n) != 0), and
equals (2 sqrt(2) / pi^2) * (-1)^(m+1) / (m^2 - n^2) when m + n is odd.  The
test suite cross-checks the closed form against adaptive 2D quadrature of the
defining integral.  The support therefore contains the full odd-sum
sublattice shifted copy of Z^2, which is what ``sublattice_premise`` detects
(an infinite even-sum sublattice inside a support rules out any
one-dimensional transfer).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .errors import DimensionMismatchError
from .intlat import as_int

if TYPE_CHECKING:  # annotations only: the Shannon coefficients need no reduced system
    from .lawton import SupportSet


def _cosine_line_integral(p: int) -> float:
    """integral_{-pi}^{pi} cos(p u / 2) du, exact by branch.

    p is twice the cosine frequency (the frequency itself may be a
    half-integer).  Even p integrates to 0 unless p == 0; odd p to
    4*(-1)^((|p|-1)/2) / |p|.
    """
    p = abs(p)
    if p == 0:
        return 2.0 * math.pi
    if p % 2 == 0:
        return 0.0
    sign = 1.0 if (p - 1) % 4 == 0 else -1.0
    return 4.0 * sign / p


def shannon_coeff(m: int, n: int) -> float:
    """Two-scale coefficient s(m, n), evaluated in closed form."""
    m, n = as_int(m), as_int(n)
    c1 = _cosine_line_integral(m + n)
    c2 = _cosine_line_integral(m - n)
    return (math.sqrt(2.0) / (4.0 * math.pi ** 2)) * 0.5 * c1 * c2


class SupportPatternReport(NamedTuple):
    """Classification of the window [-W, W]^2, ``values`` in ascending (m, n) order.

    ``shannon_coeff`` is exactly 0.0 at every even-sum point but the origin
    and a nonzero float at every odd-sum point, so the pattern is decided by
    exact comparison with zero; the smallest odd magnitude,
    (2 sqrt(2) / pi^2) / (W^2 - 1) or / W^2, shrinks with the width.
    """

    half_width: int
    values: dict[tuple[int, int], float]
    min_odd_magnitude: float
    max_even_magnitude: float

    @property
    def pattern_holds(self) -> bool:
        return self.min_odd_magnitude != 0.0 and self.max_even_magnitude == 0.0


def support_pattern(half_width: int) -> SupportPatternReport:
    """Evaluate the window and check the parity support pattern."""
    half_width = as_int(half_width)
    if half_width < 1:
        raise ValueError("half width must be >= 1")
    values: dict[tuple[int, int], float] = {}
    min_odd = math.inf
    max_even = 0.0
    for m in range(-half_width, half_width + 1):
        for n in range(-half_width, half_width + 1):
            s = shannon_coeff(m, n)
            values[(m, n)] = s
            if (m + n) % 2 != 0:
                min_odd = min(min_odd, abs(s))
            elif (m, n) != (0, 0):
                max_even = max(max_even, abs(s))
    return SupportPatternReport(
        half_width=half_width,
        values=values,
        min_odd_magnitude=min_odd,
        max_even_magnitude=max_even,
    )


def sublattice_premise(support: SupportSet, half_width: int) -> bool:
    """Whether the support contains the whole even-sum sublattice window.

    True iff every (m, n) with m + n even and |m|, |n| <= half_width lies in
    the support; a support with this property (for all widths) cannot be
    carried onto a one-dimensional system by any algebraic isomorphism.
    """
    half_width = as_int(half_width)
    if support.dim != 2:
        raise DimensionMismatchError(f"support is {support.dim}-dimensional, expected 2")
    pts = support.points
    for m in range(-half_width, half_width + 1):
        for n in range(-half_width, half_width + 1):
            if (m + n) % 2 == 0 and (m, n) not in pts:
                return False
    return True
