"""Numerical verification that a filter solves its reduced Lawton system."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .intlat import LatticePoint, coset_representative, smith_normal_form
from .lawton import ReducedSystem
from .transfer import Filter

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ResidualReport:
    """Per-generator residuals plus the linear normalization residual.

    ``max_residual`` is the maximum over all per-index residuals and
    ``sum_residual``.
    """

    system: ReducedSystem
    per_index: dict[LatticePoint, float]
    sum_residual: float
    max_residual: float

    def passes(self, tolerance: float) -> bool:
        return self.max_residual <= tolerance


def lawton_residuals(filt: Filter, system: ReducedSystem | None = None) -> ResidualReport:
    """Evaluate every equation of the filter's reduced system.

    Sums run in the system's canonical support order, which transfers map
    onto each other; a transferred filter therefore reproduces the exact
    floating-point residual values of its source.
    """
    if system is None:
        system = filt.system()
    coeffs = filt.coeffs
    per_index: dict[LatticePoint, float] = {}
    for k in system.index_set:
        eq = system.equations[k]
        acc = 0.0
        for n, m in eq.pairs:
            acc = acc + coeffs[n] * coeffs[m].conjugate()
        per_index[k] = abs(acc - eq.rhs)
    total = 0.0
    for n in system.support_order:
        total = total + coeffs[n]
    sum_residual = abs(total - SQRT2)
    max_residual = max(sum_residual, max(per_index.values()))
    return ResidualReport(
        system=system,
        per_index=per_index,
        sum_residual=sum_residual,
        max_residual=max_residual,
    )


def _dual_coset_shift(filt: Filter):
    """The frequency shift 2*pi*(A^T)^-1*q with q outside A^T*Z^d, as an array.

    q is the coset representative obtained from the Smith normal form of the
    transpose; the solve is exact (adjugate over determinant) before the
    final float conversion.
    """
    import numpy as np

    at = filt.matrix.A.transpose()
    q = coset_representative(smith_normal_form(at))
    det = at.det()
    num = at.adjugate().vec(q)
    return np.array([2.0 * math.pi * float(Fraction(x, det)) for x in num])


def qmf_check(filt: Filter, samples: int = 1024, seed: int = 0) -> float:
    """Max deviation of |m0(xi)|^2 + |m0(xi + zeta)|^2 from 1.

    m0 is the frequency response 2^(-1/2) * sum h_n exp(-i n.xi) and zeta the
    dual-lattice coset shift; for an exact solution the deviation vanishes up
    to roundoff.  Sampling points are pseudo-random with a fixed seed.
    """
    import numpy as np

    pts = sorted(filt.coeffs)
    n_mat = np.array(pts, dtype=float)
    values = np.array([filt.coeffs[p] for p in pts], dtype=complex)
    zeta = _dual_coset_shift(filt)

    rng = np.random.default_rng(seed)
    xi = rng.uniform(-math.pi, math.pi, size=(samples, filt.dim))

    def m0(points: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * points @ n_mat.T)
        return phases @ values / SQRT2

    dev = np.abs(m0(xi)) ** 2 + np.abs(m0(xi + zeta)) ** 2 - 1.0
    return float(np.max(np.abs(dev)))
