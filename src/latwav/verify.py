"""Numerical verification that a filter solves its reduced Lawton system."""

from __future__ import annotations

import cmath
import math
import operator
import random
from itertools import repeat
from typing import NamedTuple

from .intlat import LatticePoint, coset_representative, smith_normal_form
from .lawton import SQRT2, Filter, ReducedSystem, _same_parity_scan

QMF_SAMPLES = 1024
QMF_SEED = 0


class ResidualReport(NamedTuple):
    """Per-generator residuals plus the linear normalization residual.

    ``max_residual`` is the maximum over all per-index residuals and
    ``sum_residual``.
    """

    filter: Filter
    per_index: dict[LatticePoint, float]
    sum_residual: float
    max_residual: float

    @property
    def system(self) -> ReducedSystem:
        """The filter's reduced system, built on first use (``Filter.system``)."""
        return self.filter.system

    def passes(self, tolerance: float) -> bool:
        return self.max_residual <= tolerance


def lawton_residuals(filt: Filter) -> ResidualReport:
    """Evaluate every equation of the filter's reduced system off its chart,
    with no system built and no pair stored.

    Each pair (a, b) of ``_same_parity_scan`` adds h_a * conj(h_b) to the
    sum of v = c_b - c_a, from 0.0, in the build's pair order: support
    order, which transfers map onto each other, so a transferred filter
    reproduces its source's residuals bit for bit, the sum of the taps too.
    Sorted v is index-set order, and the right-hand side is 1 at v = 0 only.
    """
    coeffs = filt.coeffs
    conj = {n: h.conjugate() for n, h in coeffs.items()}
    total, sums, gens = 0.0, {}, {}  # by v: the running sum, and b - a of its first pair
    for a, ca, _, tail in _same_parity_scan(filt.chart):
        ha = coeffs[a]
        total = total + ha
        for cb, b in tail:
            v = cb - ca
            acc = sums.get(v)
            if acc is None:
                gens[v], acc = tuple(map(operator.sub, b, a)), 0.0
            sums[v] = acc + ha * conj[b]
    per_index = {gens[v]: abs(sums[v] - (1 if v == 0 else 0)) for v in sorted(sums)}
    sum_residual = abs(total - SQRT2)
    max_residual = max(sum_residual, max(per_index.values()))
    return ResidualReport(filt, per_index, sum_residual, max_residual)


def _dual_coset_shift(filt: Filter) -> tuple[float, ...]:
    """The frequency shift 2*pi*(A^T)^-1*q with q outside A^T*Z^d.

    q is the coset representative obtained from the Smith normal form of the
    transpose; the solve is exact (adjugate over determinant) up to the
    integer true division, which rounds each quotient correctly.  The
    denominator is made positive first, so a zero quotient is +0.0.
    det(A^T) = det(A) and adj(A^T) = adj(A)^T are read off the matrix.
    """
    dil = filt.matrix
    q = coset_representative(smith_normal_form(dil.A.transpose()))
    det = dil.det
    num = dil.adj.transpose().vec(q)
    if det < 0:
        det, num = -det, [-x for x in num]
    return tuple(2.0 * math.pi * (x / det) for x in num)


def _sample_points(samples: int, dim: int, seed: int) -> list[float]:
    """The ``samples`` x ``dim`` frequency points of ``qmf_check``, row-major.

    Each coordinate is -pi + 2*pi*u, with u from the standard library's
    ``random.Random(seed)``.  Python documents that generator's ``random()``
    stream for an integer seed as the same on every version, so a printed
    seed reproduces its points across upgrades; numpy makes no such promise
    for its ``Generator`` streams.
    """
    rng = random.Random(seed)
    return [-math.pi + 2.0 * math.pi * rng.random() for _ in range(samples * dim)]


# The largest samples x support size that ``qmf_check`` evaluates with cmath
# and math; above it, numpy evaluates.  This is not a tolerance: both
# evaluators sample the same points, and the verdict comes from the
# residuals alone, so it decides only which code runs, never a result.  It
# is the largest power of two at which the standard-library sum costs no
# more than numpy's import with one OpenBLAS thread (2-core VM, Python 3.11,
# numpy 2.4.6, medians): 1024 samples of 64 support points take 34-72 ms
# for d = 1-4, and of 128 points 67-145 ms, against 80-107 ms for that
# import (148-181 ms with OpenBLAS's default threads).
_STDLIB_QMF_MAX_TERMS = 2**16


def qmf_check(filt: Filter, samples: int = QMF_SAMPLES, seed: int = QMF_SEED) -> float:
    """Max deviation of |m0(xi)|^2 + |m0(xi + zeta)|^2 from 1.

    m0 is the frequency response 2^(-1/2) * sum h_n exp(-i n.xi) and zeta the
    dual-lattice coset shift; for an exact solution the deviation vanishes up
    to roundoff.  The points xi come from ``random.Random(seed)`` (see
    ``_sample_points``).  A small check runs on the standard library, since
    numpy's import costs more than the whole sum; a large one runs on numpy
    and loads only what ``import numpy`` loads, no random-number module of
    numpy's.  Either way a coordinate beyond double range raises
    ``OverflowError``, and a phase that overflows makes the deviation NaN.
    """
    if samples * len(filt.coeffs) <= _STDLIB_QMF_MAX_TERMS:
        return _qmf_check_stdlib(filt, samples, seed)
    return _qmf_check_numpy(filt, samples, seed)


def _qmf_check_stdlib(filt: Filter, samples: int, seed: int) -> float:
    """``qmf_check`` on cmath and math, one support point at a time.

    Column j holds coordinate j of every xi, then of every xi + zeta, so
    each support point adds its term at all 2 x ``samples`` points in one
    pass; every sum runs in sorted support order.
    """
    dim = filt.dim
    zeta = _dual_coset_shift(filt)
    flat = _sample_points(samples, dim, seed)
    cols = [flat[j::dim] + [x + zeta[j] for x in flat[j::dim]] for j in range(dim)]
    # -n as floats, all converted before any sum, as numpy's array is.
    terms = [([-float(c) for c in n], complex(h)) for n, h in sorted(filt.coeffs.items())]
    acc = [0j] * (2 * samples)
    try:
        for neg, h in terms:
            phase = list(map(operator.mul, cols[0], repeat(neg[0])))
            for col, c in zip(cols[1:], neg[1:]):
                phase = list(map(operator.add, phase, map(operator.mul, col, repeat(c))))
            acc = list(map(operator.add, acc,
                           map(operator.mul, repeat(h), map(cmath.rect, repeat(1.0), phase))))
    except ValueError:  # an infinite phase, where numpy's exp gives NaN
        return math.nan
    power = []
    for z in acc:
        re, im = z.real / SQRT2, z.imag / SQRT2
        power.append(re * re + im * im)  # no ** 2: it raises on overflow
    dev = [abs(p + q - 1.0) for p, q in zip(power[:samples], power[samples:])]
    # np.max propagates NaN; Python's max may skip it.
    return math.nan if any(map(math.isnan, dev)) else max(dev)


def _qmf_check_numpy(filt: Filter, samples: int, seed: int) -> float:
    """``qmf_check`` on numpy, all points at once."""
    import numpy as np

    pts = sorted(filt.coeffs)
    n_mat = np.array(pts, dtype=float)
    values = np.array([filt.coeffs[p] for p in pts], dtype=complex)
    zeta = np.array(_dual_coset_shift(filt))

    xi = np.array(_sample_points(samples, filt.dim, seed)).reshape(samples, filt.dim)

    def m0(points: np.ndarray) -> np.ndarray:
        # exp(-i n.xi) from the real product n.xi, in one complex buffer:
        # exp over the complex product (-1j * points) @ n_mat.T is several
        # times slower, and a temporary for -1j * (n.xi) raises peak memory.
        # The buffer holds exactly the value -1j * (n.xi) would, 0 - i n.xi.
        phases = np.empty((len(points), len(pts)), dtype=complex)
        phases.real = 0.0
        np.negative(points @ n_mat.T, out=phases.imag)
        np.exp(phases, out=phases)
        return phases @ values / SQRT2

    dev = np.abs(m0(xi)) ** 2 + np.abs(m0(xi + zeta)) ** 2 - 1.0
    return float(np.max(np.abs(dev)))
