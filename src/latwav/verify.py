"""The frequency-domain check of a filter: its QMF condition, sampled."""

from __future__ import annotations

import cmath
import math
import operator
import random
from itertools import repeat

# lawton_residuals is re-exported: perfbench/launcher.py times it as verify.lawton_residuals.
from .lawton import SQRT2, Filter, lawton_residuals

QMF_SAMPLES = 1024
QMF_SEED = 0


def _dual_coset_shift(filt: Filter) -> tuple[float, ...]:
    """The dual coset shift zeta = pi*(u mod 2), u the last row of U^-1.

    exp(-i n.zeta) = (-1)^(u.n), and u.n, the last adapted coordinate of n,
    is even exactly on A*Z^d; u, a row of a unimodular matrix, is not all even.
    """
    return tuple(math.pi * (x & 1) for x in filt.matrix.adapted_basis_inv.rows[-1])


def _sample_points(samples: int, dim: int, seed: int) -> list[float]:
    """The ``samples`` x ``dim`` frequency points of ``qmf_check``, row-major.

    Each coordinate is -pi + 2*pi*u, with u from the standard library's
    ``random.Random(seed)``.  Python documents that generator's ``random()``
    stream for an integer seed as the same on every version, so a printed
    seed reproduces its points across upgrades.
    """
    rng = random.Random(seed)
    return [-math.pi + 2.0 * math.pi * rng.random() for _ in range(samples * dim)]


def qmf_check(filt: Filter, samples: int = QMF_SAMPLES, seed: int = QMF_SEED) -> float:
    """Max deviation of |m0(xi)|^2 + |m0(xi + zeta)|^2 from 1.

    m0 is the frequency response 2^(-1/2) * sum h_n exp(-i n.xi) and zeta the
    dual-lattice coset shift; for an exact solution the deviation vanishes up
    to roundoff.  The points xi come from ``random.Random(seed)`` (see
    ``_sample_points``).  Column j holds coordinate j of every xi, then of
    every xi + zeta, so each support point, in sorted order, adds its term at
    all 2 x ``samples`` points in one pass.  A coordinate beyond double range
    raises ``OverflowError``; an overflowing phase makes the deviation NaN.
    """
    dim = filt.dim
    zeta = _dual_coset_shift(filt)
    flat = _sample_points(samples, dim, seed)
    cols = [flat[j::dim] + [x + zeta[j] for x in flat[j::dim]] for j in range(dim)]
    # -n as floats: a position beyond double range raises before any sum.
    terms = [([-float(c) for c in n], complex(h)) for n, h in sorted(filt.coeffs.items())]
    acc = [0j] * (2 * samples)
    try:
        for neg, h in terms:
            phase = map(operator.mul, cols[0], repeat(neg[0]))
            for col, c in zip(cols[1:], neg[1:]):
                phase = map(operator.add, phase, map(operator.mul, col, repeat(c)))
            if h.imag or not h.real:
                term = map(operator.mul, repeat(h), map(cmath.rect, repeat(1.0), phase))
            else:  # h * rect(1, p) is rect(h, p), the sign of a zero aside: one pass less
                term = map(cmath.rect, repeat(h.real), phase)
            acc = list(map(operator.add, acc, term))
    except ValueError:  # an infinite phase: its exponential is undefined
        return math.nan
    power = []
    for z in acc:
        re, im = z.real / SQRT2, z.imag / SQRT2
        power.append(re * re + im * im)  # no ** 2: it raises on overflow
    dev = [abs(p + q - 1.0) for p, q in zip(power[:samples], power[samples:])]
    # A NaN deviation anywhere makes the result NaN; Python's max may skip it.
    return math.nan if any(map(math.isnan, dev)) else max(dev)
