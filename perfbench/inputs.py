"""Seeded inputs for the latwav benchmark.

Everything here is computed by the benchmark itself, never by the package
under test, so a change to latwav cannot change its own inputs:

* Daubechies-2N filters by spectral factorization with ``numpy.roots``
  (Daubechies, *Ten Lectures on Wavelets*, 1992, section 6.4), kept only for
  the orders whose Lawton residual is at most ``DAUB_TOL``;
* dyadic matrices that are expansive by construction: unimodular
  conjugates U C U^-1 of the companion matrix C of x^d + 2 or x^d - 2,
  whose eigenvalues all have modulus 2^(1/d);
* random-coefficient supports: L distinct points drawn from a box of about
  2L lattice points.

A seeded ``random.Random`` makes every discrete choice, so one seed gives
one input set on every run.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np

DAUB_TOL = 1e-10
DAUB_MAX_TAPS = 52
SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / SQRT2

QUINCUNX = ((1, 1), (-1, 1))
ANTIDIAGONAL = ((0, 2), (1, 0))
COMPANION3D = ((0, 0, -2), (1, 0, 0), (0, 1, 0))

# Where the four db4 taps sit once carried to each 2-D/3-D matrix: the
# supports latwav 0.1.0 produces with `transfer`, fixed here as data so the
# inputs do not move when the transfer code changes.  Each use is re-checked
# as a solution by `lawton_residual`.
DB4_CARRIED = {
    QUINCUNX: ((0, 0), (0, 1), (1, -1), (1, 0)),
    ANTIDIAGONAL: ((0, 0), (1, 0), (0, 1), (1, 1)),
    COMPANION3D: ((0, 0, 0), (-1, 0, 0), (0, 1, 0), (-1, 1, 0)),
}


# --- exact integer helpers ------------------------------------------------

def det(rows) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def matmul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def in_lattice(rows, k) -> bool:
    """Whether k lies in A*Z^d: solve A x = k over the rationals."""
    d = len(rows)
    m = [[Fraction(x) for x in row] + [Fraction(k[i])] for i, row in enumerate(rows)]
    for c in range(d):
        p = next(i for i in range(c, d) if m[i][c] != 0)
        m[c], m[p] = m[p], m[c]
        for i in range(d):
            if i != c and m[i][c] != 0:
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return all((m[i][d] / m[i][i]).denominator == 1 for i in range(d))


def lawton_residual(rows, coeffs: dict) -> float:
    """Max Lawton residual of a real filter, evaluated independently of latwav."""
    pts = list(coeffs)
    worst = abs(math.fsum(coeffs.values()) - SQRT2)
    diffs = {tuple(b - a for a, b in zip(p, q)) for p in pts for q in pts}
    for k in diffs:
        if not in_lattice(rows, k):
            continue
        acc = math.fsum(
            v * coeffs.get(tuple(a + b for a, b in zip(n, k)), 0.0) for n, v in coeffs.items()
        )
        worst = max(worst, abs(acc - (1.0 if not any(k) else 0.0)))
    return worst


# --- filters and matrices ----------------------------------------------------

def daubechies(taps: int) -> list[float]:
    """Minimum-phase Daubechies filter with ``taps`` = 2N coefficients."""
    n = taps // 2
    y_roots = np.roots([math.comb(n - 1 + k, k) for k in range(n - 1, -1, -1)]) if n > 1 else []
    zeros = []
    for y in y_roots:
        z = np.roots([1.0, -(2.0 - 4.0 * y), 1.0])
        zeros.append(z[np.argmin(np.abs(z))])
    h = np.poly(np.concatenate([-np.ones(n), np.array(zeros, dtype=complex)])).real
    h = h * (SQRT2 / h.sum())
    return [float(x) for x in h]


def daubechies_family() -> dict[int, list[float]]:
    """Daubechies-2N for 2N = 2..DAUB_MAX_TAPS whose residual is within DAUB_TOL."""
    family = {}
    for taps in range(2, DAUB_MAX_TAPS + 1, 2):
        h = daubechies(taps)
        if lawton_residual(((2,),), {(i,): v for i, v in enumerate(h)}) <= DAUB_TOL:
            family[taps] = h
    return family


def companion(d: int, sign: int):
    """Companion matrix of x^d + sign*2."""
    return tuple(
        tuple(-2 * sign if (j == d - 1 and i == 0) else int(i == j + 1) for j in range(d))
        for i in range(d)
    )


def random_dyadic(rng: random.Random, d: int):
    """U C U^-1 for a random unimodular U and C the companion of x^d +/- 2."""
    c = companion(d, rng.choice((1, -1)))
    u = [[int(i == j) for j in range(d)] for i in range(d)]
    u_inv = [row[:] for row in u]
    for _ in range(d + 1 if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        s = rng.choice((1, -1))
        # U <- E U and U^-1 <- U^-1 E^-1 with E = I + s e_i e_j^T.
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= s * row[i]
    return matmul(matmul(u, c), u_inv)


def random_support(rng: random.Random, size: int, d: int) -> list[tuple[int, ...]]:
    """``size`` distinct points of a box holding about 2*size lattice points."""
    side = math.ceil((2 * size) ** (1.0 / d))
    box = list(product(range(side), repeat=d))
    return sorted(rng.sample(box, size))


def random_coeffs(rng: random.Random, points) -> dict:
    return {p: rng.choice((1, -1)) * rng.uniform(0.05, 1.0) for p in points}


def moved(rng: random.Random, coeffs: dict) -> dict:
    """A random translate, possibly reflected through the origin.

    Both maps keep a solution a solution (the Lawton equations depend only
    on support differences, and A*Z^d is symmetric), and neither changes the
    cascade's cell counts, so the seed varies the inputs but not their cost.
    """
    sign = rng.choice((1, -1))
    d = len(next(iter(coeffs)))
    shift = [rng.randint(-3, 3) for _ in range(d)]
    return {tuple(sign * c + s for c, s in zip(p, shift)): v for p, v in coeffs.items()}


def filter_json(rows, coeffs: dict) -> dict:
    return {
        "dim": len(rows),
        "matrix": matrix_json(rows),
        "coeffs": [{"n": list(p), "re": v, "im": 0.0} for p, v in sorted(coeffs.items())],
    }


def matrix_json(rows) -> dict:
    return {"dim": len(rows), "rows": [list(r) for r in rows]}
