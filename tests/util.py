"""Shared helpers for the test suite."""

from itertools import product

import numpy as np

from latwav.intlat import IntMatrix


def random_dyadic_matrices(rng, dim: int, count: int) -> list[IntMatrix]:
    """Random integer matrices with entries in [-9, 9] and determinant +/-2.

    Rejection sampling with a float-determinant prefilter; every kept matrix
    is confirmed with the exact integer determinant.
    """
    if dim == 1:
        choices = [IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[-2]])]
        return [choices[int(rng.integers(0, 2))] for _ in range(count)]
    out: list[IntMatrix] = []
    while len(out) < count:
        batch = rng.integers(-9, 10, size=(4096, dim, dim))
        dets = np.rint(np.linalg.det(batch)).astype(np.int64)
        for raw in batch[np.abs(dets) == 2]:
            m = IntMatrix.from_rows(raw.tolist())
            if abs(m.det()) == 2:
                out.append(m)
                if len(out) == count:
                    break
    return out


def lattice_window(dim: int, radius: int):
    """Iterate all integer points of [-radius, radius]^dim."""
    return product(range(-radius, radius + 1), repeat=dim)


def companion(poly) -> IntMatrix:
    """Companion matrix of the monic x^n + c_1 x^(n-1) + ... + c_n, given as
    (1, c_1, ..., c_n); its characteristic polynomial is that polynomial."""
    n = len(poly) - 1
    return IntMatrix.from_rows(
        [[1 if j == i - 1 else 0 for j in range(n - 1)] + [-poly[n - i]] for i in range(n)]
    )


# Float expansiveness oracle: the library's former decision procedure.
# Minimal polynomials of the roots of unity of degree <= 2 are divided out
# exactly; the rest is decided from double-precision roots with a +/-1e-9
# band around modulus 1, inside which it has no answer.
EXPANSIVE_TOL = 1e-9
_UNIT_CIRCLE_FACTORS = (
    (1, -1),      # x - 1
    (1, 1),       # x + 1
    (1, 0, 1),    # x^2 + 1
    (1, 1, 1),    # x^2 + x + 1
    (1, -1, 1),   # x^2 - x + 1
)


def _monic_divides(divisor: tuple[int, ...], poly: tuple[int, ...]) -> bool:
    """Exact divisibility test for integer polynomials with monic divisor."""
    rem = list(poly)
    dd = len(divisor) - 1
    while len(rem) - 1 >= dd:
        lead = rem[0]
        if lead != 0:
            for i in range(dd + 1):
                rem[i] -= lead * divisor[i]
        rem.pop(0)
    return all(c == 0 for c in rem)


def float_is_expansive(A: IntMatrix) -> bool | None:
    """True/False as decided from float roots, None when inconclusive."""
    poly = A.charpoly()
    for factor in _UNIT_CIRCLE_FACTORS:
        if len(factor) <= len(poly) and _monic_divides(factor, poly):
            return False
    roots = np.roots(np.array(poly, dtype=float))
    min_mod = float(np.min(np.abs(roots)))
    if min_mod > 1.0 + EXPANSIVE_TOL:
        return True
    if min_mod < 1.0 - EXPANSIVE_TOL:
        return False
    return None
