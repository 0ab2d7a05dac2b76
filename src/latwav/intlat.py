"""Exact integer linear algebra for dyadic dilation matrices.

Everything in this module is computed over Python integers, which are
arbitrary precision; no operation here ever rounds.  The central objects are
the Smith normal form A = U*D*V of a determinant +/-2 integer matrix (D ends
in a single 2) and the unimodular change of basis it induces.  In the
"adapted" coordinates c = U^-1 * p the dilated lattice A*Z^d becomes the set
of vectors whose last coordinate is even, which is what every window/encoding
computation downstream relies on.

Every integer taken in passes ``as_int`` (``__index__``, never a ``bool``),
which ``as_point`` applies to each coordinate and ``IntMatrix`` to each entry.
"""

from __future__ import annotations

import math
import operator
from typing import NamedTuple

from .errors import DimensionMismatchError, NotDyadicError, NotExpansiveError

LatticePoint = tuple[int, ...]


def as_int(x) -> int:
    """``x`` as an ``int`` by ``__index__``; a ``bool`` or a non-integer raises ``TypeError``."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is a bool, not an integer")
    return operator.index(x)


def as_point(coords, dim: int | None = None) -> LatticePoint:
    """``coords`` by ``as_int``, as a point of dimension ``dim`` if given, else >= 1."""
    pt = tuple(map(as_int, coords))
    if dim is not None and len(pt) != dim:
        raise DimensionMismatchError(f"point {pt} has dimension {len(pt)}, expected {dim}")
    if not pt:
        raise DimensionMismatchError("lattice points must have dimension >= 1")
    return pt


class _IntMatrixFields(NamedTuple):
    rows: tuple[tuple[int, ...], ...]


class IntMatrix(_IntMatrixFields):
    """Immutable square integer matrix, each entry taken by ``as_int``."""

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(map(as_int, row)) for row in rows)
        d = len(rows)
        if d == 0 or any(len(r) != d for r in rows):
            raise DimensionMismatchError("matrix must be square and non-empty")
        return tuple.__new__(cls, (rows,))

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        d = as_int(d)
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(zip(*self.rows))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix dimensions differ")
        cols = other.transpose().rows
        return IntMatrix([sum(map(operator.mul, row, col)) for col in cols] for row in self.rows)

    def vec(self, p: LatticePoint) -> LatticePoint:
        """Matrix-vector product over the integers."""
        p = as_point(p, self.dim)
        return tuple(sum(map(operator.mul, row, p)) for row in self.rows)

    def power(self, k: int) -> "IntMatrix":
        k = as_int(k)
        if k < 0:
            raise ValueError("negative matrix powers are not integral")
        out = IntMatrix.identity(self.dim)
        base = self
        while k:
            if k & 1:
                out = out.mul(base)
            base = base.mul(base)
            k >>= 1
        return out

    def det(self) -> int:
        """Exact determinant, from the charpoly recursion (see ``_leverrier``)."""
        return self._leverrier()[1]

    def adjugate(self) -> "IntMatrix":
        """adj(M) with M * adj(M) = det(M) * I, exact (see ``_leverrier``)."""
        return self._leverrier()[2]

    def unimodular_inverse(self) -> "IntMatrix":
        """Exact integer inverse det * adj; requires det = +/-1."""
        _, d, adj = self._leverrier()
        if d not in (1, -1):
            raise ValueError(f"matrix with det {d} has no integer inverse")
        return IntMatrix((d * x for x in row) for row in adj.rows)

    def charpoly(self) -> tuple[int, ...]:
        """Monic characteristic polynomial coefficients, highest degree first."""
        return self._leverrier()[0]

    def _leverrier(self) -> tuple[tuple[int, ...], int, "IntMatrix"]:
        """Faddeev-LeVerrier: M_1 = I, c_k = -tr(A M_k) / k and
        M_(k+1) = A M_k + c_k I; every division is exact over the integers.

        Returns (1, c_1, ..., c_d), det A and adj A.  By Cayley-Hamilton,
        A * M_d = -c_d * I, and c_d = (-1)^d det A, so adj A = (-1)^(d-1) M_d.
        """
        n = self.dim
        coeffs = [1]
        m = [list(row) for row in IntMatrix.identity(n).rows]
        for k in range(1, n + 1):
            am = [[sum(map(operator.mul, row, col)) for col in zip(*m)] for row in self.rows]
            tr = sum(am[i][i] for i in range(n))
            if tr % k != 0:
                raise AssertionError("trace recursion lost exactness")
            c = -tr // k
            coeffs.append(c)
            if k < n:
                for i in range(n):
                    am[i][i] += c
                m = am
        sign = 1 if n % 2 == 0 else -1  # (-1)^d
        adj = IntMatrix((-sign * x for x in row) for row in m)
        return tuple(coeffs), sign * coeffs[-1], adj


class SnfFactorization(NamedTuple):
    """A = U * D * V with U, V unimodular and D = diag(1, ..., 1, 2)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def dim(self) -> int:
        return self.U.dim

    def product(self) -> IntMatrix:
        return self.U.mul(self.D).mul(self.V)


def is_expansive(A: IntMatrix, charpoly: tuple[int, ...] | None = None) -> bool:
    """True iff every eigenvalue of A has modulus > 1, decided exactly.

    The eigenvalues of A lie outside the closed unit disk exactly when the
    roots of the reversed characteristic polynomial r(z) = z^d * chi_A(1/z)
    lie inside the open disk.  That is settled by the Schur-Cohn (Jury)
    recursion run fraction-free over the integers: with f = a_0 + ... + a_n z^n
    and f* its reversal, f is stable iff |a_0| < |a_n| and
    (a_n f - a_0 f*) / z, of degree n - 1, is stable.  Each step divides out
    the content so the coefficients stay small.  Roots on the unit circle
    (and the eigenvalue 0) end the recursion with False; nothing rounds.
    ``charpoly``, when given, is A's, already computed.
    """
    # The charpoly's coefficients, highest degree first, are r's lowest first.
    f = list(charpoly or A.charpoly())
    while len(f) > 1:
        a0, an = f[0], f[-1]
        if abs(a0) >= abs(an):
            return False
        f = [an * x - a0 * y for x, y in zip(f[1:], reversed(f[:-1]))]
        g = math.gcd(*f)
        f = [x // g for x in f]
    return True


def _pivot_rows(x: list[list[int]], y: list[list[int]], s: int, p: int, c: int) -> None:
    """Row steps on x: move row p to row s, make x[s][c] positive and reduce
    every x[i][c] below it (i > s) by a floor quotient.  Each step E on x is
    mirrored as E^-T on y, which keeps y^T * x unchanged."""
    x[s], x[p] = x[p], x[s]
    y[s], y[p] = y[p], y[s]
    if x[s][c] < 0:
        x[s] = [-e for e in x[s]]
        y[s] = [-e for e in y[s]]
    pivot = x[s][c]
    for i in range(s + 1, len(x)):
        q = x[i][c] // pivot
        if q:
            x[i] = [e - q * f for e, f in zip(x[i], x[s])]
            y[s] = [e + q * f for e, f in zip(y[s], y[i])]


def smith_normal_form(A: IntMatrix) -> SnfFactorization:
    """Smith normal form A = U*D*V for a determinant +/-2 integer matrix.

    Pivoting is deterministic: the smallest nonzero absolute value in the
    working submatrix wins, ties broken by lowest row index then lowest
    column index.  The (unique) invariant factor 2 is moved to the last
    diagonal slot.  The pivots refuse any other A: they are positive with
    product |det A|, and a singular A leaves a zero block.
    """
    d = A.dim
    a = [list(row) for row in A.rows]
    ut = [list(row) for row in IntMatrix.identity(d).rows]
    v = [list(row) for row in IntMatrix.identity(d).rows]

    # Invariant: A = ut^T * a * v.  Row steps on a are mirrored on ut; a
    # column step on a is a row step on a^T, mirrored on v.  The row steps
    # read the pivot in column pj before the column swap brings it to s:
    # row and column steps act on opposite sides of a, and neither reads
    # what the other writes, so their order leaves U, D and V as they are.
    # Each finished pivot is positive, and later steps never touch it.
    for s in range(d):
        while True:
            best = min(((abs(a[i][j]), i, j) for i in range(s, d) for j in range(s, d)
                        if a[i][j]), default=None)
            if best is None:  # a zero block: A is singular
                break
            _, pi, pj = best
            _pivot_rows(a, ut, s, pi, pj)
            at = [list(col) for col in zip(*a)]
            _pivot_rows(at, v, s, pj, s)
            a = [list(row) for row in zip(*at)]
            if not any(a[i][s] or at[i][s] for i in range(s + 1, d)):
                break

    diag = [a[s][s] for s in range(d)]
    if sorted(diag) != [1] * (d - 1) + [2]:
        raise NotDyadicError(f"determinant is {A.det()}, expected +/-2")
    t = diag.index(2)
    for m in (ut, v):
        m[t], m[-1] = m[-1], m[t]
    a[t][t], a[-1][-1] = a[-1][-1], a[t][t]

    snf = SnfFactorization(
        U=IntMatrix(zip(*ut)), D=IntMatrix(a), V=IntMatrix(v)
    )
    if snf.product() != A:
        raise AssertionError("SNF postcondition U*D*V == A failed")
    return snf


def coset_representative(snf: SnfFactorization) -> LatticePoint:
    """The point U*e_d generating the nontrivial coset of A*Z^d in Z^d."""
    d = snf.dim
    return tuple(snf.U.rows[i][d - 1] for i in range(d))


def in_dilated_lattice_exact(A: IntMatrix, u_inverse: IntMatrix,
                             p: LatticePoint) -> bool:
    """Membership p in A*Z^d, decided by two independent exact routes.

    Route 1 solves A*x = p over the rationals (adjugate / determinant) and
    tests integrality; route 2 reads the parity of the last adapted
    coordinate.  Disagreement would mean a broken factorization, so it is an
    assertion failure rather than a recoverable error.
    """
    _, det_a, adj = A._leverrier()
    return _membership(det_a, adj, u_inverse, p)


def _membership(det_a: int, adj: IntMatrix, u_inverse: IntMatrix, p: LatticePoint) -> bool:
    p = as_point(p, adj.dim)
    route1 = all(x % det_a == 0 for x in adj.vec(p))
    route2 = u_inverse.vec(p)[-1] % 2 == 0
    if route1 != route2:
        raise AssertionError(f"lattice membership routes disagree at {p}")
    return route1


class DilationMatrix(NamedTuple):
    """An expansive determinant +/-2 integer matrix with its chart data.

    `adapted_basis` is U from the Smith normal form; its columns form the
    basis in which A*Z^d = {(x, 2n)}.  `coset_rep` = U*e_d generates the
    complementary coset.  `det` and `adj` are det(A) and adj(A), taken from
    the charpoly run that decides expansiveness.  All fields are immutable;
    instances are safe to share across threads.
    """

    A: IntMatrix
    snf: SnfFactorization
    adapted_basis: IntMatrix
    adapted_basis_inv: IntMatrix
    coset_rep: LatticePoint
    det: int
    adj: IntMatrix

    @classmethod
    def from_matrix(cls, A) -> "DilationMatrix":
        if not isinstance(A, IntMatrix):
            A = IntMatrix(A)
        charpoly, det, adj = A._leverrier()
        if not is_expansive(A, charpoly):
            raise NotExpansiveError("matrix has an eigenvalue of modulus <= 1")
        snf = smith_normal_form(A)
        u_inv = snf.U.unimodular_inverse()
        rep = coset_representative(snf)
        dil = cls(
            A=A,
            snf=snf,
            adapted_basis=snf.U,
            adapted_basis_inv=u_inv,
            coset_rep=rep,
            det=det,
            adj=adj,
        )
        if in_dilated_lattice(dil, rep):
            raise AssertionError("coset representative landed inside A*Z^d")
        return dil

    @property
    def dim(self) -> int:
        return self.A.dim


def in_dilated_lattice(dil: DilationMatrix, k: LatticePoint) -> bool:
    """True iff k is in A*Z^d (two exact routes, cross-checked; the same
    decision as ``in_dilated_lattice_exact`` with det and adj held)."""
    return _membership(dil.det, dil.adj, dil.adapted_basis_inv, k)


def to_adapted(dil: DilationMatrix, p: LatticePoint) -> LatticePoint:
    """Standard coordinates -> adapted coordinates (exact, unimodular)."""
    return dil.adapted_basis_inv.vec(p)


def from_adapted(dil: DilationMatrix, c: LatticePoint) -> LatticePoint:
    """Adapted coordinates -> standard coordinates (inverse of to_adapted)."""
    return dil.adapted_basis.vec(c)

