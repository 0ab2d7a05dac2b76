"""Exact integer linear algebra for dyadic dilation matrices.

Everything in this module is computed over Python integers, which are
arbitrary precision; no operation here ever rounds.  The central objects are
the Smith normal form A = U*D*V of a determinant +/-2 integer matrix (D ends
in a single 2) and the unimodular change of basis it induces.  In the
"adapted" coordinates c = U^-1 * p the dilated lattice A*Z^d becomes the set
of vectors whose last coordinate is even, which is what every window/encoding
computation downstream relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionMismatchError, NotDyadicError, NotExpansiveError

LatticePoint = tuple[int, ...]


def as_point(coords) -> LatticePoint:
    """Coerce an iterable of integers into a lattice point tuple."""
    pt = tuple(int(c) for c in coords)
    if not pt:
        raise DimensionMismatchError("lattice points must have dimension >= 1")
    return pt


def check_dim(p: LatticePoint, dim: int) -> None:
    if len(p) != dim:
        raise DimensionMismatchError(f"point {p} has dimension {len(p)}, expected {dim}")


@dataclass(frozen=True)
class IntMatrix:
    """Immutable square integer matrix with exact arithmetic."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        d = len(self.rows)
        if d == 0 or any(len(r) != d for r in self.rows):
            raise DimensionMismatchError("matrix must be square and non-empty")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))

    @classmethod
    def identity(cls, d: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        return self.rows[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.dim != other.dim:
            raise DimensionMismatchError("matrix dimensions differ")
        cols = other.transpose().rows
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
                for row in self.rows
            )
        )

    def vec(self, p: LatticePoint) -> LatticePoint:
        """Matrix-vector product over the integers."""
        check_dim(p, self.dim)
        return tuple(sum(a * b for a, b in zip(row, p)) for row in self.rows)

    def power(self, k: int) -> "IntMatrix":
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
        """Exact determinant by fraction-free (Bareiss) elimination."""
        n = self.dim
        a = [list(row) for row in self.rows]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def minor(self, i: int, j: int) -> "IntMatrix":
        rows = tuple(
            tuple(v for c, v in enumerate(row) if c != j)
            for r, row in enumerate(self.rows)
            if r != i
        )
        return IntMatrix(rows)

    def adjugate(self) -> "IntMatrix":
        """adj(M) with M * adj(M) = det(M) * I, exact."""
        n = self.dim
        if n == 1:
            return IntMatrix(((1,),))
        cof = [
            [(-1) ** (i + j) * self.minor(i, j).det() for j in range(n)]
            for i in range(n)
        ]
        return IntMatrix(tuple(zip(*cof)))  # transpose of cofactors

    def unimodular_inverse(self) -> "IntMatrix":
        """Exact integer inverse; requires det = +/-1."""
        d = self.det()
        if d not in (1, -1):
            raise ValueError(f"matrix with det {d} has no integer inverse")
        adj = self.adjugate()
        if d == 1:
            return adj
        return IntMatrix(tuple(tuple(-x for x in row) for row in adj.rows))

    def charpoly(self) -> tuple[int, ...]:
        """Monic characteristic polynomial coefficients, highest degree first.

        Faddeev-LeVerrier; every division is exact over the integers.
        """
        n = self.dim
        coeffs = [1]
        m = IntMatrix.identity(n)
        for k in range(1, n + 1):
            m = self.mul(m)
            tr = sum(m.rows[i][i] for i in range(n))
            if tr % k != 0:
                raise AssertionError("trace recursion lost exactness")
            c = -tr // k
            coeffs.append(c)
            m = IntMatrix(
                tuple(
                    tuple(m.rows[i][j] + (c if i == j else 0) for j in range(n))
                    for i in range(n)
                )
            )
        return tuple(coeffs)


@dataclass(frozen=True)
class SnfFactorization:
    """A = U * D * V with U, V unimodular and D = diag(1, ..., 1, 2)."""

    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    @property
    def dim(self) -> int:
        return self.U.dim

    def product(self) -> IntMatrix:
        return self.U.mul(self.D).mul(self.V)


def is_expansive(A: IntMatrix) -> bool:
    """True iff every eigenvalue of A has modulus > 1, decided exactly.

    The eigenvalues of A lie outside the closed unit disk exactly when the
    roots of the reversed characteristic polynomial r(z) = z^d * chi_A(1/z)
    lie inside the open disk.  That is settled by the Schur-Cohn (Jury)
    recursion run fraction-free over the integers: with f = a_0 + ... + a_n z^n
    and f* its reversal, f is stable iff |a_0| < |a_n| and
    (a_n f - a_0 f*) / z, of degree n - 1, is stable.  Each step divides out
    the content so the coefficients stay small.  Roots on the unit circle
    (and the eigenvalue 0) end the recursion with False; nothing rounds.
    """
    # The charpoly's coefficients, highest degree first, are r's lowest first.
    f = list(A.charpoly())
    while len(f) > 1:
        a0, an = f[0], f[-1]
        if abs(a0) >= abs(an):
            return False
        f = [an * x - a0 * y for x, y in zip(f[1:], reversed(f[:-1]))]
        g = math.gcd(*f)
        f = [x // g for x in f]
    return True


def smith_normal_form(A: IntMatrix) -> SnfFactorization:
    """Smith normal form A = U*D*V for a determinant +/-2 integer matrix.

    Pivoting is deterministic: the smallest nonzero absolute value in the
    working submatrix wins, ties broken by lowest row index then lowest
    column index.  The (unique) invariant factor 2 is moved to the last
    diagonal slot.
    """
    det_a = A.det()
    if abs(det_a) != 2:
        raise NotDyadicError(f"determinant is {det_a}, expected +/-2")
    d = A.dim
    a = [list(row) for row in A.rows]
    u = [list(row) for row in IntMatrix.identity(d).rows]
    v = [list(row) for row in IntMatrix.identity(d).rows]

    # Invariant maintained throughout: A_original = u * a * v.
    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        for r in range(d):  # columns i,j of u
            u[r][i], u[r][j] = u[r][j], u[r][i]

    def swap_cols(i, j):
        for r in range(d):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        v[i], v[j] = v[j], v[i]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        for r in range(d):
            u[r][i] = -u[r][i]

    def row_sub(i, s, q):
        # a.row[i] -= q * a.row[s];  u.col[s] += q * u.col[i]
        a[i] = [x - q * y for x, y in zip(a[i], a[s])]
        for r in range(d):
            u[r][s] += q * u[r][i]

    def col_sub(j, s, q):
        # a.col[j] -= q * a.col[s];  v.row[s] += q * v.row[j]
        for r in range(d):
            a[r][j] -= q * a[r][s]
        v[s] = [x + q * y for x, y in zip(v[s], v[j])]

    for s in range(d):
        while True:
            best = None
            for i in range(s, d):
                for j in range(s, d):
                    val = abs(a[i][j])
                    if val and (best is None or val < best[0]):
                        best = (val, i, j)
            if best is None:
                raise AssertionError("singular block in a nonsingular matrix")
            _, pi, pj = best
            if pi != s:
                swap_rows(s, pi)
            if pj != s:
                swap_cols(s, pj)
            if a[s][s] < 0:
                negate_row(s)
            pivot = a[s][s]
            for i in range(s + 1, d):
                if a[i][s]:
                    q = a[i][s] // pivot
                    if q:
                        row_sub(i, s, q)
            for j in range(s + 1, d):
                if a[s][j]:
                    q = a[s][j] // pivot
                    if q:
                        col_sub(j, s, q)
            if all(a[i][s] == 0 for i in range(s + 1, d)) and all(
                a[s][j] == 0 for j in range(s + 1, d)
            ):
                break

    for s in range(d):
        if a[s][s] < 0:
            negate_row(s)
    diag = [a[s][s] for s in range(d)]
    if sorted(diag) != [1] * (d - 1) + [2]:
        raise AssertionError(f"unexpected invariant factors {diag}")
    t = diag.index(2)
    if t != d - 1:
        swap_rows(t, d - 1)
        swap_cols(t, d - 1)

    snf = SnfFactorization(
        U=IntMatrix.from_rows(u), D=IntMatrix.from_rows(a), V=IntMatrix.from_rows(v)
    )
    if snf.product() != A:
        raise AssertionError("SNF postcondition U*D*V == A failed")
    return snf


def coset_representative(snf: SnfFactorization) -> LatticePoint:
    """The point U*e_d generating the nontrivial coset of A*Z^d in Z^d."""
    d = snf.dim
    return tuple(snf.U.rows[i][d - 1] for i in range(d))


def to_adapted_chart(u_inverse: IntMatrix, p: LatticePoint) -> LatticePoint:
    """Coordinates of p in the basis given by the columns of U."""
    return u_inverse.vec(p)


def in_dilated_lattice_exact(A: IntMatrix, u_inverse: IntMatrix,
                             p: LatticePoint) -> bool:
    """Membership p in A*Z^d, decided by two independent exact routes.

    Route 1 solves A*x = p over the rationals (adjugate / determinant) and
    tests integrality; route 2 reads the parity of the last adapted
    coordinate.  Disagreement would mean a broken factorization, so it is an
    assertion failure rather than a recoverable error.
    """
    check_dim(p, A.dim)
    det_a = A.det()
    num = A.adjugate().vec(p)
    route1 = all(x % det_a == 0 for x in num)
    route2 = to_adapted_chart(u_inverse, p)[-1] % 2 == 0
    if route1 != route2:
        raise AssertionError(f"lattice membership routes disagree at {p}")
    return route1


@dataclass(frozen=True)
class DilationMatrix:
    """An expansive determinant +/-2 integer matrix with its chart data.

    `adapted_basis` is U from the Smith normal form; its columns form the
    basis in which A*Z^d = {(x, 2n)}.  `coset_rep` = U*e_d generates the
    complementary coset.  All fields are immutable; instances are safe to
    share across threads.
    """

    A: IntMatrix
    snf: SnfFactorization
    adapted_basis: IntMatrix
    adapted_basis_inv: IntMatrix
    coset_rep: LatticePoint

    @classmethod
    def from_matrix(cls, A) -> "DilationMatrix":
        if not isinstance(A, IntMatrix):
            A = IntMatrix.from_rows(A)
        if not is_expansive(A):
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
        )
        if in_dilated_lattice(dil, rep):
            raise AssertionError("coset representative landed inside A*Z^d")
        return dil

    @property
    def dim(self) -> int:
        return self.A.dim


def in_dilated_lattice(dil: DilationMatrix, k: LatticePoint) -> bool:
    """True iff k is in A*Z^d (two exact routes, cross-checked)."""
    return in_dilated_lattice_exact(dil.A, dil.adapted_basis_inv, k)


def to_adapted(dil: DilationMatrix, p: LatticePoint) -> LatticePoint:
    """Standard coordinates -> adapted coordinates (exact, unimodular)."""
    check_dim(p, dil.dim)
    return dil.adapted_basis_inv.vec(p)


def from_adapted(dil: DilationMatrix, c: LatticePoint) -> LatticePoint:
    """Adapted coordinates -> standard coordinates (inverse of to_adapted)."""
    check_dim(c, dil.dim)
    return dil.adapted_basis.vec(c)

