"""Filters, finite supports, generated equations, and reduced Lawton systems.

A finite support L and a dilation matrix A determine the reduced system

    sum_{n in L} h_n * conj(h_{n+k}) = delta_{0,k}   for generators k,
    sum_{n in L} h_n = sqrt(2),

where the generators k range over (L - L) intersected with A*Z^d.  A
generator and its negation produce the same equation (up to conjugation), so
the canonical index set keeps the representative whose adapted-chart radix
value is nonnegative; that convention makes index sets of window supports
coincide with the encoding module's index windows without translation.

Everything is in standard coordinates.  Internally one chart decides the
canonical signs and the deterministic summation order: the 1-D code of each
point (the flattening of its shift-normalized adapted coordinates), which is
exactly the point's image in a one-dimensional transfer.
"""

from __future__ import annotations

import operator
import warnings
from collections import defaultdict
from functools import cached_property
from numbers import Complex
from typing import NamedTuple

from .encode import EncodingParams, encode_support, window_exponent_for_extent
from .errors import DimensionMismatchError, DomainMismatchError, NotInLatticeError, NotSubsetError
from .intlat import DilationMatrix, LatticePoint, as_point, in_dilated_lattice, to_adapted


class SupportSet:
    """Finite non-empty set of lattice points of one dimension (immutable)."""

    __slots__ = ("points", "dim")

    def __init__(self, points: frozenset[LatticePoint], dim: int):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points, self.dim) == (other.points, other.dim)

    def __hash__(self) -> int:
        return hash((self.points, self.dim))

    def __repr__(self) -> str:
        return f"SupportSet(points={self.points!r}, dim={self.dim!r})"

    def __reduce__(self):  # pickle and copy through __init__, not __setattr__
        return SupportSet, (self.points, self.dim)

    @classmethod
    def from_points(cls, pts) -> "SupportSet":
        points = frozenset(as_point(p) for p in pts)
        if not points:
            raise ValueError("support must be non-empty")
        dims = {len(p) for p in points}
        if len(dims) != 1:
            raise DimensionMismatchError(f"mixed dimensions in support: {sorted(dims)}")
        return cls(points=points, dim=dims.pop())

    def __contains__(self, p) -> bool:
        return tuple(p) in self.points

    def __len__(self) -> int:
        return len(self.points)

    def issubset(self, other: "SupportSet") -> bool:
        return self.points <= other.points


class Equation(NamedTuple):
    """One generated equation: ordered pairs (n, n+k) with both in the support."""

    k: LatticePoint
    pairs: tuple[tuple[LatticePoint, LatticePoint], ...]
    rhs: int

    def pair_set(self) -> frozenset:
        return frozenset(self.pairs)


class ReducedSystem(NamedTuple):
    """A reduced Lawton system with its canonical index set.

    ``support_order`` fixes the deterministic summation order used by the
    residual evaluator; ``window_exponent`` is the smallest N whose centered
    window contains all support differences in the adapted chart.  The
    chart is kept: ``codes`` lists the 1-D code of each point in support
    order, taken at the adapted minimum ``c_min`` (see ``_chart``).
    """

    support: SupportSet
    matrix: DilationMatrix
    index_set: tuple[LatticePoint, ...]
    equations: dict[LatticePoint, Equation]
    window_exponent: int
    support_order: tuple[LatticePoint, ...]
    codes: tuple[int, ...]
    c_min: LatticePoint


def _chart(support: SupportSet, dil: DilationMatrix):
    """The 1-D code of every support point, with the adapted minimum c_min
    and window exponent N it is taken at: ``codes[p]`` is the support-window
    flattening of to_adapted(p) - c_min.  The codes order the support; they
    are also the points' images on [2] in a one-dimensional transfer."""
    adapted = {p: to_adapted(dil, p) for p in support.points}
    c_min = tuple(map(min, zip(*adapted.values())))
    extent = max(c - m for point in adapted.values() for c, m in zip(point, c_min))
    n_exp = window_exponent_for_extent(extent)
    params = EncodingParams(support.dim, n_exp)
    codes = {
        p: encode_support(params, tuple(a - b for a, b in zip(c, c_min)))
        for p, c in adapted.items()
    }
    return codes, c_min, n_exp


def generated_equation(support: SupportSet, dil: DilationMatrix,
                       k: LatticePoint) -> Equation | None:
    """The equation generated by k on this support, or None if trivial."""
    k = as_point(k)
    if len(k) != support.dim or support.dim != dil.dim:
        raise DimensionMismatchError("support, matrix and generator dimensions differ")
    if not in_dilated_lattice(dil, k):
        raise NotInLatticeError(f"generator {k} is not in A*Z^d")
    codes = _chart(support, dil)[0]
    pairs = tuple((n, m) for n in sorted(support.points, key=codes.__getitem__)
                  if (m := tuple(a + b for a, b in zip(n, k))) in support.points)
    if not pairs:
        return None
    rhs = 1 if all(c == 0 for c in k) else 0
    return Equation(k=k, pairs=pairs, rhs=rhs)


def equations_equal_up_to_conjugation(e1: Equation, e2: Equation) -> bool:
    """Pair sets equal, or equal after transposing every pair of e2."""
    if e1.rhs != e2.rhs:
        return False
    s1, s2 = e1.pair_set(), e2.pair_set()
    return s1 == s2 or s1 == frozenset((b, a) for a, b in s2)


def pair_count(support: SupportSet, dil: DilationMatrix) -> int:
    """The number of pairs ``build_reduced_system`` stores, in O(L) before
    any bucket exists: each point pairs with the points of its parity class
    (the parity of its last adapted coordinate) at or after it, so a class
    of n points makes n(n + 1)/2 pairs."""
    if support.dim != dil.dim:
        raise DimensionMismatchError("support and matrix dimensions differ")
    last = dil.adapted_basis_inv.rows[-1]
    odd = sum(sum(map(operator.mul, last, p)) & 1 for p in support.points)
    even = len(support) - odd
    return (odd * (odd + 1) + even * (even + 1)) // 2


def build_reduced_system(support: SupportSet, dil: DilationMatrix) -> ReducedSystem:
    """Construct the reduced system with its canonical index set.

    The index set consists of one representative per generator pair {k, -k}:
    the one with nonnegative radix value in the adapted chart, listed in
    increasing radix order (so the zero generator always comes first).

    One pass over pairs builds everything, in the 1-D chart.  Only pairs
    whose codes share a parity (last adapted coordinate) differ by an
    element of A*Z^d.  For such a, b the code difference is
    v = (dy/2)*stride + 2*radix(dx) with |2*radix(dx)| < stride/2, so v is
    injective in k = b - a, and its sign and order are those of radix(k):
    dy first, then x from right to left.  v >= 0 is thus the canonical-sign
    test, so each a pairs only with the same-parity points at or after it
    in code order, and sorting by v lists the index set in radix order.
    Iterating a in support order adds at most one pair per generator for
    each a, so every bucket lists its pairs (n, n + k) in support order.
    """
    if support.dim != dil.dim:
        raise DimensionMismatchError("support and matrix dimensions differ")
    codes, c_min, n_exp = _chart(support, dil)
    order = tuple(sorted(support.points, key=codes.__getitem__))
    classes: tuple[list, list] = ([], [])
    starts = []  # each point's position in its parity class
    for p in order:
        same = classes[codes[p] & 1]
        starts.append(len(same))
        same.append((codes[p], p))

    buckets = defaultdict(list)
    for a, start in zip(order, starts):
        ca = codes[a]
        for cb, b in classes[ca & 1][start:]:
            buckets[cb - ca].append((a, b))

    equations = {}
    for v in sorted(buckets):
        pairs = buckets[v]
        a, b = pairs[0]
        k = tuple(y - x for x, y in zip(a, b))
        equations[k] = Equation(k=k, pairs=tuple(pairs), rhs=1 if v == 0 else 0)
    index_set = tuple(equations)
    return ReducedSystem(
        support=support,
        matrix=dil,
        index_set=index_set,
        equations=equations,
        window_exponent=n_exp,
        support_order=order,
        codes=tuple(codes[p] for p in order),
        c_min=c_min,
    )


Coefficient = complex | float


class Filter:
    """Finitely supported coefficients over a dilation matrix.

    Coefficients are keyed by standard-coordinate lattice points; exact zeros
    are never stored (the support is by definition the nonzero set).  The
    fields cannot be reassigned and the coefficient dict is not to be
    mutated: ``support`` and ``system`` are cached.
    """

    def __init__(self, matrix: DilationMatrix, coeffs: dict[LatticePoint, Coefficient]):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.matrix, self.coeffs) == (other.matrix, other.coeffs)

    def __repr__(self) -> str:
        return f"Filter(matrix={self.matrix!r}, coeffs={self.coeffs!r})"

    @classmethod
    def from_coeffs(cls, matrix: DilationMatrix, coeffs) -> "Filter":
        cleaned: dict[LatticePoint, Coefficient] = {}
        dropped = 0
        for p, value in dict(coeffs).items():
            p = as_point(p)
            if len(p) != matrix.dim:
                raise DomainMismatchError(
                    f"coefficient at {p} has dimension {len(p)}, matrix is {matrix.dim}x{matrix.dim}"
                )
            if not isinstance(value, Complex):
                raise TypeError(f"coefficient at {p} is not a number: {value!r}")
            if value == 0:
                dropped += 1
                continue
            cleaned[p] = value
        if dropped:
            warnings.warn(f"dropped {dropped} exactly-zero coefficient(s)", stacklevel=2)
        if not cleaned:
            raise ValueError("filter support is empty")
        return cls(matrix=matrix, coeffs=cleaned)

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @cached_property
    def support(self) -> SupportSet:
        return SupportSet.from_points(self.coeffs)

    @cached_property
    def system(self) -> ReducedSystem:
        """The reduced system of the support, built on first use and shared
        by every later caller (residuals, cascade, transfer)."""
        return build_reduced_system(self.support, self.matrix)


def restrict_index_set(parent: ReducedSystem, sub: SupportSet) -> tuple[LatticePoint, ...]:
    """The unique sub-index-set of the parent that indexes the sub-support's
    system: generators of the parent that still pair points inside ``sub``."""
    if not sub.issubset(parent.support):
        raise NotSubsetError("sub-support is not contained in the parent support")
    pts = sub.points
    kept = []
    for k in parent.index_set:
        if any(tuple(a + b for a, b in zip(n, k)) in pts for n in pts):
            kept.append(k)
    return tuple(kept)
