"""Filters, supports, generated equations, reduced Lawton systems and their residuals.

A finite support L and a dilation matrix A determine the reduced system

    sum_{n in L} h_n * conj(h_{n+k}) = delta_{0,k}   for generators k,
    sum_{n in L} h_n = sqrt(2),

where the generators k range over (L - L) intersected with A*Z^d.  A
generator and its negation produce the same equation (up to conjugation), so
the canonical index set keeps the representative whose adapted-chart radix
value is nonnegative; that convention makes index sets of window supports
coincide with the encoding module's index windows without translation.

Everything is in standard coordinates.  Internally one chart, which the
build and the residual evaluator both read, decides the canonical signs and
the summation order: the 1-D code of each point (the flattening of its
shift-normalized adapted coordinates), its image in a 1-D transfer.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections import defaultdict
from functools import cached_property
from itertools import repeat
from numbers import Complex
from typing import NamedTuple

from .encode import EncodingParams, encode_support, window_exponent_for_extent
from .errors import DimensionMismatchError, DomainMismatchError, NotSubsetError
from .intlat import DilationMatrix, LatticePoint, as_point, to_adapted

# The normalization sum_n h_n = sqrt(2) of the module docstring, as a double.
SQRT2 = math.sqrt(2.0)


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


class Equation(NamedTuple):
    """One generated equation: ordered pairs (n, n+k) with both in the support."""

    k: LatticePoint
    pairs: tuple[tuple[LatticePoint, LatticePoint], ...]
    rhs: int


class ReducedSystem(NamedTuple):
    """A reduced Lawton system with its canonical index set.

    ``support_order`` fixes the deterministic summation order used by the
    residual evaluator; ``window_exponent`` is the smallest N whose centered
    window contains all support differences in the adapted chart.  Both
    come from the support's ``Chart``.
    """

    support: SupportSet
    matrix: DilationMatrix
    index_set: tuple[LatticePoint, ...]
    equations: dict[LatticePoint, Equation]
    window_exponent: int
    support_order: tuple[LatticePoint, ...]


class Chart(NamedTuple):
    """The 1-D chart of a support: ``codes`` lists, in increasing order, the
    1-D code of each point of ``support_order``, the support-window
    flattening at exponent ``window_exponent`` of its adapted coordinates
    less their minimum ``c_min``.  The codes order the support; they are
    also the points' images on [2] in a one-dimensional transfer."""

    support_order: tuple[LatticePoint, ...]
    codes: tuple[int, ...]
    c_min: LatticePoint
    window_exponent: int


def _chart(support: SupportSet, dil: DilationMatrix) -> Chart:
    adapted = {p: to_adapted(dil, p) for p in support.points}
    c_min = tuple(map(min, zip(*adapted.values())))
    extent = max(c - m for point in adapted.values() for c, m in zip(point, c_min))
    n_exp = window_exponent_for_extent(extent)
    params = EncodingParams(support.dim, n_exp)
    codes, order = zip(*sorted(  # codes are distinct, so no point is compared
        (encode_support(params, tuple(a - b for a, b in zip(c, c_min))), p)
        for p, c in adapted.items()
    ))
    return Chart(order, codes, c_min, n_exp)


def equations_equal_up_to_conjugation(e1: Equation, e2: Equation) -> bool:
    """Pair sets equal, or equal after transposing every pair of e2."""
    if e1.rhs != e2.rhs:
        return False
    s1, s2 = frozenset(e1.pairs), frozenset(e2.pairs)
    return s1 == s2 or s1 == frozenset((b, a) for a, b in s2)


def pair_count(chart: Chart) -> int:
    """The number of pairs ``build_reduced_system`` stores for the chart's
    support, in O(L) before any bucket exists: each point pairs with the
    points of its code's parity class at or after it (``_same_parity_scan``),
    so a class of n points makes n(n + 1)/2 pairs."""
    odd = sum(c & 1 for c in chart.codes)
    even = len(chart.codes) - odd
    return (odd * (odd + 1) + even * (even + 1)) // 2


def _same_parity_scan(chart: Chart):
    """For each point a in support order: a, its code c_a, and the (c_b, b)
    of the points b of a's parity class at or after it, which make the
    pairs (a, b) of the system.

    Only pairs whose codes share a parity (last adapted coordinate) differ
    by an element of A*Z^d.  For such a, b the code difference is
    v = (dy/2)*stride + 2*radix(dx) with |2*radix(dx)| < stride/2, so v is
    injective in k = b - a, and its sign and order are those of radix(k):
    dy first, then x from right to left.  v >= 0 is thus the canonical-sign
    test, so each a pairs only with the same-parity points at or after it
    in code order, and sorting by v lists the index set in radix order.
    Each a yields at most one pair per generator, so every bucket of v
    receives its pairs (n, n + k) in support order.
    """
    tails = ([], [])  # by parity: each class's (c, p)
    starts = []  # each point's position in its parity class
    for c, p in zip(chart.codes, chart.support_order):
        starts.append(len(tails[c & 1]))
        tails[c & 1].append((c, p))
    for a, ca, start in zip(chart.support_order, chart.codes, starts):
        yield a, ca, tails[ca & 1][start:]


def build_reduced_system(support: SupportSet, dil: DilationMatrix, *,
                         _held: Chart | None = None) -> ReducedSystem:
    """Construct the reduced system with its canonical index set.

    The index set consists of one representative per generator pair {k, -k}:
    the one with nonnegative radix value in the adapted chart, listed in
    increasing radix order (so the zero generator always comes first).
    Equation k holds the pairs of ``_same_parity_scan`` of one c_b - c_a.
    ``Filter.system`` passes its held chart as ``_held``, so a filter's
    chart is computed once.
    """
    if support.dim != dil.dim:
        raise DimensionMismatchError("support and matrix dimensions differ")
    chart = _chart(support, dil) if _held is None else _held
    buckets = defaultdict(list)
    for a, ca, tail in _same_parity_scan(chart):
        for cb, b in tail:
            buckets[cb - ca].append((a, b))

    equations = {}
    for v in sorted(buckets):
        pairs = buckets[v]
        a, b = pairs[0]
        k = tuple(y - x for x, y in zip(a, b))
        equations[k] = Equation(k=k, pairs=tuple(pairs), rhs=1 if v == 0 else 0)
    return ReducedSystem(support, dil, tuple(equations), equations, chart.window_exponent,
                         chart.support_order)


def generator_pairs(chart: Chart) -> tuple[tuple[LatticePoint, LatticePoint], ...]:
    """One pair (a, b) per generator b - a of the chart's reduced system, in
    index-set order, with no pair list stored: it keeps one code c_a per
    code difference v of ``_same_parity_scan``, and the sorted differences
    are the build's bucket keys."""
    point = dict(zip(chart.codes, chart.support_order))
    ca_by_v = {}  # v -> c_a of one pair with c_b - c_a = v
    for _, ca, tail in _same_parity_scan(chart):
        ca_by_v.update(zip([cb - ca for cb, _ in tail], repeat(ca)))
    return tuple((point[ca], point[ca + v]) for v, ca in sorted(ca_by_v.items()))


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
    for a, ca, tail in _same_parity_scan(filt.chart):
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


Coefficient = complex | float


class Filter:
    """Finitely supported coefficients over a dilation matrix.

    Coefficients are keyed by standard-coordinate lattice points; exact zeros
    are never stored (the support is by definition the nonzero set).  The
    fields cannot be reassigned and the coefficient dict is not to be
    mutated: ``support``, ``chart`` and ``system`` are cached.
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
    def chart(self) -> Chart:
        """The support's 1-D chart, computed on first use: all a transfer reads."""
        return _chart(self.support, self.matrix)

    @cached_property
    def system(self) -> ReducedSystem:
        """The reduced system of the support, built on first use and shared
        by every later caller (``reduce`` and library callers)."""
        return build_reduced_system(self.support, self.matrix, _held=self.chart)


def restrict_index_set(parent: ReducedSystem, sub: SupportSet) -> tuple[LatticePoint, ...]:
    """The unique sub-index-set of the parent that indexes the sub-support's
    system: generators of the parent that still pair points inside ``sub``."""
    if not sub.points <= parent.support.points:
        raise NotSubsetError("sub-support is not contained in the parent support")
    pts = sub.points
    kept = []
    for k in parent.index_set:
        if any(tuple(a + b for a, b in zip(n, k)) in pts for n in pts):
            kept.append(k)
    return tuple(kept)
