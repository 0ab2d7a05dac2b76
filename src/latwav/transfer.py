"""Cross-dimension transfer of scaling filters with isomorphism witnesses.

``to_one_d`` carries a filter over any expansive dyadic matrix onto the
one-dimensional dilation [2]; ``from_one_d`` is the reverse direction for an
arbitrary target matrix; ``transfer`` is their composition.  Every step
returns a TransferReport whose witness maps are machine-checked by
``verify_isomorphism``: the target system literally is the source system with
variables renamed through the support map and generators renamed through the
index map it induces, so solutions (and their residual values) carry over
unchanged.
"""

from __future__ import annotations

import warnings
from functools import cache, cached_property
from numbers import Complex
from typing import NamedTuple

from .encode import EncodingParams, decode_support, window_exponent_for_extent
from .errors import DomainMismatchError, IsomorphismError, NotOneDimensionalError
from .intlat import DilationMatrix, LatticePoint, as_point, from_adapted
from .lawton import (
    Equation,
    ReducedSystem,
    SupportSet,
    build_reduced_system,
    equations_equal_up_to_conjugation,
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


class IsoMap(NamedTuple):
    """Witness of a system isomorphism: bijections on supports and index sets."""

    support_map: dict[LatticePoint, LatticePoint]
    index_map: dict[LatticePoint, LatticePoint]


class TransferReport(NamedTuple):
    """Outcome of one transfer: systems, witness, and the transported filter.

    ``shift`` is the translation removed from the source support before
    encoding (in source standard coordinates); ``window_exponent`` the window
    size the encoding ran at.  A composed transfer keeps its two elementary
    reports in ``stages`` and carries the source-side shift and window.
    """

    source_filter: Filter
    target_filter: Filter
    source_system: ReducedSystem
    target_system: ReducedSystem
    iso: IsoMap
    shift: LatticePoint
    window_exponent: int
    stages: tuple["TransferReport", ...] = ()


def _witness_fault(sys_a: ReducedSystem, sys_b: ReducedSystem, iso: IsoMap) -> str | None:
    """The first way (support_map, index_map) fails to carry sys_a onto
    sys_b, as text, or None when it is an isomorphism.  Raises if the
    witness domains do not even match sys_a."""
    theta, eta = iso.support_map, iso.index_map
    if set(theta) != set(sys_a.support.points):
        raise DomainMismatchError("support map domain does not match the source support")
    if set(eta) != set(sys_a.index_set):
        raise DomainMismatchError("index map domain does not match the source index set")

    image = set(theta.values())
    if image != set(sys_b.support.points) or len(image) != len(theta):
        return "support map is not a bijection onto the target support"
    for k, eq in sys_a.equations.items():
        target = sys_b.equations.get(eta[k])
        pairs = tuple([(theta[n], theta[m]) for n, m in eq.pairs])
        if target is not None and pairs == target.pairs and eq.rhs == target.rhs:
            continue  # the same pairs in the same order: no pair sets needed
        mapped = Equation(k=eta[k], pairs=pairs, rhs=eq.rhs)
        if target is None or not equations_equal_up_to_conjugation(mapped, target):
            return (f"generator {k} does not map: its equation under the support map "
                    f"is not the target equation of {eta[k]}")
    image = set(eta.values())
    if image != set(sys_b.index_set) or len(image) != len(eta):
        return "index map is not a bijection onto the target index set"
    return None


def verify_isomorphism(sys_a: ReducedSystem, sys_b: ReducedSystem, iso: IsoMap) -> bool:
    """Check that (support_map, index_map) carries sys_a onto sys_b.

    True iff both maps are bijections onto the target support/index set and
    every mapped equation equals the target equation generated by the mapped
    generator (pair sets compared up to transposition, right-hand sides
    equal).  Raises if the witness domains do not even match sys_a.
    """
    return _witness_fault(sys_a, sys_b, iso) is None


@cache
def dilation_1d() -> DilationMatrix:
    """The 1x1 dilation [2] (shared instance)."""
    return DilationMatrix.from_matrix([[2]])


def _checked_report(report: TransferReport) -> TransferReport:
    witness = (report.source_system, report.target_system, report.iso)
    if not verify_isomorphism(*witness):
        raise IsomorphismError(f"transfer witness fails: {_witness_fault(*witness)}")
    return report


def _index_map(system: ReducedSystem, support_map) -> dict[LatticePoint, LatticePoint]:
    """Each generator k goes to theta(a + k) - theta(a) on the first pair of
    its equation.  Every stage's support map is a window flattening (or its
    inverse) composed with linear charts, and the flattening is additive,
    so this is the generator's own encoding; the witness check confirms it."""
    firsts = ((k, system.equations[k].pairs[0]) for k in system.index_set)
    return {k: tuple(y - x for x, y in zip(support_map[a], support_map[b]))
            for k, (a, b) in firsts}


def _carry(filt: Filter, matrix: DilationMatrix, support_map,
           shift: LatticePoint, n_exp: int) -> TransferReport:
    """Carry ``filt`` onto ``matrix``, its support points moving through
    ``support_map`` and its generators with them.  The report is
    witness-checked before it is returned."""
    target = Filter(
        matrix=matrix,
        coeffs={support_map[p]: v for p, v in filt.coeffs.items()},
    )
    sys_a = filt.system
    return _checked_report(TransferReport(
        source_filter=filt,
        target_filter=target,
        source_system=sys_a,
        target_system=target.system,
        iso=IsoMap(support_map=support_map, index_map=_index_map(sys_a, support_map)),
        shift=shift,
        window_exponent=n_exp,
    ))


def to_one_d(filt: Filter) -> TransferReport:
    """Transfer a filter over any expansive dyadic matrix to dilation [2].

    Each support point goes to its 1-D code: its adapted coordinates,
    shift-normalized, flattened through the smallest window that contains
    them.  The reported shift is the removed translation expressed in
    standard coordinates.
    """
    system = filt.system
    support_map = {p: (c,) for p, c in zip(system.support_order, system.codes)}
    return _carry(filt, dilation_1d(), support_map,
                  from_adapted(filt.matrix, system.c_min), system.window_exponent)


def from_one_d(filt: Filter, target_matrix: DilationMatrix) -> TransferReport:
    """Transfer a one-dimensional filter onto an arbitrary expansive dyadic
    target matrix.

    The (shift-normalized) support lies in {0, ..., 2^(N+1)-1} for the
    smallest admissible window exponent N; those integers are consecutive
    values of the flattening, so every one decodes to a point of the
    target's support window.  Supports and generators are returned in
    standard target coordinates.
    """
    if filt.dim != 1:
        raise NotOneDimensionalError(f"filter is {filt.dim}-dimensional")
    if filt.matrix.A.rows != ((2,),):
        # [-2] shares the lattice 2Z but reverses the canonical order; route
        # such sources through to_one_d (transfer() does) instead.
        raise ValueError("from_one_d requires a filter over the dilation [2]")
    values = sorted(m for (m,) in filt.coeffs)
    shift = (values[0],)
    top = values[-1] - values[0]
    s = target_matrix.dim

    if s == 1:
        n_exp = window_exponent_for_extent(top)
    else:
        n_exp = max(1, top.bit_length() - 1)  # smallest N with top <= 2^(N+1)-1
    params = EncodingParams(s, n_exp)

    def pullback(m: int) -> LatticePoint:
        c = decode_support(params, m - shift[0])
        if c is None:
            raise IsomorphismError(f"support value {m} escaped the target window")
        return from_adapted(target_matrix, c)

    support_map = {p: pullback(p[0]) for p in filt.coeffs}
    return _carry(filt, target_matrix, support_map, shift, n_exp)


def transfer(filt: Filter, target_matrix: DilationMatrix) -> TransferReport:
    """Transfer between arbitrary expansive dyadic matrices via dilation [2].

    The composed witness maps are re-verified against the end systems, so the
    report is a self-contained certificate of the isomorphism.
    """
    stage1 = to_one_d(filt)
    stage2 = from_one_d(stage1.target_filter, target_matrix)
    support_map = {p: stage2.iso.support_map[m] for p, m in stage1.iso.support_map.items()}
    report = TransferReport(
        source_filter=filt,
        target_filter=stage2.target_filter,
        source_system=stage1.source_system,
        target_system=stage2.target_system,
        iso=IsoMap(support_map=support_map,
                   index_map=_index_map(stage1.source_system, support_map)),
        shift=stage1.shift,
        window_exponent=stage1.window_exponent,
        stages=(stage1, stage2),
    )
    return _checked_report(report)
