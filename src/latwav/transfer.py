"""Cross-dimension transfer of scaling filters with isomorphism witnesses.

``to_one_d`` carries a filter over any expansive dyadic matrix onto the
one-dimensional dilation [2]; ``from_one_d`` is the reverse direction for an
arbitrary target matrix; ``transfer`` is their composition.  Every step
returns a TransferReport whose witness maps are machine-checked by
``verify_isomorphism``: the target system literally is the source system with
variables renamed through the support map and generators renamed through the
index map, so solutions (and their residual values) carry over unchanged.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cache, cached_property
from numbers import Complex

from .encode import (
    EncodingParams,
    decode_index,
    decode_support,
    encode_index,
    encode_support,
    window_exponent_for_extent,
)
from .errors import DomainMismatchError, NotOneDimensionalError
from .intlat import DilationMatrix, LatticePoint, as_point, from_adapted, to_adapted
from .lawton import (
    Equation,
    ReducedSystem,
    SupportSet,
    _adapted_frame,
    build_reduced_system,
    equations_equal_up_to_conjugation,
)

Coefficient = complex | float


@dataclass(frozen=True)
class Filter:
    """Finitely supported coefficients over a dilation matrix.

    Coefficients are keyed by standard-coordinate lattice points; exact zeros
    are never stored (the support is by definition the nonzero set).  The
    coefficient dict is not to be mutated: ``system`` is cached.
    """

    matrix: DilationMatrix
    coeffs: dict[LatticePoint, Coefficient]

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

    def support(self) -> SupportSet:
        return SupportSet.from_points(self.coeffs)

    @cached_property
    def system(self) -> ReducedSystem:
        """The reduced system of the support, built on first use and shared
        by every later caller (residuals, cascade, transfer)."""
        return build_reduced_system(self.support(), self.matrix)


@dataclass(frozen=True)
class IsoMap:
    """Witness of a system isomorphism: bijections on supports and index sets."""

    support_map: dict[LatticePoint, LatticePoint]
    index_map: dict[LatticePoint, LatticePoint]


@dataclass(frozen=True)
class TransferReport:
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


def shift_normalize(filt: Filter) -> tuple[Filter, LatticePoint]:
    """Translate the support so every coordinate is nonnegative and touches 0.

    Returns the shifted filter and the shift n0 (coordinatewise minimum of
    the support); the new support is the old one minus n0.
    """
    pts = list(filt.coeffs)
    n0 = tuple(min(p[j] for p in pts) for j in range(filt.dim))
    if all(c == 0 for c in n0):
        return filt, n0
    moved = {
        tuple(a - b for a, b in zip(p, n0)): v for p, v in filt.coeffs.items()
    }
    return Filter(matrix=filt.matrix, coeffs=moved), n0


def verify_isomorphism(sys_a: ReducedSystem, sys_b: ReducedSystem, iso: IsoMap) -> bool:
    """Check that (support_map, index_map) carries sys_a onto sys_b.

    True iff both maps are bijections onto the target support/index set and
    every mapped equation equals the target equation generated by the mapped
    generator (pair sets compared up to transposition, right-hand sides
    equal).  Raises if the witness domains do not even match sys_a.
    """
    theta = iso.support_map
    eta = iso.index_map
    if set(theta) != set(sys_a.support.points):
        raise DomainMismatchError("support map domain does not match the source support")
    if set(eta) != set(sys_a.index_set):
        raise DomainMismatchError("index map domain does not match the source index set")

    if set(theta.values()) != set(sys_b.support.points):
        return False
    if len(set(theta.values())) != len(theta):
        return False
    if set(eta.values()) != set(sys_b.index_set):
        return False
    if len(set(eta.values())) != len(eta):
        return False

    for k, eq in sys_a.equations.items():
        mapped = Equation(k=eta[k], pairs=tuple((theta[n], theta[m]) for n, m in eq.pairs),
                          rhs=eq.rhs)
        if not equations_equal_up_to_conjugation(mapped, sys_b.equations[eta[k]]):
            return False
    return True


@cache
def dilation_1d() -> DilationMatrix:
    """The 1x1 dilation [2] (shared instance)."""
    return DilationMatrix.from_matrix([[2]])


def _checked_report(report: TransferReport) -> TransferReport:
    if not verify_isomorphism(report.source_system, report.target_system, report.iso):
        raise AssertionError("constructed transfer failed its own isomorphism check")
    return report


def _carry(filt: Filter, matrix: DilationMatrix, support_map, index_of,
           shift: LatticePoint, n_exp: int) -> TransferReport:
    """Carry ``filt`` onto ``matrix``: support points move through
    ``support_map``, each generator k of the source system to ``index_of(k)``.
    The report is witness-checked before it is returned."""
    target = Filter(
        matrix=matrix,
        coeffs={support_map[p]: v for p, v in filt.coeffs.items()},
    )
    sys_a = filt.system
    sys_b = target.system
    index_map = {k: index_of(k) for k in sys_a.index_set}
    return _checked_report(TransferReport(
        source_filter=filt,
        target_filter=target,
        source_system=sys_a,
        target_system=sys_b,
        iso=IsoMap(support_map=support_map, index_map=index_map),
        shift=shift,
        window_exponent=n_exp,
    ))


def to_one_d(filt: Filter) -> TransferReport:
    """Transfer a filter over any expansive dyadic matrix to dilation [2].

    The support is taken to adapted coordinates, shift-normalized there, and
    flattened through the smallest window that contains it.  The reported
    shift is the removed translation expressed in standard coordinates.
    """
    dil = filt.matrix
    adapted, c_min, n_exp = _adapted_frame(filt.support(), dil)
    params = EncodingParams(dil.dim, n_exp)
    support_map = {
        p: (encode_support(params, tuple(a - b for a, b in zip(adapted[p], c_min))),)
        for p in filt.coeffs
    }
    return _carry(filt, dilation_1d(), support_map,
                  lambda k: (encode_index(params, to_adapted(dil, k)),),
                  from_adapted(dil, c_min), n_exp)


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
            raise AssertionError(f"support value {m} escaped the target window")
        return from_adapted(target_matrix, c)

    def generator(k: LatticePoint) -> LatticePoint:
        c = decode_index(params, k[0])
        if c is None:
            raise AssertionError(f"generator {k} escaped the target index window")
        return from_adapted(target_matrix, c)

    support_map = {p: pullback(p[0]) for p in filt.coeffs}
    return _carry(filt, target_matrix, support_map, generator, shift, n_exp)


def transfer(filt: Filter, target_matrix: DilationMatrix) -> TransferReport:
    """Transfer between arbitrary expansive dyadic matrices via dilation [2].

    The composed witness maps are re-verified against the end systems, so the
    report is a self-contained certificate of the isomorphism.
    """
    stage1 = to_one_d(filt)
    stage2 = from_one_d(stage1.target_filter, target_matrix)
    support_map = {p: stage2.iso.support_map[m] for p, m in stage1.iso.support_map.items()}
    index_map = {k: stage2.iso.index_map[l] for k, l in stage1.iso.index_map.items()}
    report = TransferReport(
        source_filter=filt,
        target_filter=stage2.target_filter,
        source_system=stage1.source_system,
        target_system=stage2.target_system,
        iso=IsoMap(support_map=support_map, index_map=index_map),
        shift=stage1.shift,
        window_exponent=stage1.window_exponent,
        stages=(stage1, stage2),
    )
    return _checked_report(report)
