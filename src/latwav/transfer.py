"""Cross-dimension transfer of scaling filters with isomorphism witnesses.

``to_one_d`` carries a filter over any expansive dyadic matrix onto the
one-dimensional dilation [2]; ``from_one_d`` is the reverse direction for an
arbitrary target matrix; ``transfer`` runs the two as stages.  Every step
returns a TransferReport whose witness the two filters' charts certify: the
target system literally is the source system with variables renamed through
the support map and generators renamed through the index map, so solutions
(and their residual values) carry over unchanged, and no system is built.
Each index map is read off one pair (a, b) per generator, b - a going to
theta(b) - theta(a); ``transfer`` scans the source chart for those pairs
once, for all three of its reports.  ``verify_isomorphism`` checks any
witness equation by equation.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

from .encode import EncodingParams, decode_support, window_exponent_for_extent
from .errors import DomainMismatchError, IsomorphismError, NotOneDimensionalError
from .filters import dilation_1d
from .intlat import DilationMatrix, LatticePoint, from_adapted
from .lawton import (Chart, Equation, Filter, ReducedSystem, equations_equal_up_to_conjugation,
                     generator_pairs)


class IsoMap(NamedTuple):
    """Witness of a system isomorphism: bijections on supports and index sets."""

    support_map: dict[LatticePoint, LatticePoint]
    index_map: dict[LatticePoint, LatticePoint]


class TransferReport(NamedTuple):
    """Outcome of one transfer: the two filters and the witness.

    ``shift`` is the translation removed from the source support before
    encoding (in source standard coordinates); ``window_exponent`` the window
    size the encoding ran at.  A composed transfer keeps its two elementary
    reports in ``stages`` and carries the source-side shift and window.
    The filters' systems are built only on demand (``Filter.system``).
    """

    source_filter: Filter
    target_filter: Filter
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
        mapped = Equation(k=eta[k], pairs=tuple((theta[n], theta[m]) for n, m in eq.pairs),
                          rhs=eq.rhs)
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


def _chart_fault(chart_a: Chart, chart_b: Chart, support_map) -> str | None:
    """Where support_map departs from the two charts, as text, or None when
    it carries chart_a's support order onto chart_b's position by position
    and moves every code by one constant.  ``build_reduced_system`` buckets
    pairs by code difference and lists each bucket in support order, so such
    a map carries each equation onto the target's, pair for pair, and each
    generator b - a onto theta(b) - theta(a)."""
    order_a, order_b = chart_a.support_order, chart_b.support_order
    if len(support_map) != len(order_a) or len(order_b) != len(order_a):
        return "support map is not a bijection onto the target support"
    shift = chart_b.codes[0] - chart_a.codes[0]
    for i, (p, q, ca, cb) in enumerate(zip(order_a, order_b, chart_a.codes, chart_b.codes)):
        if support_map.get(p) != q:
            return f"support position {i}: {p} goes to {support_map.get(p)}, not to {q}"
        if cb - ca != shift:
            return f"support position {i}: the code of {p} moves by {cb - ca}, not by {shift}"
    return None


def _carry(filt: Filter, target: Filter, support_map, pairs, shift: LatticePoint,
           n_exp: int, stages: tuple[TransferReport, ...] = ()) -> TransferReport:
    """The report that ``support_map`` carries ``filt`` onto ``target``: a
    generator b - a goes to theta(b) - theta(a), read off the one pair (a, b)
    per generator in ``pairs``.  Every report is built here, its witness
    certified by the two charts first."""
    if (fault := _chart_fault(filt.chart, target.chart, support_map)) is not None:
        raise IsomorphismError(f"transfer witness fails: {fault}")
    index_map = {tuple(map(operator.sub, b, a)):
                 tuple(map(operator.sub, support_map[b], support_map[a])) for a, b in pairs}
    return TransferReport(filt, target, IsoMap(support_map, index_map), shift, n_exp, stages)


def _to_one_d(filt: Filter, pairs) -> TransferReport:
    """``to_one_d`` with the source chart's ``generator_pairs`` given."""
    chart = filt.chart
    support_map = {p: (c,) for p, c in zip(chart.support_order, chart.codes)}
    target = Filter(dilation_1d(), {support_map[p]: v for p, v in filt.coeffs.items()})
    return _carry(filt, target, support_map, pairs,
                  from_adapted(filt.matrix, chart.c_min), chart.window_exponent)


def to_one_d(filt: Filter) -> TransferReport:
    """Transfer a filter over any expansive dyadic matrix to dilation [2].

    Each support point goes to its 1-D code: its adapted coordinates,
    shift-normalized, flattened through the smallest window that contains
    them.  The reported shift is the removed translation expressed in
    standard coordinates.
    """
    return _to_one_d(filt, generator_pairs(filt.chart))


def _from_one_d(filt: Filter, target_matrix: DilationMatrix, pairs) -> TransferReport:
    """``from_one_d``, past its checks, with the 1-D chart's pairs given."""
    chart = filt.chart
    top = chart.codes[-1]
    n_exp = window_exponent_for_extent(top if target_matrix.dim == 1 else top >> 1)
    params = EncodingParams(target_matrix.dim, n_exp)
    support_map = {p: from_adapted(target_matrix, decode_support(params, c))
                   for p, c in zip(chart.support_order, chart.codes)}
    target = Filter(target_matrix, {support_map[p]: v for p, v in filt.coeffs.items()})
    return _carry(filt, target, support_map, pairs, chart.c_min, n_exp)


def from_one_d(filt: Filter, target_matrix: DilationMatrix) -> TransferReport:
    """Transfer a one-dimensional filter onto an arbitrary expansive dyadic
    target matrix.

    Each support point goes to its 1-D code decoded in the target window.
    The codes lie in {0, ..., 2^N - 1} in 1-D and in {0, ..., 2^(N+1) - 1},
    the codes of the window's rows y = 0 and 1, above it, for the smallest
    such N: consecutive values of the flattening, so every one decodes to a
    point of the target's support window, in standard target coordinates.
    """
    if filt.dim != 1:
        raise NotOneDimensionalError(f"filter is {filt.dim}-dimensional")
    if filt.matrix.A.rows != ((2,),):
        # [-2] shares the lattice 2Z but reverses the canonical order; route
        # such sources through to_one_d (transfer() does) instead.
        raise ValueError("from_one_d requires a filter over the dilation [2]")
    return _from_one_d(filt, target_matrix, generator_pairs(filt.chart))


def transfer(filt: Filter, target_matrix: DilationMatrix) -> TransferReport:
    """Transfer between arbitrary expansive dyadic matrices via dilation [2].

    Stage 1's certified support map keeps every code difference, so the
    source chart's pairs, mapped through it, are the 1-D chart's for stage 2.
    The composed support map is certified against the end filters' charts,
    so the report is a self-contained certificate of the isomorphism.
    """
    pairs = generator_pairs(filt.chart)
    stage1 = _to_one_d(filt, pairs)
    theta1 = stage1.iso.support_map
    stage2 = _from_one_d(stage1.target_filter, target_matrix,
                         [(theta1[a], theta1[b]) for a, b in pairs])
    support_map = {p: stage2.iso.support_map[m] for p, m in theta1.items()}
    return _carry(filt, stage2.target_filter, support_map, pairs, stage1.shift,
                  stage1.window_exponent, stages=(stage1, stage2))
