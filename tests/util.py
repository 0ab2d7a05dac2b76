"""Shared helpers for the test suite."""

import cmath
import importlib
import json
import math
import operator
import os
import random
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import NamedTuple

import numpy as np

import latwav
from latwav.cascade import CascadeGrid
from latwav.encode import (
    EncodingParams,
    decode_index,
    decode_support,
    encode_index,
    encode_support,
    in_index_window,
    radix_encode,
    window_exponent_for_extent,
)
from latwav.errors import (
    DimensionMismatchError,
    DomainMismatchError,
    IsomorphismError,
    LatwavError,
    NotDyadicError,
    NotOneDimensionalError,
)
from latwav.filters import BUNDLED_FILTERS, BUNDLED_MATRICES, dilation_1d
from latwav.intlat import (
    DilationMatrix,
    IntMatrix,
    LatticePoint,
    SnfFactorization,
    as_point,
    coset_representative,
    from_adapted,
    in_dilated_lattice,
    smith_normal_form,
    to_adapted,
)
from latwav.lawton import (
    Chart,
    Equation,
    ReducedSystem,
    ResidualReport,
    SupportSet,
    _chart,
    equations_equal_up_to_conjugation,
    generator_pairs,
)
from latwav.transfer import Filter, IsoMap, TransferReport, _chart_fault
from latwav.verify import SQRT2, _dual_coset_shift, _sample_points

def error_line(err: str) -> str:
    """The ``error:`` line that ends the stderr of an exit-2 CLI call.  Every
    line before it must be a ``warning:`` line (a library warning that came
    before the error), so no traceback or source line slips through."""
    *before, last = err.splitlines() or [""]
    assert all(line.startswith("warning: ") for line in before), err
    assert last.startswith("error:"), err
    return last


# The checkout's ``src``: the directory the latwav under test imports from.
SRC = Path(latwav.__file__).resolve().parents[1]


def child_env(**extra) -> dict[str, str]:
    """The environment of a fresh interpreter that imports the latwav under
    test: this process's own, with ``SRC`` first on ``PYTHONPATH`` and
    ``extra`` set over it (a None value removes the variable)."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **extra}
    return {name: value for name, value in env.items() if value is not None}


def count_work(monkeypatch) -> dict:
    """The work ledger: a dict that counts, while the test runs, the work
    that timings cannot pin.  Each name is patched where its callers find
    it, and a key appears once its work has run:
    - "build": reduced-system builds (in ``latwav.lawton``, where
      ``Filter.system`` calls it), and "pairs": each build's stored pairs;
    - "verify": witness checks in ``latwav.transfer``, chart certificates
      and per-equation checks alike;
    - "support": SupportSet constructions;
    - "chart": the dimension of each support chart computed;
    - "from_matrix": DilationMatrix constructions from a matrix;
    - "snf": Smith normal forms, wherever a layer binds the name;
    - "cells": the cell count of each cascade step's grid;
    - "scan": passes of ``_same_parity_scan``, the O(L^2) walk over a
      chart's same-parity pairs that builds, residuals and generator pairs
      all make.
    The bundled matrices and filters are made afresh, so no count depends
    on which tests ran before."""
    for make in (*BUNDLED_MATRICES.values(), *BUNDLED_FILTERS.values()):
        make.cache_clear()
    counts: dict = {}

    def count(owner, name: str, key: str, entry=None) -> None:
        """Patch ``owner.name`` to count its calls under ``key``; with
        ``entry``, to list ``entry(result, *args)`` of each call that returns."""
        method = isinstance(owner, type)  # a classmethod: wrap its function, bind it again
        fn = getattr(owner, name).__func__ if method else getattr(owner, name)

        def wrapper(*args, **kwargs):
            if entry is None:
                counts[key] = counts.get(key, 0) + 1
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            counts.setdefault(key, []).append(entry(result, *args))
            return result
        monkeypatch.setattr(owner, name, classmethod(wrapper) if method else wrapper)

    lawton, transfer, cascade = (importlib.import_module(f"latwav.{name}")
                                 for name in ("lawton", "transfer", "cascade"))
    count(lawton, "build_reduced_system", "build")
    count(lawton, "build_reduced_system", "pairs",
          lambda system, *_: sum(len(eq.pairs) for eq in system.equations.values()))
    count(lawton, "_chart", "chart", lambda chart, support, dil: dil.dim)
    count(lawton, "_same_parity_scan", "scan")
    count(transfer, "_chart_fault", "verify")
    count(transfer, "verify_isomorphism", "verify")
    count(cascade, "cascade_step", "cells", lambda grid, *_: len(grid.cells))
    count(SupportSet, "from_points", "support")
    count(DilationMatrix, "from_matrix", "from_matrix")
    for module in [m for name, m in sys.modules.items() if name.startswith("latwav.")]:
        if getattr(module, "smith_normal_form", None) is smith_normal_form:
            count(module, "smith_normal_form", "snf")
    return counts


# Window enumeration: every point of the support window and of the index
# window, materialized for exhaustive tests of the encodings.
DEFAULT_ENUMERATION_BUDGET = 1 << 20


class WindowTooLargeError(LatwavError):
    """Window enumeration would exceed the configured budget."""


class IndexWindow(NamedTuple):
    """Materialized support window and index window for one parameter set."""

    params: EncodingParams
    support_points: tuple[LatticePoint, ...]
    index_points: tuple[LatticePoint, ...]


def enumerate_windows(params: EncodingParams,
                      budget: int = DEFAULT_ENUMERATION_BUDGET) -> IndexWindow:
    """Enumerate both windows; support ordered by encoding value, index by
    radix value."""
    d, w = params.dim, params.window
    size = w ** d
    if size > budget:
        raise WindowTooLargeError(
            f"support window has {size} points, budget is {budget}"
        )
    support = sorted(product(range(w), repeat=d),
                     key=lambda n: encode_support(params, n))
    index = sorted(
        (k for k in product(range(1 - w, w), repeat=d) if in_index_window(params, k)),
        key=lambda k: radix_encode(params, k),
    )
    return IndexWindow(params=params, support_points=tuple(support),
                       index_points=tuple(index))


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


def random_dyadic_matrices(rng, dim: int, count: int) -> list[IntMatrix]:
    """Random integer matrices with entries in [-9, 9] and determinant +/-2.

    Rejection sampling with a float-determinant prefilter; every kept matrix
    is confirmed with the exact integer determinant.
    """
    if dim == 1:
        choices = [IntMatrix([[2]]), IntMatrix([[-2]])]
        return [choices[int(rng.integers(0, 2))] for _ in range(count)]
    out: list[IntMatrix] = []
    while len(out) < count:
        batch = rng.integers(-9, 10, size=(4096, dim, dim))
        dets = np.rint(np.linalg.det(batch)).astype(np.int64)
        for raw in batch[np.abs(dets) == 2]:
            m = IntMatrix(raw.tolist())
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
    return IntMatrix(
        [[1 if j == i - 1 else 0 for j in range(n - 1)] + [-poly[n - i]] for i in range(n)]
    )


def random_expansive_conjugate(rnd: random.Random, dim: int) -> IntMatrix:
    """U C U^-1 for the companion C of x^d +/- 2 and a random unimodular U."""
    c = companion((1,) + (0,) * (dim - 1) + (rnd.choice((2, -2)),))
    u = IntMatrix.identity(dim)
    for _ in range(rnd.randint(0, 4) if dim > 1 else 0):
        i, j = rnd.sample(range(dim), 2)
        rows = [[int(r == s) for s in range(dim)] for r in range(dim)]
        rows[i][j] = rnd.choice((-2, -1, 1, 2))
        u = u.mul(IntMatrix(rows))
    return u.mul(c).mul(u.unimodular_inverse())


# Exact linear algebra oracles: the library's former adjugate, which expands
# d^2 cofactor determinants, its former charpoly, which ran the
# Faddeev-LeVerrier recursion alone, and its former Smith normal form, which
# mirrored each elementary step on U or V through five helper closures.  The
# adjugate and charpoly oracles work on plain list rows.
def _reference_det(a: list[list[int]]) -> int:
    """Bareiss elimination, the library's former ``IntMatrix.det``, on rows it overwrites."""
    n = len(a)
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
        pivot_row = a[k]
        pivot = pivot_row[k]
        for row in a[k + 1:]:
            factor = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def reference_adjugate(m: IntMatrix) -> IntMatrix:
    rows = [list(row) for row in m.rows]
    n = len(rows)
    if n == 1:
        return IntMatrix(((1,),))
    cof = [
        [(-1) ** (i + j) * _reference_det([r[:j] + r[j + 1:] for r in rows[:i] + rows[i + 1:]])
         for j in range(n)]
        for i in range(n)
    ]
    return IntMatrix(tuple(zip(*cof)))  # transpose of cofactors


def reference_charpoly(m: IntMatrix) -> tuple[int, ...]:
    rows = m.rows
    n = len(rows)
    coeffs = [1]
    acc = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = tuple(zip(*acc))
        acc = [[sum(map(operator.mul, row, col)) for col in cols] for row in rows]  # m * acc
        tr = sum(acc[i][i] for i in range(n))
        if tr % k != 0:
            raise AssertionError("trace recursion lost exactness")
        c = -tr // k
        coeffs.append(c)
        for i in range(n):
            acc[i][i] += c
    return tuple(coeffs)


def reference_smith_normal_form(A: IntMatrix) -> SnfFactorization:
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
        U=IntMatrix(u), D=IntMatrix(a), V=IntMatrix(v)
    )
    if snf.product() != A:
        raise AssertionError("SNF postcondition U*D*V == A failed")
    return snf


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


def lattice_chart(m: IntMatrix) -> DilationMatrix:
    """A DilationMatrix for any determinant +/-2 matrix, expansive or not.

    Reduced systems and the QMF coset shift depend only on the lattice A*Z^d
    and its adapted chart, so differential tests can draw from all random
    dyadic matrices instead of the few that are expansive.
    """
    snf = smith_normal_form(m)
    return DilationMatrix(
        A=m,
        snf=snf,
        adapted_basis=snf.U,
        adapted_basis_inv=snf.U.unimodular_inverse(),
        coset_rep=coset_representative(snf),
        det=m.det(),
        adj=m.adjugate(),
    )


# Reduced-system oracle: the library's former build, which collects the
# canonical generators from all L^2 adapted differences and then rescans the
# support once per generator for its pairs.  Its support order is the former
# N-free sort key, not the library's 1-D codes.
def flatten_order_key(p: LatticePoint):
    """Sort key reproducing the flattening order without fixing N.

    For window points the order induced by flatten_point does not depend on
    the window exponent: it compares floor(y/2) first, then the radix order
    of x (rightmost differing coordinate decides), then the parity of y.
    """
    if len(p) == 1:
        return (p[0],)
    x, y = p[:-1], p[-1]
    return (y // 2, tuple(reversed(x)), y & 1)


def _adapted_frame(support: SupportSet, dil: DilationMatrix):
    adapted = {p: to_adapted(dil, p) for p in support.points}
    coords = list(adapted.values())
    c_min = tuple(min(c[j] for c in coords) for j in range(support.dim))
    extent = max(
        (c[j] - c_min[j] for c in coords for j in range(support.dim)), default=0
    )
    return adapted, c_min, window_exponent_for_extent(extent)


def _ordered_points(support: SupportSet, adapted, c_min) -> tuple[LatticePoint, ...]:
    def key(p):
        return flatten_order_key(tuple(a - b for a, b in zip(adapted[p], c_min)))

    return tuple(sorted(support.points, key=key))


def _pairs_for(support: SupportSet, order, k: LatticePoint):
    shifted = [tuple(a + b for a, b in zip(n, k)) for n in order]
    return tuple((n, m) for n, m in zip(order, shifted) if m in support.points)


def reference_build_reduced_system(support: SupportSet, dil: DilationMatrix) -> ReducedSystem:
    adapted, c_min, n_exp = _adapted_frame(support, dil)
    order = _ordered_points(support, adapted, c_min)
    params = EncodingParams(support.dim, n_exp)

    candidates: dict[LatticePoint, int] = {}
    for a in support.points:
        ca = adapted[a]
        for b in support.points:
            cb = adapted[b]
            ck = tuple(x - y for x, y in zip(cb, ca))
            if ck[-1] % 2 != 0:
                continue
            value = radix_encode(params, ck)
            if value < 0:
                continue
            k = tuple(x - y for x, y in zip(b, a))
            candidates[k] = value

    index_set = tuple(sorted(candidates, key=candidates.__getitem__))
    equations = {}
    for k in index_set:
        pairs = _pairs_for(support, order, k)
        rhs = 1 if all(c == 0 for c in k) else 0
        equations[k] = Equation(k=k, pairs=pairs, rhs=rhs)
    return ReducedSystem(
        support=support,
        matrix=dil,
        index_set=index_set,
        equations=equations,
        window_exponent=n_exp,
        support_order=order,
    )


def reference_chart(support: SupportSet, dil: DilationMatrix) -> Chart:
    """The chart the former build kept on its system: the reference support
    order, each point's code at the reference frame, c_min and N."""
    adapted, c_min, n_exp = _adapted_frame(support, dil)
    order = _ordered_points(support, adapted, c_min)
    params = EncodingParams(support.dim, n_exp)
    codes = tuple(encode_support(params, tuple(a - b for a, b in zip(adapted[p], c_min)))
                  for p in order)
    return Chart(order, codes, c_min, n_exp)


# Per-generator oracle: the library's former equation builder, which checks
# one generator k against A*Z^d and scans the support in chart order for its
# pairs (n, n + k).
class NotInLatticeError(LatwavError):
    """A generator was expected to lie in the dilated lattice A*Z^d."""


def generated_equation(support: SupportSet, dil: DilationMatrix,
                       k: LatticePoint) -> Equation | None:
    """The equation generated by k on this support, or None if trivial."""
    k = as_point(k)
    if len(k) != support.dim or support.dim != dil.dim:
        raise DimensionMismatchError("support, matrix and generator dimensions differ")
    if not in_dilated_lattice(dil, k):
        raise NotInLatticeError(f"generator {k} is not in A*Z^d")
    pairs = tuple((n, m) for n in _chart(support, dil).support_order
                  if (m := tuple(a + b for a, b in zip(n, k))) in support.points)
    if not pairs:
        return None
    rhs = 1 if all(c == 0 for c in k) else 0
    return Equation(k=k, pairs=pairs, rhs=rhs)


# Bucket-pass oracle: the library's former one-pass build, which scans every
# ordered same-parity pair in the 1-D chart and keeps those with v >= 0.
def reference_pair_scan_build(support: SupportSet, dil: DilationMatrix) -> ReducedSystem:
    if support.dim != dil.dim:
        raise DimensionMismatchError("support and matrix dimensions differ")
    chart = _chart(support, dil)
    order, codes = chart.support_order, dict(zip(chart.support_order, chart.codes))
    classes: tuple[list, list] = ([], [])
    for p in order:
        classes[codes[p] & 1].append((codes[p], p))

    buckets: dict[int, list] = {}
    for a in order:
        ca = codes[a]
        for cb, b in classes[ca & 1]:
            v = cb - ca
            if v >= 0:
                bucket = buckets.get(v)
                if bucket is None:
                    buckets[v] = [(a, b)]
                else:
                    bucket.append((a, b))

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
        window_exponent=chart.window_exponent,
        support_order=order,
    )


# Witness oracle: the library's former witness check, which compares every
# mapped equation with its target as pair sets, up to transposition.
def reference_witness_fault(sys_a: ReducedSystem, sys_b: ReducedSystem,
                            iso: IsoMap) -> str | None:
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


# JSON oracle: the library's former canonical dump, with the encoder's
# cycle markers on.
def reference_canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def reference_index_map(report, to_line: bool = True) -> dict:
    """The library's former index map of a transfer report: generators go
    through encode_index of their adapted coordinates onto [2] (``to_line``)
    or through decode_index from [2], at the report's window exponent; a
    composed report composes the maps of its two stages."""
    if report.stages:
        first = reference_index_map(report.stages[0], to_line=True)
        second = reference_index_map(report.stages[1], to_line=False)
        return {k: second[l] for k, l in first.items()}
    dil = (report.source_filter if to_line else report.target_filter).matrix
    params = EncodingParams(dil.dim, report.window_exponent)
    index_set = report.source_filter.system.index_set
    if to_line:
        return {k: (encode_index(params, to_adapted(dil, k)),) for k in index_set}
    return {k: from_adapted(dil, decode_index(params, k[0])) for k in index_set}


def reference_zipped_index_map(report) -> dict:
    """The library's former index map of every transfer report: the two
    built systems' index sets, zipped in order."""
    return dict(zip(report.source_filter.system.index_set,
                    report.target_filter.system.index_set))


# Transfer oracle: the library's former transfer, whose two stages each scan
# their own source chart for one pair per generator, and whose composed
# index map composes the stages' maps.
def _reference_carry(filt: Filter, target: Filter, support_map, shift: LatticePoint,
                     n_exp: int, stages: tuple = ()) -> TransferReport:
    if (fault := _chart_fault(filt.chart, target.chart, support_map)) is not None:
        raise IsomorphismError(f"transfer witness fails: {fault}")
    if stages:
        first, second = (stage.iso.index_map for stage in stages)
        index_map = {k: second[m] for k, m in first.items()}
    else:
        index_map = {tuple(map(operator.sub, b, a)):
                     tuple(map(operator.sub, support_map[b], support_map[a]))
                     for a, b in generator_pairs(filt.chart)}
    return TransferReport(filt, target, IsoMap(support_map, index_map), shift, n_exp, stages)


def reference_to_one_d(filt: Filter) -> TransferReport:
    chart = filt.chart
    support_map = {p: (c,) for p, c in zip(chart.support_order, chart.codes)}
    target = Filter(dilation_1d(), {support_map[p]: v for p, v in filt.coeffs.items()})
    return _reference_carry(filt, target, support_map,
                            from_adapted(filt.matrix, chart.c_min), chart.window_exponent)


def reference_from_one_d(filt: Filter, target_matrix: DilationMatrix) -> TransferReport:
    if filt.dim != 1:
        raise NotOneDimensionalError(f"filter is {filt.dim}-dimensional")
    if filt.matrix.A.rows != ((2,),):
        raise ValueError("from_one_d requires a filter over the dilation [2]")
    chart = filt.chart
    top = chart.codes[-1]
    n_exp = window_exponent_for_extent(top if target_matrix.dim == 1 else top >> 1)
    params = EncodingParams(target_matrix.dim, n_exp)
    support_map = {p: from_adapted(target_matrix, decode_support(params, c))
                   for p, c in zip(chart.support_order, chart.codes)}
    target = Filter(target_matrix, {support_map[p]: v for p, v in filt.coeffs.items()})
    return _reference_carry(filt, target, support_map, chart.c_min, n_exp)


def reference_transfer(filt: Filter, target_matrix: DilationMatrix) -> TransferReport:
    stage1 = reference_to_one_d(filt)
    stage2 = reference_from_one_d(stage1.target_filter, target_matrix)
    support_map = {p: stage2.iso.support_map[m] for p, m in stage1.iso.support_map.items()}
    return _reference_carry(filt, stage2.target_filter, support_map, stage1.shift,
                            stage1.window_exponent, stages=(stage1, stage2))


def reference_lawton_residuals(filt: Filter) -> ResidualReport:
    """The library's former residual evaluator, which walks the pairs of the
    filter's built system, equation by equation."""
    system = filt.system
    coeffs = filt.coeffs
    per_index: dict[LatticePoint, float] = {}
    for k in system.index_set:
        eq = system.equations[k]
        acc = 0.0
        for n, m in eq.pairs:
            acc = acc + coeffs[n] * coeffs[m].conjugate()
        per_index[k] = abs(acc - eq.rhs)
    total = 0.0
    for n in system.support_order:
        total = total + coeffs[n]
    sum_residual = abs(total - SQRT2)
    max_residual = max(sum_residual, max(per_index.values()))
    return ResidualReport(
        filter=filt,
        per_index=per_index,
        sum_residual=sum_residual,
        max_residual=max_residual,
    )


def reference_dual_coset_shift(filt) -> tuple[Fraction, ...]:
    """The library's former dual coset shift 2 pi (A^T)^-1 q, over pi and
    exact: q is the coset representative of A^T's Smith normal form, and
    coordinate j is 2 (adj(A^T) q)_j / det(A), an integer since det = +/-2."""
    at = filt.matrix.A.transpose()
    q = coset_representative(smith_normal_form(at))
    det = at.det()
    return tuple(Fraction(2 * x, det) for x in at.adjugate().vec(q))


def reference_qmf_check(filt, samples: int = 1024, seed: int = 0) -> float:
    """The library's former QMF check, which forms the phases from the
    complex product (-1j * points) @ n_mat.T.

    The points are drawn row by row with ``random.Random.uniform``, which
    Python documents as a + (b - a) * random(); pi - (-pi) is exactly 2 pi,
    so each point equals the library's -pi + 2 pi * u bit for bit.
    """
    pts = sorted(filt.coeffs)
    n_mat = np.array(pts, dtype=float)
    values = np.array([filt.coeffs[p] for p in pts], dtype=complex)
    zeta = _dual_coset_shift(filt)

    rng = random.Random(seed)
    xi = np.array([[rng.uniform(-math.pi, math.pi) for _ in range(filt.dim)]
                   for _ in range(samples)], dtype=float)

    def m0(points: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * points @ n_mat.T)
        return phases @ values / SQRT2

    dev = np.abs(m0(xi)) ** 2 + np.abs(m0(xi + zeta)) ** 2 - 1.0
    return float(np.max(np.abs(dev)))


def plain_qmf_check(filt, samples: int = 1024, seed: int = 0) -> float:
    """``qmf_check`` as a plain loop over points, then support points, with
    every term h * rect(1, phase): the sums, in the library's order (sorted
    support, from 0j; each phase x_0 * -n_0 + x_1 * -n_1 + ... from the
    left), that its one-pass-per-support-point form must equal bit for bit.
    """
    dim, zeta = filt.dim, _dual_coset_shift(filt)
    flat = _sample_points(samples, dim, seed)
    points = [flat[i * dim:(i + 1) * dim] for i in range(samples)]
    points += [[x + z for x, z in zip(p, zeta)] for p in points]
    terms = [([-float(c) for c in n], complex(h)) for n, h in sorted(filt.coeffs.items())]
    power = []
    for x in points:
        m0 = 0j
        for neg, h in terms:
            phase = x[0] * neg[0]
            for xj, c in zip(x[1:], neg[1:]):
                phase = phase + xj * c
            m0 = m0 + h * cmath.rect(1.0, phase)
        re, im = m0.real / SQRT2, m0.imag / SQRT2
        power.append(re * re + im * im)
    dev = [abs(p + q - 1.0) for p, q in zip(power[:samples], power[samples:])]
    return math.nan if any(map(math.isnan, dev)) else max(dev)


def support_decode_table(params: EncodingParams) -> dict[int, LatticePoint]:
    """Inverse of encode_support as a lookup table over the enumerated window:
    the reference for the radix decoder decode_support."""
    win = enumerate_windows(params)
    return {encode_support(params, n): n for n in win.support_points}


def index_decode_table(params: EncodingParams) -> dict[int, LatticePoint]:
    """Inverse of encode_index as a lookup table over the enumerated window:
    the reference for the radix decoder decode_index."""
    win = enumerate_windows(params)
    return {encode_index(params, k): k for k in win.index_points}


# Encoding oracles: the library's former radix value, a sum against a tuple
# of weights 4^((j-1)N) (the former EncodingParams.base_weights), and its
# former decoders: one plain digit loop for the support window, and for the
# index window a floor split retried at the next row with a signed digit loop.
def reference_base_weights(params: EncodingParams) -> tuple[int, ...]:
    """Exact weights 4^((j-1)N), j = 1..dim."""
    n = params.window_exponent
    return tuple(1 << (2 * n * j) for j in range(params.dim))


def reference_radix_encode(params: EncodingParams, n: LatticePoint) -> int:
    """Base-4^N positional value of n; total on Z^d, injective on the window."""
    return sum(c * w for c, w in zip(as_point(n, params.dim), reference_base_weights(params)))


def reference_decode_support(params: EncodingParams, value: int) -> LatticePoint | None:
    """Inverse of encode_support, computed by radix decomposition.

    On the support window the flattening is floor(y/2)*stride + 2*sigma + (y
    odd) with 0 <= 2*sigma + 1 < stride and sigma a plain base-4^N number
    with digits below 2^N, so the value splits uniquely.  Returns None when
    the value is not the code of any window point.
    """
    d, n_exp = params.dim, params.window_exponent
    w = 1 << n_exp
    if value < 0:
        return None
    y_half, rest = divmod(value, params.row_stride)
    parity = rest & 1
    sigma = rest >> 1
    digits = []
    for _ in range(d - 1):
        sigma, digit = divmod(sigma, 1 << (2 * n_exp))
        if digit >= w:
            return None
        digits.append(digit)
    if sigma:
        return None
    y = 2 * y_half + parity
    if not 0 <= y < w:
        return None
    return tuple(digits) + (y,)


def reference_decode_index(params: EncodingParams, value: int) -> LatticePoint | None:
    """Inverse of encode_index, computed by signed radix decomposition.

    The leading part 2*sigma of an index-window code can be negative, so the
    split of value = j*stride + 2*sigma is ambiguous by one stride; both
    candidates are tried and at most one decodes to window digits (the
    flattening is injective there).
    """
    d, n_exp = params.dim, params.window_exponent
    w = 1 << n_exp
    if value < 0 or value & 1:
        return None
    stride = params.row_stride
    base = 1 << (2 * n_exp)

    def signed_digits(sigma: int) -> LatticePoint | None:
        digits = []
        for _ in range(d - 1):
            sigma, digit = divmod(sigma, base)
            if digit >= base - (w - 1):
                digit -= base
                sigma += 1
            elif digit > w - 1:
                return None
            digits.append(digit)
        return tuple(digits) if sigma == 0 else None

    j0, rest = divmod(value, stride)
    for j, twice_sigma in ((j0, rest), (j0 + 1, rest - stride)):
        x = signed_digits(twice_sigma >> 1) if twice_sigma % 2 == 0 else None
        if x is None:
            continue
        k = x + (2 * j,)
        if in_index_window(params, k):
            return k
    return None


# Cascade oracles: the library's former level difference, which scans the
# integer bounding box of every coarse cell's image for the fine cells whose
# centres it holds and solves floor(A^-1 (j + 1/2)) for each fine cell, and
# the former translate Gram, which sorts the cells once per shift.
def _parent_cell(adj_rows, det2: int, j: LatticePoint) -> LatticePoint:
    doubled = tuple(2 * c + 1 for c in j)
    return tuple(
        sum(a * b for a, b in zip(row, doubled)) // det2 for row in adj_rows
    )


def reference_level_difference(coarse: CascadeGrid, fine: CascadeGrid) -> float:
    matrix = fine.matrix
    det = matrix.A.det()
    sign = 1 if det > 0 else -1
    adj_rows = tuple(tuple(sign * x for x in row) for row in matrix.A.adjugate().rows)
    det2 = 2 * abs(det)
    d = matrix.dim

    compare = set(fine.cells)
    a_rows = matrix.A.rows
    corners = list(product((0, 1), repeat=d))
    for i in coarse.cells:
        images = [
            tuple(sum(r * (ci + cc) for r, ci, cc in zip(row, i, corner)) for row in a_rows)
            for corner in corners
        ]
        lo = [min(im[t] for im in images) - 1 for t in range(d)]
        hi = [max(im[t] for im in images) + 1 for t in range(d)]
        for j in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
            if _parent_cell(adj_rows, det2, j) == i:
                compare.add(j)

    acc = 0.0
    for j in sorted(compare):
        vf = fine.cells.get(j, 0.0)
        vc = coarse.cells.get(_parent_cell(adj_rows, det2, j), 0.0)
        acc += abs(vf - vc) ** 2
    return math.sqrt(acc * fine.cell_volume)


def reference_translate_gram(grid: CascadeGrid, window) -> dict:
    a_pow = grid.matrix.A.power(grid.level)
    vol = grid.cell_volume
    out = {}
    for m in window:
        offset = a_pow.vec(tuple(m))
        acc = 0.0
        for j, value in sorted(grid.cells.items()):
            other = grid.cells.get(tuple(c - o for c, o in zip(j, offset)))
            if other is not None:
                acc = acc + value * other.conjugate()
        out[tuple(m)] = acc * vol
    return out


# Box oracles: the library's former support box, which summed float terms
# A^-j box(S) until one fell below 1e-9 (at most 500 of them) and padded the
# sum by 1, and the former digit scan box, the extremes of the 2^d corner
# images of A [0,1]^d.
def reference_support_bounding_box(filt: Filter) -> tuple[tuple[float, ...], tuple[float, ...]]:
    d = filt.dim
    det = filt.matrix.det
    ainv = [[x / det for x in row] for row in filt.matrix.adj.rows]
    pts = list(filt.coeffs)
    s_lo = [float(min(p[j] for p in pts)) for j in range(d)]
    s_hi = [float(max(p[j] for p in pts)) for j in range(d)]

    lo = [0.0] * d
    hi = [0.0] * d
    power = [[float(i == j) for j in range(d)] for i in range(d)]
    for _ in range(500):
        power = [
            [sum(ainv[i][t] * power[t][j] for t in range(d)) for j in range(d)]
            for i in range(d)
        ]
        term = 0.0
        for i in range(d):
            a = sum(min(r * l, r * h) for r, l, h in zip(power[i], s_lo, s_hi))
            b = sum(max(r * l, r * h) for r, l, h in zip(power[i], s_lo, s_hi))
            lo[i] += a
            hi[i] += b
            term = max(term, abs(a), abs(b))
        if term < 1e-9:
            break
    return tuple(x - 1.0 for x in lo), tuple(x + 1.0 for x in hi)


def reference_centre_digits(matrix: DilationMatrix) -> tuple[LatticePoint, ...]:
    det = matrix.A.det()
    sign = 1 if det > 0 else -1
    adj_rows = [[sign * x for x in row] for row in matrix.A.adjugate().rows]
    det2 = 2 * abs(det)
    images = [matrix.A.vec(corner) for corner in product((0, 1), repeat=matrix.dim)]
    box = [range(min(coord) - 1, max(coord) + 2) for coord in zip(*images)]
    return tuple(
        j for j in product(*box)
        if all(0 <= sum(a * (2 * c + 1) for a, c in zip(row, j)) < det2
               for row in adj_rows)
    )
