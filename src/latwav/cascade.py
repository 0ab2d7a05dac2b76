"""Cascade approximation of the scaling function on sparse dyadic grids.

A level-K grid assigns a value to each integer cell j, meaning the function
is constant on A^-K(j + [0,1)^d); the cell volume is 2^-K because |det A| = 2.
One cascade step applies f -> sqrt(2) * sum_n s_n f(A. - n) exactly on these
piecewise-constant functions: the new value at cell j is
sqrt(2) * sum_n s_n * old(j - A^K n).

Cell indices grow like A^K and are kept as exact Python integers.  Because
the level-(K+1) cells are not nested in the level-K cells for a skew matrix,
the cross-level L2 difference resamples the coarser grid at the centers of
the finer cells; it is a convergence diagnostic, not a norm identity.  The
fine cells whose centers fall in coarse cell i are exactly A i + S for one
two-element digit set S, a complete residue system for Z^d / A Z^d.
"""

from __future__ import annotations

import math
import sys
import warnings
from itertools import product
from typing import NamedTuple

from .config import DEFAULT_CELL_BUDGET, DEFAULT_LEVEL_CAP, DEFAULT_TOLERANCE
from .errors import LevelBudgetExceededError
from .intlat import DilationMatrix, IntMatrix, LatticePoint
from .lawton import SQRT2, Coefficient, Filter, lawton_residuals


class CascadeGrid(NamedTuple):
    """Sparse piecewise-constant approximation at refinement level ``level``."""

    level: int
    matrix: DilationMatrix
    cells: dict[LatticePoint, Coefficient]

    @property
    def cell_volume(self) -> float:
        return 2.0 ** (-self.level)

    def integral(self) -> Coefficient:
        total = 0.0
        for value in self.cells.values():
            total = total + value
        return total * self.cell_volume


def initial_grid(matrix: DilationMatrix) -> CascadeGrid:
    """The indicator of the unit cube: value 1 on cell 0 at level 0."""
    origin = (0,) * matrix.dim
    return CascadeGrid(level=0, matrix=matrix, cells={origin: 1.0})


def cascade_step(grid: CascadeGrid, filt: Filter,
                 cell_budget: int = DEFAULT_CELL_BUDGET) -> CascadeGrid:
    """One application of the two-scale operator; level K -> K + 1."""
    if filt.matrix.A != grid.matrix.A:
        raise ValueError("filter and grid use different dilation matrices")
    a_pow = grid.matrix.A.power(grid.level)
    taps = [
        (a_pow.vec(n), SQRT2 * s) for n, s in sorted(filt.coeffs.items())
    ]
    new_cells: dict[LatticePoint, Coefficient] = {}
    for cell, value in grid.cells.items():
        for offset, weight in taps:
            target = tuple(c + o for c, o in zip(cell, offset))
            prev = new_cells.get(target)
            contrib = weight * value
            new_cells[target] = contrib if prev is None else prev + contrib
        if len(new_cells) > cell_budget:  # the count only grows: raise early
            raise LevelBudgetExceededError(
                f"level {grid.level + 1} exceeds the cell budget {cell_budget}"
            )
    return CascadeGrid(level=grid.level + 1, matrix=grid.matrix, cells=new_cells)


def _image_box(rows, lo, hi) -> tuple[list[int], list[int]]:
    """The integer box of {M x : lo <= x <= hi}, M the matrix with these rows."""
    return ([sum(min(r * l, r * h) for r, l, h in zip(row, lo, hi)) for row in rows],
            [sum(max(r * l, r * h) for r, l, h in zip(row, lo, hi)) for row in rows])


def _two_inverse(matrix: DilationMatrix) -> IntMatrix:
    """M = sign(det A) adj(A) = 2 A^-1, exact, as |det A| = 2."""
    sign = 1 if matrix.det > 0 else -1
    return IntMatrix((sign * x for x in row) for row in matrix.adj.rows)


def _centre_digits(matrix: DilationMatrix) -> tuple[LatticePoint, ...]:
    """S = {j : floor(A^-1 (j + 1/2)) = 0}, the fine cells whose centers lie
    in coarse cell 0, with the exact test 0 <= M (2j + 1) < 4 on every row,
    M = 2 A^-1.  j + 1/2 lies in A [0,1)^d, so lo <= j <= hi - 1 for the
    integer box [lo, hi] of A [0,1]^d, and only that box is scanned."""
    rows = _two_inverse(matrix).rows
    lo, hi = _image_box(matrix.A.rows, (0,) * matrix.dim, (1,) * matrix.dim)
    return tuple(
        j for j in product(*map(range, lo, hi))
        if all(0 <= sum(a * (2 * c + 1) for a, c in zip(row, j)) < 4 for row in rows)
    )


def level_difference(coarse: CascadeGrid, fine: CascadeGrid) -> float:
    """Sampled L2 distance between consecutive levels.

    The coarse function is evaluated at fine-cell centers; the sum runs over
    every fine cell where either function is nonzero.  Coarse cell i covers
    the centers of the fine cells A i + S, so the samples are built directly.
    """
    if fine.level != coarse.level + 1:
        raise ValueError("grids must be consecutive levels")
    A = fine.matrix.A
    digits = _centre_digits(fine.matrix)
    sampled: dict[LatticePoint, Coefficient] = {}
    for i, value in coarse.cells.items():
        base = A.vec(i)
        for s in digits:
            sampled[tuple(b + c for b, c in zip(base, s))] = value

    acc = 0.0
    for j in sorted(sampled.keys() | fine.cells.keys()):
        acc += abs(fine.cells.get(j, 0.0) - sampled.get(j, 0.0)) ** 2
    return math.sqrt(acc * fine.cell_volume)


def run_cascade(filt: Filter, max_level: int = DEFAULT_LEVEL_CAP, tol: float = 0.0,
                cell_budget: int = DEFAULT_CELL_BUDGET,
                residual_warn_tolerance: float = DEFAULT_TOLERANCE,
                ) -> tuple[CascadeGrid, list[float]]:
    """Iterate the cascade from the unit-cube indicator.

    Returns the final grid and the per-step sampled L2 differences.  Stops
    early once a difference drops below ``tol``; a difference is a square
    root, so ``tol = 0`` runs every level.  Warns when the filter does not
    solve its system (``ResidualReport.passes``): the iteration is then not
    known to converge.
    """
    report = lawton_residuals(filt)
    if not report.passes(residual_warn_tolerance):
        warnings.warn(
            f"filter residual {report.max_residual:.3e} exceeds "
            f"{residual_warn_tolerance:.1e}; cascade convergence is not guaranteed",
            stacklevel=2,
        )
    grid = initial_grid(filt.matrix)
    diffs: list[float] = []
    for _ in range(max_level):
        nxt = cascade_step(grid, filt, cell_budget)
        diffs.append(level_difference(grid, nxt))
        grid = nxt
        if diffs[-1] < tol:
            break
    return grid, diffs


def translate_gram(grid: CascadeGrid,
                   window: list[LatticePoint]) -> dict[LatticePoint, Coefficient]:
    """Inner products of the grid function with its integer translates.

    G(m) = 2^-K sum_j v(j) conj(v(j - A^K m)), the exact integral of the
    piecewise-constant function against its translate by m.
    """
    a_pow = grid.matrix.A.power(grid.level)
    vol = grid.cell_volume
    items = sorted(grid.cells.items())
    out: dict[LatticePoint, Coefficient] = {}
    for m in window:
        offset = a_pow.vec(tuple(m))
        acc = 0.0
        for j, value in items:
            other = grid.cells.get(tuple(c - o for c, o in zip(j, offset)))
            if other is not None:
                acc = acc + value * other.conjugate()
        out[tuple(m)] = acc * vol
    return out


def support_bounding_box(filt: Filter) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Axis-aligned box certified to contain the limit function's support.

    The support lies in the attractor X = sum_{j>=1} A^-j S of the support S.
    A^-1 = M / 2 with M = sign(det A) adj(A), so Y_k = sum_{j<=k} A^-j box(S)
    has an exact box over 2^k, and X = Y_k + A^-k X gives
    |X|_inf <= |Y_k|_inf / (1 - q) for q = |A^-k|_inf.  Y_k's box widened by
    q times that bound holds X; k is the first k >= 53 (float mantissa bits)
    with q <= 2^-53, which exists as A is expansive.  Bounds round outward.

    A level-K cascade cell A^-K (j + [0,1)^d) has its low corner in Y_K, so
    in the box when 0 is in box(S) (every bundled filter); the rest of a cell,
    and early cells of a translated support, can lie outside it.
    """
    m = _two_inverse(filt.matrix)
    s_lo = [min(c) for c in zip(*filt.coeffs)]
    s_hi = [max(c) for c in zip(*filt.coeffs)]
    bits = sys.float_info.mant_dig
    lo = hi = [0] * filt.dim
    power, k = m, 1
    while True:
        a, b = _image_box(power.rows, s_lo, s_hi)
        lo = [2 * y + t for y, t in zip(lo, a)]
        hi = [2 * y + t for y, t in zip(hi, b)]
        norm = max(sum(map(abs, row)) for row in power.rows)
        if k >= bits and norm << bits <= 1 << k:
            break
        power, k = power.mul(m), k + 1
    # Numerators over 2^k (2^k - norm): Y_k's bounds, and q times the bound on X.
    scale = (1 << k) - norm
    den = scale << k
    widen = norm * max(map(abs, lo + hi))
    return (tuple(math.nextafter((y * scale - widen) / den, -math.inf) for y in lo),
            tuple(math.nextafter((y * scale + widen) / den, math.inf) for y in hi))
