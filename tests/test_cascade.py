"""Cascade iteration: fixed points, conservation laws, two-scale oracle."""

import math
import random
from fractions import Fraction

import pytest

from latwav.cascade import (
    cascade_step,
    initial_grid,
    level_difference,
    _centre_digits,
    run_cascade,
    support_bounding_box,
    translate_gram,
)
from latwav.errors import LevelBudgetExceededError, NotExpansiveError
from latwav.filters import (
    BUNDLED_MATRICES,
    daubechies4_1d,
    dilation_1d,
    haar_1d,
    quincunx_daubechies4,
    quincunx_haar,
    quincunx_matrix,
)
from latwav.intlat import DilationMatrix, IntMatrix, in_dilated_lattice
from latwav.transfer import Filter, transfer
from util import (
    companion,
    reference_centre_digits,
    reference_level_difference,
    reference_support_bounding_box,
    reference_translate_gram,
)

BUNDLED = (haar_1d, daubechies4_1d, quincunx_haar, quincunx_daubechies4)


def value_at(grid, t):
    """Exact cell lookup at a rational point (independent of the step code)."""
    a_pow = grid.matrix.A.power(grid.level)
    x = tuple(sum(r * c for r, c in zip(row, t)) for row in a_pow.rows)
    return grid.cells.get(tuple(int(c // 1) for c in x), 0.0)


def test_initial_grid():
    grid = initial_grid(quincunx_matrix())
    assert grid.level == 0
    assert grid.cells == {(0, 0): 1.0}
    assert grid.integral() == 1.0


def test_haar_fixed_point_exact():
    grid, diffs = run_cascade(haar_1d(), max_level=12)
    assert diffs == [0.0] * 12
    assert set(grid.cells.values()) == {1.0}
    assert set(grid.cells) == {(j,) for j in range(2 ** 12)}
    assert grid.integral() == 1.0


def test_quincunx_haar_indicator():
    grid, _ = run_cascade(quincunx_haar(), max_level=10)
    assert set(grid.cells.values()) == {1.0}
    assert len(grid.cells) == 2 ** 10
    assert grid.integral() == 1.0


def test_integral_conserved_every_level():
    for make in BUNDLED:
        filt = make()
        grid = initial_grid(filt.matrix)
        for _ in range(8):
            grid = cascade_step(grid, filt)
            assert abs(grid.integral() - 1.0) < 1e-9


def test_two_scale_pointwise_oracle():
    """new(t) == sqrt(2) * sum_n s_n * old(A t - n) at random rational points."""
    rnd = random.Random(13)
    for make in (daubechies4_1d, quincunx_daubechies4):
        filt = make()
        a_rows = filt.matrix.A.rows
        grid = initial_grid(filt.matrix)
        for _ in range(5):
            grid = cascade_step(grid, filt)
        nxt = cascade_step(grid, filt)
        for _ in range(100):
            t = tuple(
                Fraction(rnd.randint(-300, 700), 128) for _ in range(filt.dim)
            )
            at = tuple(sum(r * c for r, c in zip(row, t)) for row in a_rows)
            expected = math.sqrt(2.0) * sum(
                s * value_at(grid, tuple(a - c for a, c in zip(at, n)))
                for n, s in sorted(filt.coeffs.items())
            )
            assert abs(value_at(nxt, t) - expected) < 1e-12


def test_db4_convergence_and_gram():
    grid, diffs = run_cascade(daubechies4_1d(), max_level=12)
    assert diffs[-1] < 1e-3
    assert all(b < a for a, b in zip(diffs, diffs[1:]))
    gram = translate_gram(grid, [(m,) for m in range(-3, 4)])
    assert abs(gram[(0,)] - 1.0) < 1e-2
    for m in range(1, 4):
        assert abs(gram[(m,)]) < 1e-2
        assert abs(gram[(-m,)]) < 1e-2


def test_quincunx_haar_gram_exact():
    grid, _ = run_cascade(quincunx_haar(), max_level=10)
    gram = translate_gram(grid, [(0, 0), quincunx_matrix().coset_rep])
    assert gram[(0, 0)] == 1.0
    assert gram[quincunx_matrix().coset_rep] == 0.0


def test_quincunx_db4_differences_eventually_decrease():
    _, diffs = run_cascade(quincunx_daubechies4(), max_level=10)
    assert diffs[-1] < diffs[2]
    assert all(b <= a * 1.05 for a, b in zip(diffs[3:], diffs[4:]))


def test_level_difference_requires_consecutive_levels():
    filt = haar_1d()
    g0 = initial_grid(filt.matrix)
    g1 = cascade_step(g0, filt)
    g2 = cascade_step(g1, filt)
    assert level_difference(g1, g2) == 0.0
    with pytest.raises(ValueError):
        level_difference(g0, g2)


def test_cell_budget_enforced():
    with pytest.raises(LevelBudgetExceededError):
        run_cascade(daubechies4_1d(), max_level=8, cell_budget=100)
    # Boundary: the largest level's cell count passes, one less raises.
    filt = daubechies4_1d()
    grid = initial_grid(filt.matrix)
    largest = 0
    for _ in range(8):
        grid = cascade_step(grid, filt)
        largest = max(largest, len(grid.cells))
    run_cascade(filt, max_level=8, cell_budget=largest)
    with pytest.raises(LevelBudgetExceededError, match=f"level 8 exceeds the cell budget {largest - 1}"):
        run_cascade(filt, max_level=8, cell_budget=largest - 1)


def test_matrix_mismatch_rejected():
    grid = initial_grid(quincunx_matrix())
    with pytest.raises(ValueError):
        cascade_step(grid, haar_1d())


def test_run_cascade_warns_for_non_solution():
    bad = Filter.from_coeffs(dilation_1d(), {(0,): 0.9, (1,): 0.6})
    with pytest.warns(UserWarning, match="convergence is not guaranteed"):
        run_cascade(bad, max_level=2)


def test_early_stop_on_tolerance():
    _, diffs = run_cascade(haar_1d(), max_level=12, tol=1e-6)
    assert diffs == [0.0]  # first difference is already below tol
    # db4's differences fall below 0.05 at level 5, not before; tol = 0 runs
    # every level, as no difference (a square root) is negative.
    _, diffs = run_cascade(daubechies4_1d(), max_level=12, tol=0.05)
    assert [round(d, 3) for d in diffs] == [0.366, 0.242, 0.145, 0.082, 0.046]
    _, diffs = run_cascade(daubechies4_1d(), max_level=12, tol=0.0)
    assert len(diffs) == 12


def _inverse_numerator(matrix) -> IntMatrix:
    """M = sign(det A) adj(A), so that A^-1 = M / 2."""
    sign = 1 if matrix.A.det() > 0 else -1
    return IntMatrix([[sign * x for x in row] for row in matrix.A.adjugate().rows])


def test_support_bounding_box_contains_cells():
    """The low corner A^-K j = M^K j / 2^K of every level-12 cell lies in the
    box, compared in exact rationals: 0 is in every bundled support."""
    for make in BUNDLED:
        filt = make()
        lo, hi = support_bounding_box(filt)
        grid = initial_grid(filt.matrix)
        for _ in range(12):
            grid = cascade_step(grid, filt)
        m_pow = _inverse_numerator(filt.matrix).power(grid.level)
        bounds = [(Fraction(l) * 2 ** grid.level, Fraction(h) * 2 ** grid.level)
                  for l, h in zip(lo, hi)]
        for cell in grid.cells:
            for (l, h), x in zip(bounds, m_pow.vec(cell)):
                assert l <= x <= h, (make.__name__, cell)


def test_support_bounding_box_haar():
    """The attractor of {0, 1} under x / 2 is [0, 1]: the box is that interval
    rounded outward by a few ulps, with no pad."""
    (lo,), (hi,) = support_bounding_box(haar_1d())
    assert -4 * math.ulp(1.0) <= lo <= 0.0
    assert 1.0 <= hi <= 1.0 + 4 * math.ulp(1.0)


def _attractor_points(matrix, digits, rnd, count: int, steps: int):
    """Exact points of the attractor of the maps x -> A^-1 (x + s), s in
    ``digits``, as (integer numerators, positive denominator): the fixed
    point (A - I)^-1 c of one map, pushed through ``steps`` random maps."""
    shifted = IntMatrix(
        [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(matrix.A.rows)]
    )
    det = shifted.det()
    sign = 1 if det > 0 else -1
    adj = shifted.adjugate()
    m = _inverse_numerator(matrix)
    for _ in range(count):
        u = tuple(sign * x for x in adj.vec(rnd.choice(digits)))
        den = abs(det)
        for _ in range(steps):
            s = rnd.choice(digits)
            u = m.vec(tuple(x + den * c for x, c in zip(u, s)))
            den *= 2
        yield u, den


def _expansive_matrices(rnd, per_dim: int) -> list[DilationMatrix]:
    """The companions of x^d +/- 2 in d = 1-4 and, in d = 2-4, ``per_dim``
    random expansive det +/-2 matrices U C U^-1: C the companion of a random
    monic polynomial with constant term +/-2, kept when it is expansive, and
    U a product of random shears."""
    out = [DilationMatrix.from_matrix(companion((1,) + (0,) * (d - 1) + (c,)))
           for d in range(1, 5) for c in (2, -2)]
    for d in range(2, 5):
        kept = 0
        while kept < per_dim:
            poly = (1,) + tuple(rnd.randint(-2, 2) for _ in range(d - 1)) + (rnd.choice((2, -2)),)
            u = IntMatrix.identity(d)
            for _ in range(rnd.randint(1, 4)):
                i, j = rnd.sample(range(d), 2)
                u = u.mul(_shear(d, i, j, rnd.choice((-2, -1, 1, 2))))
            try:
                out.append(DilationMatrix.from_matrix(_conjugate(companion(poly), u)))
            except NotExpansiveError:
                continue
            kept += 1
    return out


def test_support_bounding_box_holds_attractor_points_and_tightens_the_former_box():
    """On random expansive matrices in d = 1-4 with translated random
    supports, exact attractor points lie in the box, and the box lies in the
    former padded float box."""
    rnd = random.Random(18)
    for matrix in _expansive_matrices(rnd, per_dim=8):
        d = matrix.dim
        for _ in range(3):
            shift = [rnd.randint(-20, 20) for _ in range(d)]
            digits = sorted({
                tuple(rnd.randint(-3, 3) + t for t in shift) for _ in range(rnd.randint(2, 6))
            })
            filt = Filter.from_coeffs(matrix, {p: 1.0 for p in digits})
            lo, hi = support_bounding_box(filt)
            ref_lo, ref_hi = reference_support_bounding_box(filt)
            assert all(r <= x for r, x in zip(ref_lo, lo)), (matrix.A.rows, digits)
            assert all(x <= r for r, x in zip(ref_hi, hi)), (matrix.A.rows, digits)
            for u, den in _attractor_points(matrix, digits, rnd, count=10, steps=30):
                for l, x, h in zip(lo, u, hi):
                    assert Fraction(l) * den <= x <= Fraction(h) * den, (matrix.A.rows, digits)


def _shear(dim: int, row: int, col: int, t: int) -> IntMatrix:
    return IntMatrix(
        [[int(i == j) + (t if (i, j) == (row, col) else 0) for j in range(dim)]
         for i in range(dim)]
    )


def _conjugate(m: IntMatrix, u: IntMatrix) -> IntMatrix:
    return u.mul(m).mul(u.unimodular_inverse())


def _differential_filters():
    """(filter, levels) pairs with small matrix entries: the oracle's box
    scan grows with the entries of A."""
    for make in BUNDLED:
        yield make(), 8
    matrices = [IntMatrix([[2]]), IntMatrix([[-2]])]
    for c in (2, -2):
        base = companion((1, 0, c))
        s01, s10 = _shear(2, 0, 1, 1), _shear(2, 1, 0, -1)
        for u in (IntMatrix.identity(2), s01, s10, s01.mul(s10)):
            matrices.append(_conjugate(base, u))
        base = companion((1, 0, 0, c))
        for u in (IntMatrix.identity(3), _shear(3, 0, 2, 1), _shear(3, 2, 1, -1)):
            matrices.append(_conjugate(base, u))
    rnd = random.Random(8)
    db4 = daubechies4_1d()
    for m in matrices:
        filt = transfer(db4, DilationMatrix.from_matrix(m)).target_filter
        levels = {1: 8, 2: 6, 3: 4}[m.dim]
        yield filt, levels
        taps = {n: complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for n in filt.coeffs}
        yield Filter.from_coeffs(filt.matrix, taps), levels
    for c in (2, -2):
        dil = DilationMatrix.from_matrix(companion((1, 0, 0, 0, c)))
        yield transfer(db4, dil).target_filter, 4


def test_centre_digits_match_the_former_widened_scan():
    """Scanning only the integer box of A [0,1]^d finds the digits that the
    former scan of that box widened by 1 found, on the bundled matrices and
    on seeded random expansive matrices in d = 1-4."""
    matrices = [make() for make in BUNDLED_MATRICES.values()]
    for matrix in matrices + _expansive_matrices(random.Random(19), per_dim=10):
        assert _centre_digits(matrix) == reference_centre_digits(matrix), matrix.A.rows


def test_level_difference_matches_reference():
    """The closed-form samples A i + S reproduce the former bounding-box scan
    bit for bit, and translate_gram its former per-shift sort."""
    for filt, levels in _differential_filters():
        digits = _centre_digits(filt.matrix)
        assert digits == reference_centre_digits(filt.matrix)
        assert len(digits) == 2
        assert sorted(in_dilated_lattice(filt.matrix, s) for s in digits) == [False, True]
        grid = initial_grid(filt.matrix)
        for _ in range(levels):
            nxt = cascade_step(grid, filt)
            got = level_difference(grid, nxt)
            want = reference_level_difference(grid, nxt)
            assert got == want and repr(got) == repr(want)
            grid = nxt
        window = [(0,) * filt.dim, filt.matrix.coset_rep, filt.matrix.A.rows[0]]
        assert translate_gram(grid, window) == reference_translate_gram(grid, window)
