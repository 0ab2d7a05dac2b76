"""Exact integer linear algebra: SNF, expansiveness, lattice membership."""

import random

import numpy as np
import pytest

from latwav.errors import DimensionMismatchError, NotDyadicError, NotExpansiveError
from latwav.intlat import (
    DilationMatrix,
    IntMatrix,
    as_point,
    coset_representative,
    from_adapted,
    in_dilated_lattice,
    in_dilated_lattice_exact,
    is_expansive,
    smith_normal_form,
    to_adapted,
)
from util import (
    _reference_det,
    companion,
    float_is_expansive,
    lattice_window,
    random_dyadic_matrices,
    random_expansive_conjugate,
    reference_adjugate,
    reference_charpoly,
    reference_smith_normal_form,
)

QUINCUNX = [[1, 1], [-1, 1]]
ANTIDIAG = [[0, 2], [1, 0]]


def assert_snf_postconditions(m: IntMatrix):
    snf = smith_normal_form(m)
    assert snf.product() == m
    assert snf.U.det() in (1, -1)
    assert snf.V.det() in (1, -1)
    d = m.dim
    for i in range(d):
        for j in range(d):
            expected = 0
            if i == j:
                expected = 2 if i == d - 1 else 1
            assert snf.D.rows[i][j] == expected


def test_snf_one_dimensional():
    snf = smith_normal_form(IntMatrix([[2]]))
    assert snf.U.rows == ((1,),)
    assert snf.D.rows == ((2,),)
    assert snf.V.rows == ((1,),)


def test_snf_quincunx():
    assert_snf_postconditions(IntMatrix(QUINCUNX))


def test_snf_antidiagonal():
    assert_snf_postconditions(IntMatrix(ANTIDIAG))


def test_snf_rejects_non_dyadic():
    with pytest.raises(NotDyadicError):
        smith_normal_form(IntMatrix([[3]]))
    with pytest.raises(NotDyadicError):
        smith_normal_form(IntMatrix([[1, 0], [0, 4]]))


@pytest.mark.parametrize("rows, det", [
    ([[0]], 0),
    ([[1, 2], [2, 4]], 0),
    ([[1, 2, 3], [4, 5, 6], [7, 8, 9]], 0),
    ([[2, 0], [0, 2]], 4),
    ([[0, 1], [-4, 0]], 4),
    ([[1, 0, 0], [0, -1, 0], [0, 0, 4]], -4),
    ([[2, 1], [1, 2]], 3),
], ids=["singular_1d", "singular_2d", "singular_3d", "twice_identity", "det_4_rotation",
        "det_minus_4", "det_3"])
def test_snf_refuses_by_its_invariant_factors(rows, det):
    """A singular matrix leaves a zero block and a non-dyadic one pivots
    other than 1, ..., 1, 2: either way the one refusal names det A."""
    with pytest.raises(NotDyadicError) as raised:
        smith_normal_form(IntMatrix(rows))
    assert type(raised.value) is NotDyadicError
    assert str(raised.value) == f"determinant is {det}, expected +/-2"


def test_snf_deterministic():
    m = IntMatrix([[3, 5], [4, 6]])  # det = -2
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second


def test_snf_huge_entries_stay_exact():
    # determinant 2 with ~1e9 entries; arbitrary-precision arithmetic only
    a = 10**9 + 7
    m = IntMatrix([[a, a - 2], [1, 1]])
    assert m.det() == 2
    assert_snf_postconditions(m)


def test_snf_random_sweep():
    rng = np.random.default_rng(101)
    for dim in (2, 3, 4):
        for m in random_dyadic_matrices(rng, dim, 10):
            assert_snf_postconditions(m)


def test_expansive_examples():
    assert is_expansive(IntMatrix([[2]]))
    assert is_expansive(IntMatrix(QUINCUNX))
    assert is_expansive(IntMatrix(ANTIDIAG))
    assert is_expansive(IntMatrix([[0, 0, -2], [1, 0, 0], [0, 1, 0]]))
    # eigenvalue exactly 1 (triangular): certified false, not inconclusive
    assert not is_expansive(IntMatrix([[1, 1], [0, 2]]))
    # eigenvalue inside the unit circle (golden ratio companion)
    assert not is_expansive(IntMatrix([[1, 1], [1, 0]]))
    # rotation by 90 degrees: both eigenvalues exactly on the circle
    assert not is_expansive(IntMatrix([[0, -1], [1, 0]]))


def test_expansive_matches_float_oracle_on_random_matrices():
    """Exact Schur-Cohn answer == float-root answer wherever the float oracle
    is conclusive, on random integer matrices of dimension 1-5."""
    rng = np.random.default_rng(20261017)
    conclusive = {True: 0, False: 0}
    for dim in (1, 2, 3, 4, 5):
        for _ in range(300):
            m = IntMatrix(rng.integers(-4, 5, size=(dim, dim)).tolist())
            expected = float_is_expansive(m)
            if expected is None:
                continue
            conclusive[expected] += 1
            assert is_expansive(m) == expected, m.rows
        for m in random_dyadic_matrices(rng, dim, 20):
            expected = float_is_expansive(m)
            if expected is not None:
                conclusive[expected] += 1
                assert is_expansive(m) == expected, m.rows
    assert min(conclusive.values()) >= 100  # both answers well exercised


def test_unit_circle_eigenvalues_decided_exactly():
    """Companions of (x^4 + 1)(x - 2), Phi_5(x)(x - 2) and Phi_12(x)(x + 2):
    eigenvalues on the unit circle that the float oracle cannot decide; the
    exact test says "not expansive"."""
    for poly in ((1, -2, 0, 0, 1, -2), (1, -1, -1, -1, -1, -2), (1, 2, -1, -2, 1, 2)):
        m = companion(poly)
        assert m.charpoly() == poly
        assert abs(m.det()) == 2
        assert float_is_expansive(m) is None
        assert is_expansive(m) is False
        with pytest.raises(NotExpansiveError):
            DilationMatrix.from_matrix(m)


def test_quincunx_charpoly():
    # eigenvalues 1 +/- i: lambda^2 - 2 lambda + 2
    assert IntMatrix(QUINCUNX).charpoly() == (1, -2, 2)


def test_dilation_matrix_rejects_non_expansive():
    with pytest.raises(NotExpansiveError):
        DilationMatrix.from_matrix([[1, 1], [0, 2]])


def test_membership_quincunx_examples():
    dil = DilationMatrix.from_matrix(QUINCUNX)
    assert in_dilated_lattice(dil, (1, 1))  # A(0,1) = (1,1)
    assert not in_dilated_lattice(dil, (1, 0))  # A x = (1,0) has x = (1/2, 1/2)
    assert in_dilated_lattice(dil, (0, 0))
    with pytest.raises(DimensionMismatchError):
        in_dilated_lattice(dil, (1, 0, 0))


def test_coset_representative_outside_lattice():
    for rows in (QUINCUNX, ANTIDIAG, [[0, 0, -2], [1, 0, 0], [0, 1, 0]]):
        dil = DilationMatrix.from_matrix(rows)
        assert dil.coset_rep == coset_representative(dil.snf)
        assert not in_dilated_lattice(dil, dil.coset_rep)
        d = dil.dim
        e_last = (0,) * (d - 1) + (1,)
        assert from_adapted(dil, e_last) == dil.coset_rep


def test_adapted_chart_identity_case():
    dil = DilationMatrix.from_matrix([[2]])
    assert to_adapted(dil, (5,)) == (5,)
    assert from_adapted(dil, (-3,)) == (-3,)


def test_adapted_chart_refuses_a_point_of_another_dimension():
    """``IntMatrix.vec`` makes the one dimension check of both directions."""
    dil = DilationMatrix.from_matrix(QUINCUNX)
    for chart in (to_adapted, from_adapted):
        with pytest.raises(DimensionMismatchError,
                           match=r"^point \(1,\) has dimension 1, expected 2$"):
            chart(dil, (1,))


def test_adapted_round_trip_random():
    rnd = random.Random(7)
    for rows in (QUINCUNX, ANTIDIAG, [[0, 0, -2], [1, 0, 0], [0, 1, 0]]):
        dil = DilationMatrix.from_matrix(rows)
        d = dil.dim
        for _ in range(1000):
            p = tuple(rnd.randint(-10**6, 10**6) for _ in range(d))
            assert from_adapted(dil, to_adapted(dil, p)) == p
            assert to_adapted(dil, from_adapted(dil, p)) == p


def test_partition_and_chart_window():
    """Exactly one of p, p - coset_rep lies in A*Z^d; membership reads off
    the parity of the last adapted coordinate."""
    for rows in (QUINCUNX, ANTIDIAG):
        dil = DilationMatrix.from_matrix(rows)
        rep = dil.coset_rep
        for p in lattice_window(2, 8):
            shifted = tuple(a - b for a, b in zip(p, rep))
            member = in_dilated_lattice(dil, p)
            assert member != in_dilated_lattice(dil, shifted)
            assert member == (to_adapted(dil, p)[-1] % 2 == 0)


def test_membership_routes_cross_checked_on_random_dyadic():
    rng = np.random.default_rng(55)
    rnd = random.Random(55)
    for dim in (2, 3):
        for m in random_dyadic_matrices(rng, dim, 4):
            snf = smith_normal_form(m)
            u_inv = snf.U.unimodular_inverse()
            for _ in range(100):
                p = tuple(rnd.randint(-20, 20) for _ in range(dim))
                # raises internally if the rational-solve and parity routes split
                in_dilated_lattice_exact(m, u_inv, p)


def test_held_det_and_adjugate_match_the_exact_membership_oracle():
    """A DilationMatrix keeps det(A) and adj(A) from its one charpoly run:
    they equal the Bareiss determinant and the cofactor adjugate, and
    in_dilated_lattice decides as in_dilated_lattice_exact, which computes
    both afresh, on random points in d = 1-4."""
    rnd = random.Random(17)
    for dim in (1, 2, 3, 4):
        for _ in range(25):
            a = random_expansive_conjugate(rnd, dim)
            dil = DilationMatrix.from_matrix(a)
            assert dil.det == _reference_det([list(r) for r in a.rows]) and abs(dil.det) == 2
            assert dil.adj == a.adjugate() == reference_adjugate(a)
            for bound in (3, 10**6):
                for _ in range(100):
                    p = tuple(rnd.randint(-bound, bound) for _ in range(dim))
                    assert in_dilated_lattice(dil, p) == in_dilated_lattice_exact(
                        a, dil.adapted_basis_inv, p), (a.rows, p)


def test_from_matrix_runs_each_exact_routine_once(monkeypatch):
    """Building a DilationMatrix runs the charpoly recursion once on A and
    never asks for its determinant, membership tests run neither again,
    and the Smith normal form of a dyadic A runs neither."""
    a = IntMatrix([[0, 0, -2], [1, 0, 0], [0, 1, 0]])
    calls = []

    def counted(name):
        original = getattr(IntMatrix, name)

        def wrapper(self):
            if self == a:
                calls.append(name)
            return original(self)
        return wrapper

    for name in ("_leverrier", "det"):
        monkeypatch.setattr(IntMatrix, name, counted(name))
    dil = DilationMatrix.from_matrix(a)
    for p in lattice_window(3, 2):
        in_dilated_lattice(dil, p)
    assert sorted(calls) == ["_leverrier"]
    calls.clear()
    smith_normal_form(a)
    assert calls == []


def test_matrix_power_and_adjugate():
    m = IntMatrix(QUINCUNX)
    assert m.power(0) == IntMatrix.identity(2)
    assert m.power(3) == m.mul(m).mul(m)
    adj = m.adjugate()
    prod = m.mul(adj)
    assert prod == IntMatrix([[2, 0], [0, 2]])  # det * I


def _unimodular(rnd, d: int, steps: int, scale: int) -> IntMatrix:
    """A product of `steps` elementary row additions with multipliers up to
    `scale` in absolute value, and a random sign: determinant +/-1."""
    rows = [[int(i == j) for j in range(d)] for i in range(d)]
    rows[0][0] = rnd.choice((1, -1))
    for _ in range(steps if d > 1 else 0):
        i, j = rnd.sample(range(d), 2)
        q = rnd.choice((-1, 1)) * rnd.randint(1, scale)
        rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix(rows)


def _det_two(rnd, d: int, steps: int, scale: int) -> IntMatrix:
    """U * diag(1, ..., 1, +/-2) * V with random unimodular U and V."""
    diag = IntMatrix(
        [[(rnd.choice((2, -2)) if i == d - 1 else 1) if i == j else 0 for j in range(d)]
         for i in range(d)]
    )
    return _unimodular(rnd, d, steps, scale).mul(diag).mul(_unimodular(rnd, d, steps, scale))


def _oracle_sample(rnd, d: int, kind: int) -> IntMatrix:
    """Singular, unimodular, det +/-2 (small and large entries) and plain
    random matrices, by `kind` modulo 6."""
    kind %= 6
    if kind == 0:
        return IntMatrix([[rnd.randint(-4, 4) for _ in range(d)] for _ in range(d)])
    if kind == 1:  # singular: one row is an integer combination of two others
        rows = [[rnd.randint(-6, 6) for _ in range(d)] for _ in range(d)]
        i, j, k = (rnd.randrange(d) for _ in range(3))
        p, q = rnd.randint(-3, 3), rnd.randint(-3, 3)
        rows[i] = [p * x + q * y for x, y in zip(rows[j], rows[k])]
        return IntMatrix(rows)
    if kind == 2:
        return _unimodular(rnd, d, 2 * d, 3)
    if kind == 5:  # large entries: up to about 2^40 before the product
        if rnd.random() < 0.5:
            return IntMatrix(
                [[rnd.randint(-2**40, 2**40) for _ in range(d)] for _ in range(d)]
            )
        return _det_two(rnd, d, 3 * d, 1000)
    return _det_two(rnd, d, 2 * d, 2)


def test_adjugate_charpoly_det_and_snf_match_oracles():
    """The adjugate and charpoly of one charpoly-recursion run and the
    one-routine SNF are == to the former implementations on 10,200 seeded
    matrices in d = 1-6; the run's det equals the Bareiss oracle's, and
    A * adj(A) = det(A) * I."""
    rnd = random.Random(13)
    factored = 0
    for d in range(1, 7):
        for kind in range(1700):
            m = _oracle_sample(rnd, d, kind)
            charpoly, det, adj = m._leverrier()
            assert det == _reference_det([list(row) for row in m.rows]), m.rows
            assert adj == reference_adjugate(m), m.rows
            assert charpoly == reference_charpoly(m), m.rows
            assert m.mul(adj).rows == tuple(
                tuple(det * (i == j) for j in range(d)) for i in range(d)
            ), m.rows
            if det in (1, -1):
                assert m.mul(m.unimodular_inverse()) == IntMatrix.identity(d)
            if abs(det) == 2:
                factored += 1
                assert smith_normal_form(m) == reference_smith_normal_form(m), m.rows
    assert factored >= 4000


def test_snf_and_adjugate_match_oracles_on_huge_entries_and_in_32_dimensions():
    a = 10**9 + 7
    huge = IntMatrix([[a, a - 2], [1, 1]])
    big = _det_two(random.Random(32), 32, 40, 2)
    for m in (huge, big):
        assert smith_normal_form(m) == reference_smith_normal_form(m)
    assert huge.adjugate() == reference_adjugate(huge)
    det = big.det()
    assert big.mul(big.adjugate()).rows == tuple(
        tuple(det * (i == j) for j in range(32)) for i in range(32)
    )


@pytest.mark.parametrize("call, error, message", [
    (lambda: as_point(()), DimensionMismatchError, "lattice points must have dimension >= 1"),
    (lambda: IntMatrix(()), DimensionMismatchError, "matrix must be square and non-empty"),
    (lambda: IntMatrix(((1, 2), (3,))), DimensionMismatchError,
     "matrix must be square and non-empty"),
    (lambda: IntMatrix([[2]]).mul(IntMatrix.identity(2)), DimensionMismatchError,
     "matrix dimensions differ"),
    (lambda: IntMatrix([[2]]).power(-1), ValueError,
     "negative matrix powers are not integral"),
    (lambda: IntMatrix(QUINCUNX).unimodular_inverse(), ValueError,
     "matrix with det 2 has no integer inverse"),
], ids=["zero_dim_point", "empty_matrix", "ragged_matrix", "product_dimensions",
        "negative_power", "det_2_inverse"])
def test_intlat_guards_pin_their_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
