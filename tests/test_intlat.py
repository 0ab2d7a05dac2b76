"""Exact integer linear algebra: SNF, expansiveness, lattice membership."""

import random

import numpy as np
import pytest

from latwav.errors import DimensionMismatchError, NotDyadicError, NotExpansiveError
from latwav.intlat import (
    DilationMatrix,
    IntMatrix,
    coset_representative,
    from_adapted,
    in_dilated_lattice,
    in_dilated_lattice_exact,
    is_expansive,
    smith_normal_form,
    to_adapted,
)
from util import companion, float_is_expansive, lattice_window, random_dyadic_matrices

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
    snf = smith_normal_form(IntMatrix.from_rows([[2]]))
    assert snf.U.rows == ((1,),)
    assert snf.D.rows == ((2,),)
    assert snf.V.rows == ((1,),)


def test_snf_quincunx():
    assert_snf_postconditions(IntMatrix.from_rows(QUINCUNX))


def test_snf_antidiagonal():
    assert_snf_postconditions(IntMatrix.from_rows(ANTIDIAG))


def test_snf_rejects_non_dyadic():
    with pytest.raises(NotDyadicError):
        smith_normal_form(IntMatrix.from_rows([[3]]))
    with pytest.raises(NotDyadicError):
        smith_normal_form(IntMatrix.from_rows([[1, 0], [0, 4]]))


def test_snf_deterministic():
    m = IntMatrix.from_rows([[3, 5], [4, 6]])  # det = -2
    first = smith_normal_form(m)
    second = smith_normal_form(m)
    assert first == second


def test_snf_huge_entries_stay_exact():
    # determinant 2 with ~1e9 entries; arbitrary-precision arithmetic only
    a = 10**9 + 7
    m = IntMatrix.from_rows([[a, a - 2], [1, 1]])
    assert m.det() == 2
    assert_snf_postconditions(m)


def test_snf_random_sweep():
    rng = np.random.default_rng(101)
    for dim in (2, 3, 4):
        for m in random_dyadic_matrices(rng, dim, 10):
            assert_snf_postconditions(m)


def test_expansive_examples():
    assert is_expansive(IntMatrix.from_rows([[2]]))
    assert is_expansive(IntMatrix.from_rows(QUINCUNX))
    assert is_expansive(IntMatrix.from_rows(ANTIDIAG))
    assert is_expansive(IntMatrix.from_rows([[0, 0, -2], [1, 0, 0], [0, 1, 0]]))
    # eigenvalue exactly 1 (triangular): certified false, not inconclusive
    assert not is_expansive(IntMatrix.from_rows([[1, 1], [0, 2]]))
    # eigenvalue inside the unit circle (golden ratio companion)
    assert not is_expansive(IntMatrix.from_rows([[1, 1], [1, 0]]))
    # rotation by 90 degrees: both eigenvalues exactly on the circle
    assert not is_expansive(IntMatrix.from_rows([[0, -1], [1, 0]]))


def test_expansive_matches_float_oracle_on_random_matrices():
    """Exact Schur-Cohn answer == float-root answer wherever the float oracle
    is conclusive, on random integer matrices of dimension 1-5."""
    rng = np.random.default_rng(20261017)
    conclusive = {True: 0, False: 0}
    for dim in (1, 2, 3, 4, 5):
        for _ in range(300):
            m = IntMatrix.from_rows(rng.integers(-4, 5, size=(dim, dim)).tolist())
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
    assert IntMatrix.from_rows(QUINCUNX).charpoly() == (1, -2, 2)


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


def test_matrix_power_and_adjugate():
    m = IntMatrix.from_rows(QUINCUNX)
    assert m.power(0) == IntMatrix.identity(2)
    assert m.power(3) == m.mul(m).mul(m)
    adj = m.adjugate()
    prod = m.mul(adj)
    assert prod == IntMatrix.from_rows([[2, 0], [0, 2]])  # det * I
