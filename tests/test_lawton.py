"""Reduced systems and canonical index sets against brute-force oracles."""

import random

import numpy as np
import pytest

from latwav.encode import EncodingParams, radix_encode
from latwav.errors import DimensionMismatchError, DomainMismatchError, NotSubsetError
from latwav.filters import (
    antidiagonal_matrix,
    companion_3d_matrix,
    dilation_1d,
    quincunx_matrix,
)
from latwav.intlat import DilationMatrix, from_adapted, in_dilated_lattice, to_adapted
from latwav.lawton import (
    Filter,
    SupportSet,
    _chart,
    build_reduced_system,
    equations_equal_up_to_conjugation,
    restrict_index_set,
)
from util import (
    NotInLatticeError,
    enumerate_windows,
    generated_equation,
    lattice_chart,
    random_dyadic_matrices,
    reference_build_reduced_system,
    reference_chart,
)


def brute_force_generators(support: SupportSet, dil: DilationMatrix):
    """All k in (L - L) that lie in A*Z^d; every one generates a non-trivial
    equation because it is a difference of support points."""
    diffs = {
        tuple(b - a for a, b in zip(p, q))
        for p in support.points
        for q in support.points
    }
    return {k for k in diffs if in_dilated_lattice(dil, k)}


def test_generated_equation_examples():
    support = SupportSet.from_points([(0,), (1,)])
    assert generated_equation(support, dilation_1d(), (2,)) is None

    support4 = SupportSet.from_points([(0,), (1,), (2,), (3,)])
    eq = generated_equation(support4, dilation_1d(), (2,))
    assert set(eq.pairs) == {((0,), (2,)), ((1,), (3,))}
    assert eq.rhs == 0

    zero = generated_equation(support4, dilation_1d(), (0,))
    assert set(zero.pairs) == {((n,), (n,)) for n in range(4)}
    assert zero.rhs == 1


def test_generated_equation_rejects_outside_lattice():
    support = SupportSet.from_points([(0, 0), (1, 0)])
    with pytest.raises(NotInLatticeError):
        generated_equation(support, quincunx_matrix(), (1, 0))


def test_conjugation_equality():
    support = SupportSet.from_points([(0,), (1,), (2,), (3,)])
    dil = dilation_1d()
    plus = generated_equation(support, dil, (2,))
    minus = generated_equation(support, dil, (-2,))
    assert equations_equal_up_to_conjugation(plus, minus)
    assert equations_equal_up_to_conjugation(plus, plus)
    zero = generated_equation(support, dil, (0,))
    assert not equations_equal_up_to_conjugation(plus, zero)


def test_build_two_point_quincunx_support():
    # (+-1, 0) is not in the quincunx lattice, so only the zero generator remains
    system = build_reduced_system(
        SupportSet.from_points([(0, 0), (1, 0)]), quincunx_matrix()
    )
    assert system.index_set == ((0, 0),)


def test_build_unit_square_quincunx():
    system = build_reduced_system(
        SupportSet.from_points([(0, 0), (0, 1), (1, 0), (1, 1)]), quincunx_matrix()
    )
    assert set(system.index_set) == {(0, 0), (1, 1), (1, -1)}
    assert system.index_set[0] == (0, 0)
    assert system.equations[(1, 1)].pairs == (((0, 0), (1, 1)),)
    assert system.equations[(1, -1)].pairs == (((0, 1), (1, 0)),)
    assert system.equations[(0, 0)].rhs == 1


def test_build_four_point_line():
    system = build_reduced_system(
        SupportSet.from_points([(0,), (1,), (2,), (3,)]), dilation_1d()
    )
    assert system.index_set == ((0,), (2,))
    assert set(system.equations[(2,)].pairs) == {((0,), (2,)), ((1,), (3,))}


def index_set_is_valid(system, support, dil):
    """The three index-set conditions, checked by brute force:
    every listed generator is non-trivial; no two generate the same equation;
    every non-trivial generator is represented by itself or its negation."""
    gens = brute_force_generators(support, dil)
    listed = set(system.index_set)
    if not listed <= gens:
        return False
    eqs = [generated_equation(support, dil, k) for k in system.index_set]
    for i, e1 in enumerate(eqs):
        for e2 in eqs[i + 1:]:
            if equations_equal_up_to_conjugation(e1, e2):
                return False
    for k in gens:
        neg = tuple(-c for c in k)
        if (k in listed) == (neg in listed) and k != (0,) * len(k) and k != neg:
            return False
        if k not in listed and neg not in listed:
            return False
    return True


def test_index_set_brute_force_random_supports():
    rnd = random.Random(2024)
    cases = [
        (dilation_1d(), 1),
        (quincunx_matrix(), 2),
        (antidiagonal_matrix(), 2),
        (companion_3d_matrix(), 3),
    ]
    for dil, d in cases:
        for _ in range(25):
            size = rnd.randint(1, 8)
            pts = {tuple(rnd.randint(-4, 4) for _ in range(d)) for _ in range(size)}
            support = SupportSet.from_points(pts)
            system = build_reduced_system(support, dil)
            assert index_set_is_valid(system, support, dil)
            # deterministic rebuild
            assert build_reduced_system(support, dil) == system


def test_index_set_ordering_zero_first_and_sorted():
    dil = quincunx_matrix()
    support = SupportSet.from_points(
        [(0, 0), (2, 0), (1, 1), (-1, 1), (0, 2), (3, 1)]
    )
    system = build_reduced_system(support, dil)
    assert system.index_set[0] == (0, 0)
    params = EncodingParams(2, system.window_exponent)
    values = [radix_encode(params, to_adapted(dil, k)) for k in system.index_set]
    assert values == sorted(values)
    assert all(v >= 0 for v in values)


def test_restrict_index_set_examples():
    parent_support = SupportSet.from_points([(0,), (1,), (2,), (3,)])
    parent = build_reduced_system(parent_support, dilation_1d())
    assert restrict_index_set(parent, parent_support) == parent.index_set
    assert restrict_index_set(parent, SupportSet.from_points([(0,), (1,)])) == ((0,),)

    square = SupportSet.from_points([(0, 0), (0, 1), (1, 0), (1, 1)])
    parent_q = build_reduced_system(square, quincunx_matrix())
    sub = SupportSet.from_points([(0, 0), (1, 1)])
    assert set(restrict_index_set(parent_q, sub)) == {(0, 0), (1, 1)}

    with pytest.raises(NotSubsetError):
        restrict_index_set(parent, SupportSet.from_points([(7,)]))


def test_restrict_matches_direct_build():
    """The restriction of the parent index set is an index set for the
    sub-support's own system (same generators up to canonical sign)."""
    rnd = random.Random(9)
    dil = quincunx_matrix()
    for _ in range(20):
        pts = {tuple(rnd.randint(0, 3) for _ in range(2)) for _ in range(rnd.randint(2, 10))}
        support = SupportSet.from_points(pts)
        parent = build_reduced_system(support, dil)
        sub_pts = set(rnd.sample(sorted(pts), rnd.randint(1, len(pts))))
        sub = SupportSet.from_points(sub_pts)
        restricted = restrict_index_set(parent, sub)
        direct = build_reduced_system(sub, dil)
        assert index_set_is_valid(direct, sub, dil)
        # the restricted set indexes the same equations, bijectively
        assert len(restricted) == len(direct.index_set)
        matches = {}
        for k in restricted:
            e1 = generated_equation(sub, dil, k)
            hits = [
                k2 for k2 in direct.index_set
                if equations_equal_up_to_conjugation(e1, direct.equations[k2])
            ]
            assert len(hits) == 1
            matches[k] = hits[0]
        assert len(set(matches.values())) == len(direct.index_set)


def test_window_support_index_set_matches_index_window():
    """Cross-module oracle: building the system on the image of the support
    window reproduces the encoding module's index window in the chart."""
    for dil in (quincunx_matrix(), antidiagonal_matrix()):
        for n_exp in (1, 2):
            params = EncodingParams(2, n_exp)
            win = enumerate_windows(params)
            support = SupportSet.from_points(
                from_adapted(dil, c) for c in win.support_points
            )
            system = build_reduced_system(support, dil)
            chart_index = {to_adapted(dil, k) for k in system.index_set}
            assert chart_index == set(win.index_points)
            assert system.window_exponent == n_exp


def test_canonical_sign_independent_of_window_size():
    """The sign rule picks the same representative whichever admissible
    window exponent is used: the radix sign only depends on the rightmost
    nonzero adapted coordinate."""
    rnd = random.Random(123)
    for dil in (quincunx_matrix(), antidiagonal_matrix(), companion_3d_matrix()):
        d = dil.dim
        for _ in range(10):
            pts = {tuple(rnd.randint(-4, 4) for _ in range(d)) for _ in range(6)}
            support = SupportSet.from_points(pts)
            system = build_reduced_system(support, dil)
            for extra in (1, 2, 3):
                params = EncodingParams(d, system.window_exponent + extra)
                for k in system.index_set:
                    assert radix_encode(params, to_adapted(dil, k)) >= 0


def test_support_order_is_flattening_order():
    dil = quincunx_matrix()
    params = EncodingParams(2, 1)
    win = enumerate_windows(params)
    support = SupportSet.from_points(from_adapted(dil, c) for c in win.support_points)
    system = build_reduced_system(support, dil)
    adapted_order = [to_adapted(dil, p) for p in system.support_order]
    assert adapted_order == list(win.support_points)


def assert_same_system(got, want):
    assert got.index_set == want.index_set
    assert list(got.equations) == list(want.equations)
    for k in want.index_set:
        assert got.equations[k].pairs == want.equations[k].pairs, k
        assert got.equations[k].rhs == want.equations[k].rhs, k
    assert got.support_order == want.support_order
    assert got.window_exponent == want.window_exponent
    assert got == want


def test_one_pass_build_matches_reference_build():
    """Differential test against the former two-stage build: the same index
    set, equation order, pair order, support order, window exponent and
    chart, on random lattices in d = 1-4 and the bundled matrices, with
    random supports that are dense or sparse and translated anywhere
    (negative coordinates included)."""
    rng = np.random.default_rng(31)
    lattices = [lattice_chart(m) for d, count in ((1, 60), (2, 100), (3, 100), (4, 60))
                for m in random_dyadic_matrices(rng, d, count)]
    lattices += [dil for dil in (dilation_1d(), quincunx_matrix(), antidiagonal_matrix(),
                                 companion_3d_matrix()) for _ in range(10)]
    for dil in lattices:
        size = int(rng.integers(1, 41))
        span = int(rng.integers(1, 4)) if rng.random() < 0.5 else int(rng.integers(4, 40))
        offset = rng.integers(-60, 61, size=dil.dim)
        pts = {tuple(int(x) for x in rng.integers(0, span + 1, size=dil.dim) + offset)
               for _ in range(size)}
        support = SupportSet.from_points(pts)
        assert_same_system(build_reduced_system(support, dil),
                           reference_build_reduced_system(support, dil))
        assert _chart(support, dil) == reference_chart(support, dil)
    assert len(lattices) == 360


@pytest.mark.parametrize("call, error, message", [
    (lambda: build_reduced_system(SupportSet.from_points([(0, 0)]), dilation_1d()),
     DimensionMismatchError, "support and matrix dimensions differ"),
    (lambda: SupportSet.from_points([]), ValueError, "support must be non-empty"),
    (lambda: SupportSet.from_points([(0,), (0, 1)]),
     DimensionMismatchError, "mixed dimensions in support: [1, 2]"),
    (lambda: Filter.from_coeffs(quincunx_matrix(), {(0,): 1.0}),
     DomainMismatchError, "coefficient at (0,) has dimension 1, matrix is 2x2"),
    (lambda: Filter.from_coeffs(dilation_1d(), {(0,): "1"}),
     TypeError, "coefficient at (0,) is not a number: '1'"),
    (lambda: Filter.from_coeffs(dilation_1d(), {}), ValueError, "filter support is empty"),
], ids=["build", "empty_support", "mixed_support", "filter_dimension",
        "filter_value", "empty_filter"])
def test_library_guards_pin_their_message(call, error, message):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error and str(raised.value) == message
