"""Window encodings: injectivity, sign law, shift identities, additivity."""

import random
from itertools import product

import pytest

from latwav.encode import (
    EncodingParams,
    additivity_holds,
    decode_index,
    decode_support,
    encode_index,
    encode_support,
    flatten_point,
    in_index_window,
    in_support_window,
    radix_encode,
    window_exponent_for_extent,
)
from latwav.errors import DimensionTooSmallError, OutOfDomainError
from util import (
    WindowTooLargeError,
    enumerate_windows,
    flatten_order_key,
    index_decode_table,
    reference_decode_index,
    reference_decode_support,
    reference_radix_encode,
    support_decode_table,
)


def centered_window(d, n_exp):
    w = 1 << n_exp
    return product(range(1 - w, w), repeat=d)


def rightmost_nonzero(p):
    for c in reversed(p):
        if c != 0:
            return c
    return 0


def test_radix_examples():
    p21 = EncodingParams(2, 1)
    assert radix_encode(p21, (1, 1)) == 5
    assert radix_encode(p21, (0, 0)) == 0
    assert radix_encode(p21, (-1, 1)) == 3


def test_radix_injective_and_sign_law_exhaustive():
    for d in (1, 2, 3):
        for n_exp in (1, 2):
            params = EncodingParams(d, n_exp)
            seen = {}
            for p in centered_window(d, n_exp):
                v = radix_encode(params, p)
                assert v not in seen, (p, seen[v])
                seen[v] = p
                r = rightmost_nonzero(p)
                if r == 0:
                    assert v == 0
                elif r > 0:
                    assert v > 0
                else:
                    assert v < 0


def test_flatten_examples():
    p21 = EncodingParams(2, 1)
    assert p21.row_stride == 8
    assert flatten_point(p21, (1, 2)) == 10
    assert flatten_point(p21, (0, 0)) == 0
    assert [flatten_point(p21, p) for p in ((0, 0), (0, 1), (1, 0), (1, 1))] == [0, 1, 2, 3]


def test_flatten_requires_dim_two():
    with pytest.raises(DimensionTooSmallError):
        flatten_point(EncodingParams(1, 1), (0,))


def test_flatten_injective_on_window_exhaustive():
    for d in (2, 3):
        for n_exp in (1, 2):
            params = EncodingParams(d, n_exp)
            values = [flatten_point(params, p) for p in centered_window(d, n_exp)]
            assert len(values) == len(set(values))


def test_flatten_shift_identities_random():
    """flatten(x+z, y) - flatten(x, y) = 2*radix(z);
    flatten(x, y+2j) - flatten(x, y) = j*stride;
    flatten(x, y+1) - flatten(x, y) = 1 or stride - 1 by parity of y."""
    rnd = random.Random(31)
    for _ in range(2000):
        d = rnd.choice((2, 3))
        n_exp = rnd.choice((1, 2, 3))
        params = EncodingParams(d, n_exp)
        sub = EncodingParams(d - 1, n_exp)
        x = tuple(rnd.randint(-50, 50) for _ in range(d - 1))
        z = tuple(rnd.randint(-50, 50) for _ in range(d - 1))
        y = rnd.randint(-50, 50)
        j = rnd.randint(-50, 50)
        base = flatten_point(params, x + (y,))
        assert flatten_point(params, tuple(a + b for a, b in zip(x, z)) + (y,)) - base \
            == 2 * radix_encode(sub, z)
        assert flatten_point(params, x + (y + 2 * j,)) - base == j * params.row_stride
        step = flatten_point(params, x + (y + 1,)) - base
        assert step == (1 if y % 2 == 0 else params.row_stride - 1)


def test_support_window_membership_and_codes():
    p21 = EncodingParams(2, 1)
    assert in_support_window(p21, (1, 1))
    assert not in_support_window(p21, (2, 0))
    assert encode_support(p21, (1, 1)) == 3
    with pytest.raises(OutOfDomainError, match="coordinate 1 = 2"):
        encode_support(p21, (2, 0))
    with pytest.raises(OutOfDomainError, match="coordinate 2 = -1"):
        encode_support(p21, (0, -1))


def test_index_window_membership_and_codes():
    p21 = EncodingParams(2, 1)
    assert encode_index(p21, (1, 0)) == 2
    assert encode_index(p21, (0, 0)) == 0
    assert not in_index_window(p21, (0, 1))  # odd last coordinate
    assert not in_index_window(p21, (-1, 0))  # negative radix value
    assert not in_index_window(p21, (2, 0))  # outside the window
    with pytest.raises(OutOfDomainError, match="odd"):
        encode_index(p21, (0, 1))
    with pytest.raises(OutOfDomainError, match="negative"):
        encode_index(p21, (-1, 0))


def test_window_enumeration_small_case():
    win = enumerate_windows(EncodingParams(2, 1))
    assert set(win.support_points) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert win.index_points == ((0, 0), (1, 0))


def test_window_sizes_and_zero_membership():
    for d in (1, 2, 3):
        for n_exp in (1, 2):
            win = enumerate_windows(EncodingParams(d, n_exp))
            assert len(win.support_points) == 2 ** (d * n_exp)
            zero = (0,) * d
            assert zero in win.index_points
            assert all(k[-1] % 2 == 0 for k in win.index_points)


def test_window_budget():
    with pytest.raises(WindowTooLargeError):
        enumerate_windows(EncodingParams(3, 2), budget=10)


def test_support_image_contains_consecutive_integers():
    """The flattened support window always contains 0 .. 2^(N+1)-1, and its
    minimum (and the index window image's minimum) is 0."""
    for d in (2, 3):
        for n_exp in (1, 2):
            params = EncodingParams(d, n_exp)
            win = enumerate_windows(params)
            image = {encode_support(params, p) for p in win.support_points}
            assert min(image) == 0
            assert set(range(2 ** (n_exp + 1))) <= image
            index_image = {encode_index(params, k) for k in win.index_points}
            assert min(index_image) == 0
            assert all(v % 2 == 0 for v in index_image)


def test_additivity_exhaustive():
    for d in (1, 2, 3):
        for n_exp in (1, 2):
            params = EncodingParams(d, n_exp)
            win = enumerate_windows(params)
            for n in win.support_points:
                for k in win.index_points:
                    assert additivity_holds(params, n, k)


def test_additivity_spec_example():
    p21 = EncodingParams(2, 1)
    assert flatten_point(p21, (2, 1)) == 5
    assert encode_support(p21, (1, 1)) + encode_index(p21, (1, 0)) == 5
    assert additivity_holds(p21, (1, 1), (1, 0))


def test_one_dimensional_degenerate_case():
    params = EncodingParams(1, 2)
    win = enumerate_windows(params)
    assert win.support_points == ((0,), (1,), (2,), (3,))
    assert win.index_points == ((0,), (2,))
    assert encode_support(params, (3,)) == 3
    assert encode_index(params, (2,)) == 2
    assert additivity_holds(params, (1,), (2,))


def test_decode_tables_invert_encodings():
    for d in (1, 2, 3):
        params = EncodingParams(d, 2)
        dec = support_decode_table(params)
        for value, point in dec.items():
            assert encode_support(params, point) == value
        idec = index_decode_table(params)
        for value, point in idec.items():
            assert encode_index(params, point) == value


def test_direct_decoders_match_enumeration():
    """Radix decoding agrees with the enumerated inverse tables and rejects
    exactly the values outside the window images."""
    for d in (1, 2, 3):
        for n_exp in (1, 2):
            params = EncodingParams(d, n_exp)
            table = support_decode_table(params)
            itable = index_decode_table(params)
            top = max(max(table), max(itable)) + 50
            for value in range(-5, top):
                assert decode_support(params, value) == table.get(value)
                assert decode_index(params, value) == itable.get(value)


def test_direct_decoders_large_window():
    # far beyond any enumerable window: decode stays cheap and exact
    params = EncodingParams(4, 12)
    k = (3000, -4091, 17, 2048)
    assert decode_index(params, encode_index(params, k)) == k
    n = (4095, 0, 1, 4095)
    assert decode_support(params, encode_support(params, n)) == n


def window_codes(params):
    """Every code of the support window and of the index window, built from
    the radix values of the first d - 1 coordinates and the last one."""
    d, w, stride = params.dim, params.window, params.row_stride
    top = 1 << 2 * params.window_exponent * (d - 1)  # radix weight of the last coordinate
    sup = [radix_encode(params, x + (0,)) for x in product(range(w), repeat=d - 1)]
    cen = [radix_encode(params, x + (0,)) for x in product(range(1 - w, w), repeat=d - 1)]
    support = [(y // 2) * stride + 2 * s + (y & 1) for y in range(w) for s in sup]
    index = [j * stride + 2 * s for j in range(-((w - 1) // 2), (w + 1) // 2)
             for s in cen if 2 * j * top + s >= 0]
    return support, index


def test_decoders_match_former_decoders_on_full_windows():
    """The balanced decoders agree with the former two-candidate decoders on
    every code of both windows in d, N = 1-4; on windows of up to 2^12
    support points, both decoders also agree next to each code."""
    for d in range(1, 5):
        for n_exp in range(1, 5):
            params = EncodingParams(d, n_exp)
            support, index = window_codes(params)
            for v in support:
                assert decode_support(params, v) == reference_decode_support(params, v)
            for v in index:
                assert decode_index(params, v) == reference_decode_index(params, v)
            if params.window ** d > 1 << 12:
                continue
            win = enumerate_windows(params)
            assert sorted(support) == sorted(encode_support(params, n) for n in win.support_points)
            assert sorted(index) == sorted(encode_index(params, k) for k in win.index_points)
            for v in {u + s for u in support + index for s in (-2, -1, 1, 2)}:
                assert decode_support(params, v) == reference_decode_support(params, v)
                assert decode_index(params, v) == reference_decode_index(params, v)


def test_radix_and_decoders_match_former_code_on_random_values():
    """Random values in d = 1-5 with N up to 8, and at N = 20 and 64: codes
    of random window points and their neighbours, values off the window,
    negative values, and radix values of points inside and outside it."""
    rng = random.Random(14)
    for _ in range(12000):
        params = EncodingParams(rng.randint(1, 5), rng.choice((1, 2, 3, 4, 5, 8, 20, 64)))
        d, w, stride = params.dim, params.window, params.row_stride
        n = tuple(rng.randrange(w) for _ in range(d))
        k = tuple(rng.randrange(1 - w, w) for _ in range(d - 1)) \
            + (2 * rng.randrange(1 - w // 2, w // 2),)
        if radix_encode(params, k) < 0:
            k = tuple(-c for c in k)
        far = tuple(rng.randrange(-4 * w, 4 * w) for _ in range(d))
        assert radix_encode(params, far) == reference_radix_encode(params, far)
        assert radix_encode(params, k) == reference_radix_encode(params, k)
        values = (
            encode_support(params, n) + rng.randint(-2, 2),
            encode_index(params, k) + rng.choice((0, 0, 1, 2, -2, stride, -stride, stride // 2)),
            rng.randrange(-stride * (w + 2), stride * (w + 2)),
            rng.getrandbits(rng.randint(1, (2 * d * params.window_exponent) + 4)),
        )
        for v in values:
            assert decode_support(params, v) == reference_decode_support(params, v)
            assert decode_index(params, v) == reference_decode_index(params, v)


def test_flatten_order_key_matches_encoding_order():
    """Sorting window points by the N-free key equals sorting by the encoded
    value, for every window exponent."""
    for d in (1, 2, 3):
        for n_exp in (1, 2, 3):
            params = EncodingParams(d, n_exp)
            pts = list(product(range(1 << n_exp), repeat=d))
            by_key = sorted(pts, key=flatten_order_key)
            by_value = sorted(pts, key=lambda p: encode_support(params, p))
            assert by_key == by_value


def test_window_exponent_for_extent():
    assert window_exponent_for_extent(0) == 1
    assert window_exponent_for_extent(1) == 1
    assert window_exponent_for_extent(2) == 2
    assert window_exponent_for_extent(3) == 2
    assert window_exponent_for_extent(4) == 3
    assert window_exponent_for_extent(15) == 4
    with pytest.raises(ValueError) as raised:
        window_exponent_for_extent(-1)
    assert type(raised.value) is ValueError and str(raised.value) == "extent must be nonnegative"
