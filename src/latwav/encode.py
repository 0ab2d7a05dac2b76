"""Integer encodings that flatten lattice windows onto segments of Z.

All functions here operate on adapted-chart coordinates, i.e. they assume the
dilated lattice is exactly {(x, 2n)}.  Conversion from standard coordinates
happens in the transfer layer, never here.

For a window exponent N >= 1:

* ``radix_encode`` is the base-4^N positional value sum(n_j * 4^((j-1)N)).
  On the centered window (-2^N, 2^N)^d it is injective and its sign equals
  the sign of the rightmost nonzero coordinate.
* ``flatten_point`` maps (x, y) to floor(y/2)*2^((2d-3)N+2) +
  2*radix_encode(x) + (y odd), injective on the same window.
* ``encode_support`` / ``encode_index`` are flatten_point restricted to the
  support window [0, 2^N)^d and to the index window (even last coordinate,
  nonnegative radix value), with domain checks.

Dimension 1 runs through the same formula: the row stride is 2 there, so
the flattening is the identity on Z, the support window is [0, 2^N), the
index window the nonnegative even integers below 2^N, and one-dimensional
transfers reduce to shifts.  ``flatten_point`` itself requires d >= 2.

Every public function takes its points through ``intlat.as_point`` at the
dimension of its ``EncodingParams``, and its other integers through ``as_int``.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DimensionTooSmallError, OutOfDomainError, shown
from .intlat import LatticePoint, as_int, as_point, checked_make


class _EncodingParamsFields(NamedTuple):
    dim: int
    window_exponent: int


class EncodingParams(_EncodingParamsFields):
    """Dimension and window exponent fixing one family of encodings."""

    __slots__ = ()
    _make = classmethod(checked_make)

    def __new__(cls, dim, window_exponent):
        dim, window_exponent = as_int(dim), as_int(window_exponent)
        if dim < 1:
            raise DimensionTooSmallError("dimension must be >= 1")
        if window_exponent < 1:
            raise ValueError("window exponent must be >= 1")
        return tuple.__new__(cls, (dim, window_exponent))

    @property
    def window(self) -> int:
        """Half-open coordinate bound 2^N."""
        return 1 << self.window_exponent

    @property
    def row_stride(self) -> int:
        """Exact stride 2^((2d-3)N+2) separating even-coordinate rows; 2 at
        d = 1, where it makes the flattening the identity on Z."""
        return 1 << max(1, (2 * self.dim - 3) * self.window_exponent + 2)


def _radix(n_exp: int, x: LatticePoint) -> int:
    """sum(x_j * 4^((j-1)N)) by Horner steps of 2N bits."""
    v = 0
    for c in reversed(x):
        v = (v << 2 * n_exp) + c
    return v


def radix_encode(params: EncodingParams, n: LatticePoint) -> int:
    """Base-4^N positional value of n; total on Z^d, injective on the window."""
    return _radix(params.window_exponent, as_point(n, params.dim))


def _flatten(params: EncodingParams, p: LatticePoint) -> int:
    """floor(y/2)*stride + 2*radix_encode(x) + (y odd) for p = (x, y), in
    every dimension; the identity at d = 1."""
    y = p[-1]
    sigma = _radix(params.window_exponent, p[:-1])
    return (y // 2) * params.row_stride + 2 * sigma + (y & 1)


def flatten_point(params: EncodingParams, p: LatticePoint) -> int:
    """Flatten p = (x, y) to an integer; requires dimension >= 2."""
    if params.dim < 2:
        raise DimensionTooSmallError("flattening requires dimension >= 2")
    return _flatten(params, as_point(p, params.dim))


def _support_fault(params: EncodingParams, n: LatticePoint) -> str | None:
    """Why n is outside the support window [0, 2^N)^d, or None if inside."""
    w = params.window
    for j, c in enumerate(n):
        if not 0 <= c < w:
            return f"coordinate {j + 1} = {shown(c)} not in [0, {shown(w - 1)}]"
    return None


def _index_fault(params: EncodingParams, k: LatticePoint) -> str | None:
    """Why k is outside the index window (centered, even last coordinate,
    nonnegative radix value), or None if inside."""
    w = params.window
    for j, c in enumerate(k):
        if abs(c) >= w:
            return f"coordinate {j + 1} = {shown(c)} not in [{shown(1 - w)}, {shown(w - 1)}]"
    if k[-1] % 2 != 0:
        return f"last coordinate {shown(k[-1])} is odd"
    if _radix(params.window_exponent, k) < 0:
        return "radix value is negative"
    return None


def _checked(what: str, p: LatticePoint, fault: str | None) -> None:
    if fault is not None:
        raise OutOfDomainError(f"{shown(p)} is outside the {what} window: {fault}")


def in_support_window(params: EncodingParams, n: LatticePoint) -> bool:
    """Membership in [0, 2^N)^d."""
    return _support_fault(params, as_point(n, params.dim)) is None


def in_index_window(params: EncodingParams, k: LatticePoint) -> bool:
    """Membership in the index window: centered, even last coordinate,
    nonnegative radix value."""
    return _index_fault(params, as_point(k, params.dim)) is None


def encode_support(params: EncodingParams, n: LatticePoint) -> int:
    """Flattening restricted to the support window (checked)."""
    n = as_point(n, params.dim)
    _checked("support", n, _support_fault(params, n))
    return _flatten(params, n)


def encode_index(params: EncodingParams, k: LatticePoint) -> int:
    """Flattening restricted to the index window (checked)."""
    k = as_point(k, params.dim)
    _checked("index", k, _index_fault(params, k))
    return _flatten(params, k)


def additivity_holds(params: EncodingParams, n: LatticePoint, k: LatticePoint) -> bool:
    """Whether flatten(n + k) == encode_support(n) + encode_index(k)."""
    n, k = as_point(n, params.dim), as_point(k, params.dim)
    sup = encode_support(params, n)
    idx = encode_index(params, k)
    return _flatten(params, tuple(a + b for a, b in zip(n, k))) == sup + idx


def _digits(params: EncodingParams, sigma: int, half: int) -> LatticePoint | None:
    """The d - 1 base-4^N digits of sigma, each taken in [-half, base - half);
    None unless all lie in (-2^N, 2^N) and nothing is left over."""
    n_exp = params.window_exponent
    w, base = 1 << n_exp, 1 << 2 * n_exp
    digits = []
    for _ in range(params.dim - 1):
        sigma, digit = divmod(sigma + half, base)
        digit -= half
        if not -w < digit < w:
            return None
        digits.append(digit)
    return tuple(digits) if sigma == 0 else None


def decode_support(params: EncodingParams, value: int) -> LatticePoint | None:
    """Inverse of encode_support: value = floor(y/2)*stride + 2*sigma + (y odd)
    with 0 <= 2*sigma + 1 < stride and plain base-4^N digits in sigma splits
    uniquely.  Returns None when value is not the code of a window point."""
    value = as_int(value)
    if value < 0:
        return None
    y_half, rest = divmod(value, params.row_stride)
    x = _digits(params, rest >> 1, 0)
    y = 2 * y_half + (rest & 1)
    return x + (y,) if x is not None and 0 <= y < params.window else None


def decode_index(params: EncodingParams, value: int) -> LatticePoint | None:
    """Inverse of encode_index: on the index window |2*sigma| < stride/2, so
    value = j*stride + 2*sigma splits uniquely with a balanced remainder, and
    sigma into balanced digits.  Returns None when value is not such a code."""
    value = as_int(value)
    if value < 0 or value & 1:
        return None
    stride = params.row_stride
    j, rest = divmod(value + stride // 2, stride)
    x = _digits(params, (rest - stride // 2) >> 1, params.window ** 2 // 2)
    if x is None:
        return None
    k = x + (2 * j,)
    return k if in_index_window(params, k) else None


def window_exponent_for_extent(extent: int) -> int:
    """Smallest N >= 1 with extent <= 2^N - 1."""
    extent = as_int(extent)
    if extent < 0:
        raise ValueError("extent must be nonnegative")
    return max(1, extent.bit_length())

