"""The records: construction checks, immutability, repr, and the
QMF shift read off the adapted basis."""

import copy
import json
import math
import operator
import pickle
import random

import numpy as np
import pytest

from latwav.cascade import initial_grid
from latwav.config import Config
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
from latwav.errors import (
    DimensionMismatchError,
    DimensionTooSmallError,
    InputFormatError,
    OutOfDomainError,
)
from latwav.filters import (
    BUNDLED_FILTERS,
    BUNDLED_MATRICES,
    daubechies4_1d,
    dilation_1d,
    quincunx_matrix,
)
from latwav.intlat import (
    DilationMatrix,
    IntMatrix,
    as_int,
    as_point,
    from_adapted,
    in_dilated_lattice,
    in_dilated_lattice_exact,
    to_adapted,
)
from latwav.lawton import SupportSet, lawton_residuals
from latwav.quincunx import shannon_coeff, sublattice_premise, support_pattern
from latwav.transfer import Filter, to_one_d, transfer
from latwav.verify import _dual_coset_shift
from util import (
    count_work,
    lattice_chart,
    random_dyadic_matrices,
    random_expansive_conjugate,
    reference_dual_coset_shift,
)


def _matrices():
    rnd = random.Random(12)
    rng = np.random.default_rng(12)
    out = [make() for make in BUNDLED_MATRICES.values()]
    for dim in range(1, 5):
        out += [DilationMatrix.from_matrix(random_expansive_conjugate(rnd, dim))
                for _ in range(10)]
        out += [lattice_chart(m) for m in random_dyadic_matrices(rng, dim, 10)]
    return out


def test_dual_coset_shift_is_pi_times_the_last_adapted_row_mod_2():
    """zeta = pi (u mod 2), u the last row of U^-1: each coordinate is +0.0
    or pi; zeta equals the former shift 2 pi (A^T)^-1 q mod 2 pi, compared in
    integers; and k.zeta / pi is odd exactly off A*Z^d."""
    rnd = random.Random(33)
    filts = [Filter.from_coeffs(dil, {(0,) * dil.dim: 1.0}) for dil in _matrices()]
    filts += [make() for make in BUNDLED_FILTERS.values()]
    for filt in filts:
        dil, shift = filt.matrix, _dual_coset_shift(filt)
        assert all(z in (0.0, math.pi) and math.copysign(1.0, z) == 1.0 for z in shift), shift
        w = [int(z == math.pi) for z in shift]
        reference = reference_dual_coset_shift(filt)
        assert all(x.denominator == 1 for x in reference), reference
        assert [(x.numerator - wj) % 2 for x, wj in zip(reference, w)] == [0] * dil.dim
        for _ in range(20):
            k = tuple(rnd.randint(-50, 50) for _ in range(dil.dim))
            assert (sum(map(operator.mul, w, k)) % 2 == 1) == (not in_dilated_lattice(dil, k))


def test_construction_checks_raise_the_same_errors(tmp_path):
    with pytest.raises(DimensionTooSmallError):
        EncodingParams(0, 1)
    with pytest.raises(ValueError, match="window exponent"):
        EncodingParams(1, 0)
    with pytest.raises(ValueError, match="window exponent"):
        EncodingParams(2, 3)._replace(window_exponent=0)
    with pytest.raises(DimensionMismatchError):
        IntMatrix(())
    with pytest.raises(DimensionMismatchError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(DimensionMismatchError):
        IntMatrix([[1, 2]])
    # A point or integer too long to print is shown by its size, not by the
    # ValueError of repr: 10^5000, 2^14300 - 1 (4305 digits), a 4401-digit det.
    huge = 10**5000
    for build, error, message in (
        (lambda: as_point((huge,), 2), DimensionMismatchError,
         "point <tuple too long to print> has dimension 1, expected 2"),
        (lambda: encode_support(EncodingParams(2, 3), (huge, 0)), OutOfDomainError,
         "<tuple too long to print> is outside the support window: "
         "coordinate 1 = <5001-digit integer> not in [0, 7]"),
        (lambda: encode_support(EncodingParams(1, 14300), (-1,)), OutOfDomainError,
         "(-1,) is outside the support window: coordinate 1 = -1 not in [0, <4305-digit integer>]"),
        (lambda: encode_index(EncodingParams(2, 3), (0, -huge)), OutOfDomainError,
         "<tuple too long to print> is outside the index window: "
         "coordinate 2 = <5001-digit negative integer> not in [-7, 7]"),
        (lambda: IntMatrix(((10**2200, 0), (0, 10**2200))).unimodular_inverse(), ValueError,
         "matrix with det <4401-digit integer> has no integer inverse"),
    ):
        with pytest.raises(error) as raised:
            build()
        assert str(raised.value) == message
    assert not in_support_window(EncodingParams(2, 3), (huge, 0))
    for bad in ({"tolerance": 0}, {"tolerance": "1"}, {"tolerance": math.nan},
                {"tolerance": True}, {"cascade_level_cap": 0}, {"cascade_level_cap": 2.0},
                {"cell_budget": True}, {"output_dir": 3}):
        with pytest.raises(InputFormatError):
            Config(**bad)
        with pytest.raises(InputFormatError):
            Config()._replace(**bad)
    for name, value, shown in (
        ("tolerance", 10**5000, "a positive number, got <5001-digit integer>"),
        ("cell_budget", -10**5000, "a positive integer, got <5001-digit negative integer>"),
        ("output_dir", [10**5000], "a string, got <list too long to print>"),
    ):
        with pytest.raises(InputFormatError) as raised:  # not the ValueError of repr(value)
            Config(**{name: value})
        assert str(raised.value) == f"{name} must be {shown}"
    with pytest.raises(TypeError):
        Config(bogus=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(InputFormatError, match="unknown config keys"):
        Config.from_file(path)
    path.write_text(json.dumps({"cell_budget": 7, "tolerance": 0.5}))
    assert Config.from_file(path) == Config(tolerance=0.5, cell_budget=7)


# Every public entry of the exact layers that takes an integer, with the
# integer it takes replaced by v.
_P = EncodingParams(2, 2)
INTEGER_ENTRIES = {
    "as_int": as_int,
    "as_point": lambda v: as_point((v, 2)),
    "as_point-dim": lambda v: as_point((2, v), 2),
    "IntMatrix": lambda v: IntMatrix(((v,),)),
    "IntMatrix-_replace": lambda v: IntMatrix([[2]])._replace(rows=((v,),)),
    "identity": lambda v: IntMatrix.identity(v),
    "power": lambda v: IntMatrix(((2,),)).power(v),
    "vec": lambda v: IntMatrix.identity(2).vec((v, 1)),
    "from_matrix": lambda v: DilationMatrix.from_matrix([[v]]),
    "in_dilated_lattice": lambda v: in_dilated_lattice(quincunx_matrix(), (v, 1)),
    "in_dilated_lattice_exact": lambda v: in_dilated_lattice_exact(
        quincunx_matrix().A, quincunx_matrix().adapted_basis_inv, (v, 1)),
    "to_adapted": lambda v: to_adapted(quincunx_matrix(), (v, 1)),
    "from_adapted": lambda v: from_adapted(quincunx_matrix(), (v, 1)),
    "EncodingParams-dim": lambda v: EncodingParams(v, 2),
    "EncodingParams-exponent": lambda v: EncodingParams(2, v),
    "EncodingParams-_replace": lambda v: EncodingParams(2, 3)._replace(window_exponent=v),
    "radix_encode": lambda v: radix_encode(_P, (v, 2)),
    "flatten_point": lambda v: flatten_point(_P, (v, 2)),
    "in_support_window": lambda v: in_support_window(_P, (v, 2)),
    "in_index_window": lambda v: in_index_window(_P, (v, 2)),
    "encode_support": lambda v: encode_support(_P, (v, 2)),
    "encode_index": lambda v: encode_index(_P, (v, 2)),
    "additivity_holds-n": lambda v: additivity_holds(_P, (v, 2), (0, 0)),
    "additivity_holds-k": lambda v: additivity_holds(_P, (1, 2), (v, 0)),
    "decode_support": lambda v: decode_support(_P, v),
    "decode_index": lambda v: decode_index(_P, v),
    "window_exponent_for_extent": window_exponent_for_extent,
    "from_points": lambda v: SupportSet.from_points([(v,)]),
    "from_coeffs": lambda v: Filter.from_coeffs(dilation_1d(), {(v,): 1.0}),
    "shannon_coeff": lambda v: shannon_coeff(v, 1),
    "support_pattern": support_pattern,
    "sublattice_premise": lambda v: sublattice_premise(SupportSet.from_points([(0, 0)]), v),
}


@pytest.mark.parametrize("value, message", [
    (1.5, "'float' object cannot be interpreted as an integer"),
    (2.0, "'float' object cannot be interpreted as an integer"),
    ("1", "'str' object cannot be interpreted as an integer"),
    (True, "True is a bool, not an integer"),
    (None, "'NoneType' object cannot be interpreted as an integer"),
], ids=["float", "integral-float", "string", "bool", "none"])
@pytest.mark.parametrize("entry", INTEGER_ENTRIES.values(), ids=list(INTEGER_ENTRIES))
def test_an_integer_entry_refuses_what_is_not_an_integer(entry, value, message):
    """One rule, ``as_int``, refuses each value before any arithmetic: its
    own message, not one of ``int()``, a comparison or an operator."""
    with pytest.raises(TypeError) as raised:
        entry(value)
    assert str(raised.value) == message


def _leaves(value) -> list:
    """The scalars of nested tuples, lists, dicts and sets."""
    if isinstance(value, dict):
        return _leaves(list(value))
    if isinstance(value, (tuple, list, frozenset)):
        return [leaf for item in value for leaf in _leaves(item)]
    return [value]


def test_numpy_integers_are_stored_as_int():
    """A numpy integer passes the rule and is stored as a Python int, so
    later arithmetic is exact where int64 would wrap."""
    big = np.int64(2**62)
    q = np.array([[1, 1], [-1, 1]])
    dil = DilationMatrix.from_matrix(q)
    params = EncodingParams(np.int64(2), np.int64(3))
    code = encode_support(params, np.array([3, 4]))
    config = Config(cascade_level_cap=np.int64(3), cell_budget=np.int64(7),
                    pair_budget=np.int64(9))
    stored = {
        "as_int": as_int(np.uint64(2**63)),
        "as_point": as_point(np.array([1, -2])),
        "IntMatrix": IntMatrix(q),
        "identity": IntMatrix.identity(np.int64(2)),
        "power": IntMatrix(q).power(np.int64(3)),
        "from_matrix": (dil.A, dil.snf, dil.adapted_basis_inv, dil.coset_rep, dil.det, dil.adj),
        "to_adapted": to_adapted(dil, (big, big)),
        "from_adapted": from_adapted(dil, (big, big)),
        "EncodingParams": params,
        "codes": (code, radix_encode(params, (big, big)), flatten_point(params, (big, big)),
                  encode_index(params, np.array([1, 2]))),
        "decoded": (decode_support(params, np.int64(code)),
                    decode_index(params, np.int64(encode_index(params, (1, 2))))),
        "window_exponent_for_extent": window_exponent_for_extent(np.int64(5)),
        "from_points": SupportSet.from_points(np.array([[0, 0], [1, 0]])).points,
        "from_coeffs": Filter.from_coeffs(dilation_1d(), {(np.int64(0),): 1.0}).coeffs,
        "Config": (config.cascade_level_cap, config.cell_budget, config.pair_budget),
    }
    for name, value in stored.items():
        assert {type(leaf) for leaf in _leaves(value)} == {int}, name
    assert to_adapted(dil, (big, big)) == to_adapted(dil, (2**62, 2**62))
    assert radix_encode(params, (big, big)) == 2**62 * (1 + 2**6)


def _records() -> dict:
    """One instance of every immutable record, keyed by its first field."""
    report = transfer(daubechies4_1d(), quincunx_matrix())
    dil = report.target_filter.matrix
    return {
        "rows": dil.A,
        "U": dil.snf,
        "A": dil,
        "dim": EncodingParams(2, 3),
        "points": report.source_filter.support,
        "k": report.source_filter.system.equations[(0,)],
        "support": report.source_filter.system,
        "support_order": report.source_filter.chart,
        "matrix": report.source_filter,
        "support_map": report.iso,
        "source_filter": report,
        "filter": lawton_residuals(report.source_filter),
        "level": initial_grid(dil),
        "half_width": support_pattern(1),
        "tolerance": Config(),
    }


RECORDS = _records()


@pytest.mark.parametrize("field, record", RECORDS.items(), ids=list(RECORDS))
def test_record_fields_cannot_be_assigned_and_repr_names_them(field, record):
    name = type(record).__name__
    assert repr(record).startswith(f"{name}({field}=")
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    assert pickle.loads(pickle.dumps(record)) == record
    assert copy.deepcopy(record) == record


def test_repr_and_equality():
    assert repr(EncodingParams(2, 3)) == "EncodingParams(dim=2, window_exponent=3)"
    assert repr(IntMatrix([[2]])) == "IntMatrix(rows=((2,),))"
    assert repr(SupportSet.from_points([(1,)])) == "SupportSet(points=frozenset({(1,)}), dim=1)"
    assert repr(Config()) == ("Config(tolerance=1e-10, cascade_level_cap=12, "
                              "cell_budget=5000000, output_dir='.', pair_budget=5000000)")
    # The tuple records compare and hash as tuples, and iterate their fields.
    assert EncodingParams(2, 3) == (2, 3) and hash(EncodingParams(2, 3)) == hash((2, 3))
    assert tuple(IntMatrix([[2]])) == (((2,),),)
    assert Config() == (1e-10, 12, 5_000_000, ".", 5_000_000)
    assert Config()._replace(cell_budget=3) == Config(cell_budget=3) != Config()
    assert Config().__eq__(object()) is NotImplemented and (Config() == object()) is False
    # The plain classes compare by class and fields.
    assert SupportSet.from_points([(0,), (1,)]) == SupportSet(frozenset({(0,), (1,)}), 1)
    assert SupportSet.from_points([(0,)]) != (frozenset({(0,)}), 1)
    assert len({SupportSet.from_points([(0,)]), SupportSet.from_points([(0,)])}) == 1
    a, b = daubechies4_1d(), Filter(daubechies4_1d().matrix, dict(daubechies4_1d().coeffs))
    assert a == b and a != (a.matrix, a.coeffs)
    assert b.system == a.system and a == b  # the cached system is not a field
    with pytest.raises(TypeError):
        hash(a)


def test_to_one_d_reads_the_filter_chart(monkeypatch):
    source = daubechies4_1d()
    filt = Filter(quincunx_matrix(), dict(transfer(source, quincunx_matrix()).target_filter.coeffs))
    counts = count_work(monkeypatch)
    report = to_one_d(filt)
    # the two filters' supports and charts, nothing more; [2], made afresh; one certificate
    assert counts == {"support": 2, "chart": [2, 1], "from_matrix": 1, "snf": 1, "verify": 1,
                      "scan": 1}
    got = report.source_filter.chart
    assert report.iso.support_map == {p: (c,) for p, c in zip(got.support_order, got.codes)}
    assert report.window_exponent == got.window_exponent
