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
from latwav.encode import EncodingParams
from latwav.errors import DimensionMismatchError, DimensionTooSmallError, InputFormatError
from latwav.filters import BUNDLED_FILTERS, BUNDLED_MATRICES, daubechies4_1d, quincunx_matrix
from latwav.intlat import DilationMatrix, IntMatrix, in_dilated_lattice
from latwav.lawton import SupportSet, lawton_residuals
from latwav.quincunx import support_pattern
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
    with pytest.raises(DimensionMismatchError):
        IntMatrix(())
    with pytest.raises(DimensionMismatchError):
        IntMatrix(((1, 2), (3,)))
    with pytest.raises(DimensionMismatchError):
        IntMatrix.from_rows([[1, 2]])
    for bad in ({"tolerance": 0}, {"tolerance": "1"}, {"tolerance": math.nan},
                {"tolerance": True}, {"cascade_level_cap": 0}, {"cascade_level_cap": 2.0},
                {"cell_budget": True}, {"output_dir": 3}):
        with pytest.raises(InputFormatError):
            Config(**bad)
    with pytest.raises(TypeError):
        Config(bogus=1)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"bogus": 1}))
    with pytest.raises(InputFormatError, match="unknown config keys"):
        Config.from_file(path)
    path.write_text(json.dumps({"cell_budget": 7, "tolerance": 0.5}))
    assert Config.from_file(path) == Config(tolerance=0.5, cell_budget=7)


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
    assert repr(IntMatrix.from_rows([[2]])) == "IntMatrix(rows=((2,),))"
    assert repr(SupportSet.from_points([(1,)])) == "SupportSet(points=frozenset({(1,)}), dim=1)"
    assert repr(Config()) == ("Config(tolerance=1e-10, cascade_level_cap=12, "
                              "cell_budget=5000000, output_dir='.', pair_budget=5000000)")
    # The tuple records compare and hash as tuples, and iterate their fields.
    assert EncodingParams(2, 3) == (2, 3) and hash(EncodingParams(2, 3)) == hash((2, 3))
    assert tuple(IntMatrix.from_rows([[2]])) == (((2,),),)
    # The plain classes compare by class and fields.
    assert SupportSet.from_points([(0,), (1,)]) == SupportSet(frozenset({(0,), (1,)}), 1)
    assert SupportSet.from_points([(0,)]) != (frozenset({(0,)}), 1)
    assert len({SupportSet.from_points([(0,)]), SupportSet.from_points([(0,)])}) == 1
    a, b = daubechies4_1d(), Filter(daubechies4_1d().matrix, dict(daubechies4_1d().coeffs))
    assert a == b and a != (a.matrix, a.coeffs)
    assert b.system == a.system and a == b  # the cached system is not a field
    with pytest.raises(TypeError):
        hash(a)
    config = Config()
    config.cell_budget = 3
    assert config != Config()
    assert Config().__eq__(object()) is NotImplemented and (Config() == object()) is False


def test_to_one_d_reads_the_filter_chart(monkeypatch):
    source = daubechies4_1d()
    filt = Filter(quincunx_matrix(), dict(transfer(source, quincunx_matrix()).target_filter.coeffs))
    counts = count_work(monkeypatch)
    report = to_one_d(filt)
    # the two filters' supports and charts, nothing more; [2], made afresh; one certificate
    assert counts == {"support": 2, "chart": [2, 1], "from_matrix": 1, "snf": 1, "verify": 1}
    got = report.source_filter.chart
    assert report.iso.support_map == {p: (c,) for p, c in zip(got.support_order, got.codes)}
    assert report.window_exponent == got.window_exponent
