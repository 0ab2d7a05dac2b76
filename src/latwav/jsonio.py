"""Wire formats: JSON for structured objects, CSV for grids.

``canonical_dumps`` writes compact JSON (no whitespace between tokens),
fixes key order and relies on shortest round-trip float formatting, so any
emitted document re-serializes bit-identically after a parse."""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import DimensionMismatchError, InputFormatError, LatwavError
from .intlat import (DilationMatrix, IntMatrix, SnfFactorization, as_int, as_point,
                     coset_representative)

if TYPE_CHECKING:  # annotations only: the wire format loads none of these layers
    from .cascade import CascadeGrid
    from .lawton import Filter, ReducedSystem, ResidualReport
    from .transfer import TransferReport


def canonical_dumps(obj) -> str:
    """Strict, compact JSON: a NaN or infinity (from input magnitudes that
    overflow double precision) is refused rather than written as a bare
    token.  Without ``indent`` the json module uses its C encoder.  Every
    document is a tree built fresh by a ``*_to_json`` function, so the
    encoder keeps no cycle markers."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          check_circular=False)
    except ValueError as exc:
        if "integer string conversion" in str(exc):
            raise InputFormatError(f"result holds an integer too long to print: {exc}") from exc
        raise InputFormatError(f"result is not finite: {exc}") from exc


# Texts of integer points already checked by a ``canonical_dumps`` call.
_compact_dumps = json.JSONEncoder(separators=(",", ":"), check_circular=False).encode


def matrix_to_json(m: IntMatrix) -> dict:
    return {"dim": m.dim, "rows": [list(row) for row in m.rows]}


def _int(x, where: str, label: str) -> int:
    """``x`` by ``as_int``, else an input error naming ``label`` in ``where``."""
    try:
        return as_int(x)
    except TypeError as exc:
        raise InputFormatError(f"{where}: {label} = {x!r} is not an integer") from exc


def matrix_from_json(data, where: str = "matrix") -> IntMatrix:
    if not isinstance(data, dict):
        raise InputFormatError(f"{where}: expected an object")
    for key in ("dim", "rows"):
        if key not in data:
            raise InputFormatError(f"{where}: missing field '{key}'")
    rows = data["rows"]
    dim = _int(data["dim"], where, "'dim'")
    if dim < 1:
        raise InputFormatError(f"{where}: 'dim' = {dim} must be at least 1")
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputFormatError(f"{where}: 'rows' must be a list of {dim} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputFormatError(f"{where}: row {i} must have {dim} entries")
        for j, x in enumerate(row):
            _int(x, where, f"entry ({i},{j})")
    return IntMatrix(rows)


def dilation_from_json(data, where: str = "matrix") -> DilationMatrix:
    m = matrix_from_json(data, where)
    try:
        return DilationMatrix.from_matrix(m)
    except LatwavError as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def snf_to_json(snf: SnfFactorization) -> dict:
    return {
        "U": matrix_to_json(snf.U),
        "D": matrix_to_json(snf.D),
        "V": matrix_to_json(snf.V),
    }


def basis_to_json(snf: SnfFactorization) -> dict:
    return {
        "adapted_basis": matrix_to_json(snf.U),
        "coset_rep": list(coset_representative(snf)),
    }


def filter_to_json(filt: Filter) -> dict:
    coeffs = []
    for p in sorted(filt.coeffs):
        v = complex(filt.coeffs[p])
        coeffs.append({"n": p, "re": v.real, "im": v.imag})
    return {
        "dim": filt.dim,
        "matrix": matrix_to_json(filt.matrix.A),
        "coeffs": coeffs,
    }


def finite_number(x, where: str) -> float:
    """A float, or an integer by ``as_int``, as a finite float; anything
    else (strings, booleans), NaN, infinities and integers beyond double
    range are input errors naming ``where``.  The one finite-number rule of
    the input files: filter taps and the config's tolerance."""
    try:
        value = float(x) if isinstance(x, float) else float(as_int(x))
    except (TypeError, OverflowError):
        value = math.nan
    if math.isfinite(value):
        return value
    raise InputFormatError(f"{where} = {x!r} is not a finite number")


def filter_from_json(data, where: str = "filter") -> Filter:
    from .lawton import Filter

    if not isinstance(data, dict):
        raise InputFormatError(f"{where}: expected an object")
    for key in ("dim", "matrix", "coeffs"):
        if key not in data:
            raise InputFormatError(f"{where}: missing field '{key}'")
    dil = dilation_from_json(data["matrix"], f"{where}.matrix")
    if _int(data["dim"], where, "'dim'") != dil.dim:
        raise InputFormatError(
            f"{where}: dim = {data['dim']} but matrix is {dil.dim}x{dil.dim}"
        )
    entries = data["coeffs"]
    if not isinstance(entries, list) or not entries:
        raise InputFormatError(f"{where}: 'coeffs' must be a non-empty list")
    parsed = {}
    for idx, e in enumerate(entries):
        if not isinstance(e, dict) or "n" not in e or "re" not in e:
            raise InputFormatError(f"{where}: coeffs[{idx}] needs fields 'n' and 're'")
        n = e["n"]
        try:
            p = as_point(n, dil.dim)
        except (TypeError, DimensionMismatchError) as exc:
            raise InputFormatError(
                f"{where}: coeffs[{idx}].n = {n!r} is not a length-{dil.dim} integer point"
            ) from exc
        if p in parsed:
            raise InputFormatError(f"{where}: duplicate coefficient at {p}")
        parsed[p] = (
            finite_number(e["re"], f"{where}: coeffs[{idx}].re"),
            finite_number(e.get("im", 0.0), f"{where}: coeffs[{idx}].im"),
        )
    any_imag = any(im for _, im in parsed.values())
    coeffs = {p: complex(re, im) if any_imag else re for p, (re, im) in parsed.items()}
    try:
        return Filter.from_coeffs(dil, coeffs)
    except (LatwavError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def _system_fields(system: ReducedSystem) -> dict:
    """Every field of the system document but its equations."""
    return {
        "index_set": system.index_set,
        "matrix": matrix_to_json(system.matrix.A),
        "support": system.support_order,
        "window_exponent": system.window_exponent,
    }


def system_to_json(system: ReducedSystem) -> dict:
    return {
        **_system_fields(system),
        "equations": [
            {"k": eq.k, "pairs": eq.pairs, "rhs": eq.rhs}
            for eq in (system.equations[k] for k in system.index_set)
        ],
    }


def system_dumps(system: ReducedSystem) -> str:
    """``canonical_dumps(system_to_json(system))``, rendered directly so the
    encoder never walks the pair tuples.  One ``canonical_dumps`` call renders
    every field but the equations (an integer too long to print is the same
    input error); each support point and generator is then rendered once
    more to a cached text, and a pair (a, b) is "[a," + "b]" of two of them.
    "equations" sorts first among the keys, so it opens the document."""
    rest = canonical_dumps(_system_fields(system))
    point = {p: _compact_dumps(p) for p in system.support_order}
    head = {p: f"[{text}," for p, text in point.items()}
    tail = {p: f"{text}]" for p, text in point.items()}
    equations = ",".join(
        '{"k":%s,"pairs":[%s],"rhs":%d}'
        % (_compact_dumps(k), ",".join([head[a] + tail[b] for a, b in eq.pairs]), eq.rhs)
        for k, eq in zip(system.index_set, map(system.equations.__getitem__, system.index_set))
    )
    return '{"equations":[%s],%s' % (equations, rest[1:])


def residual_report_to_json(report: ResidualReport) -> dict:
    return {
        "per_index": [
            {"k": k, "residual": residual} for k, residual in report.per_index.items()
        ],
        "sum_residual": report.sum_residual,
        "max_residual": report.max_residual,
    }


def transfer_report_to_json(report: TransferReport) -> dict:
    data = {
        "source_filter": filter_to_json(report.source_filter),
        "target_filter": filter_to_json(report.target_filter),
        "shift": report.shift,
        "window_exponent": report.window_exponent,
        "support_map": sorted(report.iso.support_map.items()),
        "index_map": sorted(report.iso.index_map.items()),
    }
    if report.stages:
        data["stages"] = [transfer_report_to_json(s) for s in report.stages]
    return data


def grid_to_csv(grid: CascadeGrid) -> str:
    d = grid.matrix.dim
    header = ",".join(f"j_{i + 1}" for i in range(d)) + ",value"
    lines = [header]
    for cell in sorted(grid.cells):
        value = grid.cells[cell]
        if isinstance(value, complex):
            rendered = f"{value.real!r}{value.imag:+}j"
        else:
            rendered = repr(float(value))
        lines.append(",".join(str(c) for c in cell) + "," + rendered)
    return "\n".join(lines) + "\n"


def grid_sidecar_json(grid: CascadeGrid) -> dict:
    return {
        "level": grid.level,
        "matrix": matrix_to_json(grid.matrix.A),
        "cell_count": len(grid.cells),
    }


def grid_centers_1d_csv(grid: CascadeGrid) -> str:
    """1D convenience export: cell-center abscissa and value."""
    if grid.matrix.dim != 1:
        raise InputFormatError("center export requires a 1-dimensional grid")
    scale = grid.matrix.A.rows[0][0] ** grid.level
    lines = ["t,phi"]
    for (j,), value in sorted(grid.cells.items()):
        t = (j + 0.5) / scale
        lines.append(f"{t!r},{float(value.real if isinstance(value, complex) else value)!r}")
    return "\n".join(lines) + "\n"


def load_json(path: str | Path):
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer literal or deep nesting
        raise InputFormatError(f"{path}: JSON too large to read: {exc}") from exc
