"""Wire formats: JSON for structured objects, CSV for grids.

``canonical_dumps`` fixes key order and relies on shortest round-trip float
formatting, so any emitted document re-serializes bit-identically after a
parse."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .cascade import CascadeGrid
from .errors import InputFormatError, LatwavError
from .intlat import DilationMatrix, IntMatrix, SnfFactorization
from .lawton import ReducedSystem
from .transfer import Filter, TransferReport
from .verify import ResidualReport


def canonical_dumps(obj) -> str:
    """Strict JSON: a NaN or infinity (from input magnitudes that overflow
    double precision) is refused rather than written as a bare token."""
    try:
        return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise InputFormatError(f"result is not finite: {exc}") from exc


def matrix_to_json(m: IntMatrix) -> dict:
    return {"dim": m.dim, "rows": [list(row) for row in m.rows]}


def matrix_from_json(data, where: str = "matrix") -> IntMatrix:
    if not isinstance(data, dict):
        raise InputFormatError(f"{where}: expected an object")
    for key in ("dim", "rows"):
        if key not in data:
            raise InputFormatError(f"{where}: missing field '{key}'")
    rows = data["rows"]
    dim = data["dim"]
    if not isinstance(rows, list) or len(rows) != dim:
        raise InputFormatError(f"{where}: 'rows' must be a list of {dim} rows")
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != dim:
            raise InputFormatError(f"{where}: row {i} must have {dim} entries")
        for j, x in enumerate(row):
            if not isinstance(x, int) or isinstance(x, bool):
                raise InputFormatError(f"{where}: entry ({i},{j}) = {x!r} is not an integer")
    return IntMatrix.from_rows(rows)


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
    from .intlat import coset_representative

    return {
        "adapted_basis": matrix_to_json(snf.U),
        "coset_rep": list(coset_representative(snf)),
    }


def filter_to_json(filt: Filter) -> dict:
    coeffs = []
    for p in sorted(filt.coeffs):
        v = complex(filt.coeffs[p])
        coeffs.append({"n": list(p), "re": v.real, "im": v.imag})
    return {
        "dim": filt.dim,
        "matrix": matrix_to_json(filt.matrix.A),
        "coeffs": coeffs,
    }


def _finite(x, where: str) -> float:
    """A JSON number as a finite float; strings, booleans, NaN and values
    beyond double range are input errors."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        try:
            value = float(x)
        except OverflowError:
            value = math.inf
        if math.isfinite(value):
            return value
    raise InputFormatError(f"{where} = {x!r} is not a finite number")


def filter_from_json(data, where: str = "filter") -> Filter:
    if not isinstance(data, dict):
        raise InputFormatError(f"{where}: expected an object")
    for key in ("dim", "matrix", "coeffs"):
        if key not in data:
            raise InputFormatError(f"{where}: missing field '{key}'")
    dil = dilation_from_json(data["matrix"], f"{where}.matrix")
    if data["dim"] != dil.dim:
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
        if not isinstance(n, list) or len(n) != dil.dim or not all(
            isinstance(c, int) and not isinstance(c, bool) for c in n
        ):
            raise InputFormatError(
                f"{where}: coeffs[{idx}].n = {n!r} is not a length-{dil.dim} integer point"
            )
        p = tuple(n)
        if p in parsed:
            raise InputFormatError(f"{where}: duplicate coefficient at {p}")
        parsed[p] = (
            _finite(e["re"], f"{where}: coeffs[{idx}].re"),
            _finite(e.get("im", 0.0), f"{where}: coeffs[{idx}].im"),
        )
    any_imag = any(im for _, im in parsed.values())
    coeffs = {p: complex(re, im) if any_imag else re for p, (re, im) in parsed.items()}
    try:
        return Filter.from_coeffs(dil, coeffs)
    except (LatwavError, ValueError) as exc:
        raise InputFormatError(f"{where}: {exc}") from exc


def system_to_json(system: ReducedSystem) -> dict:
    return {
        "matrix": matrix_to_json(system.matrix.A),
        "support": [list(p) for p in system.support_order],
        "index_set": [list(k) for k in system.index_set],
        "equations": [
            {
                "k": list(k),
                "pairs": [[list(a), list(b)] for a, b in system.equations[k].pairs],
                "rhs": system.equations[k].rhs,
            }
            for k in system.index_set
        ],
        "window_exponent": system.window_exponent,
    }


def residual_report_to_json(report: ResidualReport) -> dict:
    return {
        "per_index": [
            {"k": list(k), "residual": report.per_index[k]}
            for k in report.system.index_set
        ],
        "sum_residual": report.sum_residual,
        "max_residual": report.max_residual,
    }


def _pair_list(mapping) -> list:
    return [[list(a), list(b)] for a, b in sorted(mapping.items())]


def transfer_report_to_json(report: TransferReport, with_stages: bool = True) -> dict:
    data = {
        "source_filter": filter_to_json(report.source_filter),
        "target_filter": filter_to_json(report.target_filter),
        "shift": list(report.shift),
        "window_exponent": report.window_exponent,
        "support_map": _pair_list(report.iso.support_map),
        "index_map": _pair_list(report.iso.index_map),
    }
    if with_stages and report.stages:
        data["stages"] = [transfer_report_to_json(s, with_stages=False) for s in report.stages]
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
    except OSError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
