"""Command-line interface.

Exit codes: 0 success, 1 verification failure or a failed write (to stdout
or of an artifact: one error line, none when the reader closed stdout), 2
input error.  Errors and library warnings go to stderr as single
``error: ...`` / ``warning: ...`` lines by ``_say``; a line that cannot be
written is lost, and the exit code stands.  A handler writes nothing: it
returns its exit code, its stdout document and any artifacts, and ``main``
writes the artifacts, all or none, before it prints the document.

A command runs with the cyclic garbage collector paused, and ``main``
restores the collector's previous state when it returns.  The commands
allocate pair tuples, equation buckets and grid cells in bulk (65,892 pairs
for 512 points in 1-D), and none of these can form a reference cycle, so
every collector pass over them is wasted: 7-11 ms of such a ``reduce``
(about 100 passes, 2-core VM).  Reference counting still frees them.  The
cyclic garbage of the layers' own imports is never collected: the process
entry ``run`` flushes stdout after ``main`` and leaves through ``os._exit``,
with no module clean-up and no final collection.

Each handler imports the layers it runs, inside the handler, so a command
executes only its own part of the package: ``snf`` and ``basis`` run
``intlat`` and ``jsonio`` but never ``lawton``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
import warnings
from pathlib import Path

from . import filters as filters_mod
from . import jsonio
from .config import Config
from .errors import (InputFormatError, IsomorphismError, LatwavError, LevelBudgetExceededError,
                     NotDyadicError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latwav",
        description="Reduced Lawton systems, lattice encodings, and "
        "cross-dimension transfer of scaling filters",
    )
    parser.add_argument("--config", help="JSON file overriding default limits")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("snf", help="Smith normal form of a determinant +/-2 matrix")
    p.set_defaults(run=_cmd_factor, render=jsonio.snf_to_json)
    p.add_argument("matrix", help="matrix JSON file")

    p = sub.add_parser("basis", help="adapted basis and coset representative")
    p.set_defaults(run=_cmd_factor, render=jsonio.basis_to_json)
    p.add_argument("matrix", help="matrix JSON file")

    p = sub.add_parser("reduce", help="reduced system of a filter's support")
    p.set_defaults(run=_cmd_reduce)
    p.add_argument("filter", help="filter JSON file")

    p = sub.add_parser("verify", help="residuals of a filter against its system")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("filter", help="filter JSON file")
    p.add_argument("--tolerance", type=float, default=None,
                   help="override the pass/fail tolerance")

    p = sub.add_parser("transfer", help="transfer a filter to a target matrix")
    p.set_defaults(run=_cmd_transfer)
    p.add_argument("filter", help="filter JSON file")
    p.add_argument("--target", required=True, help="target matrix JSON file")

    p = sub.add_parser("cascade", help="cascade approximation of the scaling function")
    p.set_defaults(run=_cmd_cascade)
    p.add_argument("filter", help="filter JSON file")
    p.add_argument("--levels", type=int, default=None, help="number of refinement levels")
    p.add_argument("--tol", type=float, default=0.0,
                   help="stop early when the level difference drops below this")

    p = sub.add_parser("quincunx", help="quincunx Shannon coefficient tools")
    qsub = p.add_subparsers(dest="subcommand", required=True)
    q = qsub.add_parser("pattern", help="coefficient window and parity pattern")
    q.set_defaults(run=_cmd_quincunx)
    q.add_argument("--width", type=int, required=True, help="window half-width")

    p = sub.add_parser("encode", help="encoding diagnostics")
    esub = p.add_subparsers(dest="subcommand", required=True)
    e = esub.add_parser("eval", help="evaluate the encodings at one point")
    e.set_defaults(run=_cmd_encode)
    e.add_argument("--d", type=int, required=True, help="dimension")
    e.add_argument("--N", type=int, required=True, help="window exponent")
    e.add_argument("--point", required=True, help="comma-separated coordinates")

    p = sub.add_parser("bundled", help="emit a bundled example filter as JSON")
    p.set_defaults(run=_cmd_bundled)
    p.add_argument("name", choices=sorted(filters_mod.BUNDLED_FILTERS),
                   help="bundled filter name")

    return parser


def _out_dir(config: Config) -> Path:
    """The output directory, created if missing; called before any compute,
    so an unusable directory is an input error, not a lost run."""
    override = os.environ.get("LATWAV_OUTPUT_DIR")
    path = Path(override) if override else Path(config.output_dir)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InputFormatError(f"output directory {str(path)!r} cannot be created: "
                               f"{exc.strerror}") from exc
    _require(os.access(path, os.W_OK | os.X_OK),
             f"output directory {str(path)!r} is not writable")
    return path


def _write_artifacts(files: dict[Path, str]) -> None:
    """Write each text to its path, all or none: a directory under a path
    (not a symlink to one) is refused before anything is written; each text
    goes to a temporary name beside its path, and all are renamed only after
    every write has succeeded.  A failure unlinks every temporary and every
    artifact renamed so far, and raises its ``OSError`` again with the final
    path as ``filename``."""
    temps = {path: path.with_name(f".{path.name}.{os.getpid()}.tmp") for path in files}
    renamed = []
    try:
        for path in temps:
            if os.path.isdir(path) and not os.path.islink(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        for path, temp in temps.items():
            temp.write_text(files[path])
        for path, temp in temps.items():
            os.replace(temp, path)
            renamed.append(path)
    except OSError as exc:
        for stale in [*temps.values(), *renamed]:
            stale.unlink(missing_ok=True)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _say(line: str) -> None:
    """Print ``line`` to stderr; a line that cannot be written is lost."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _write_failed(exc: OSError) -> int:
    """The exit code of a failed write, 1: with no message when the reader
    closed stdout, else with one line naming the artifact (the error's
    ``filename``) or the output."""
    if not isinstance(exc, BrokenPipeError):
        _say(f"error: {exc.filename or 'the output'} cannot be written: {exc.strerror}")
    return 1


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise InputFormatError(message)


def _render(path: str, dump, obj) -> str:
    """``dump(obj)``, the output document of the input at ``path``: its
    refusal (a result that is not finite, or holds an integer too long to
    print) names that input."""
    try:
        return dump(obj)
    except InputFormatError as exc:
        raise InputFormatError(f"{path}: {exc}") from exc


def _load_filter(path: str, config: Config):
    """The filter in ``path``, refused before any pair is scanned or stored
    when its reduced system would hold more pairs than the pair budget."""
    from .lawton import pair_count

    filt = jsonio.filter_from_json(jsonio.load_json(path), path)
    pairs = pair_count(filt.chart)
    _require(pairs <= config.pair_budget,
             f"{path}: the reduced system needs {pairs} pairs, "
             f"pair budget is {config.pair_budget}")
    return filt


def _cmd_factor(args, config: Config) -> tuple:
    """``snf`` and ``basis``: the matrix's Smith normal form, rendered by
    the ``render`` its subparser sets."""
    from .intlat import smith_normal_form

    matrix = jsonio.matrix_from_json(jsonio.load_json(args.matrix), args.matrix)
    try:
        snf = smith_normal_form(matrix)
    except NotDyadicError as exc:
        raise InputFormatError(f"{args.matrix}: {exc}") from exc
    return 0, _render(args.matrix, jsonio.canonical_dumps, args.render(snf))


def _cmd_reduce(args, config: Config) -> tuple:
    filt = _load_filter(args.filter, config)
    return 0, _render(args.filter, jsonio.system_dumps, filt.system)


def _cmd_verify(args, config: Config) -> tuple:
    from .lawton import lawton_residuals
    from .verify import QMF_SAMPLES, QMF_SEED, qmf_check

    filt = _load_filter(args.filter, config)
    tolerance = args.tolerance if args.tolerance is not None else config.tolerance
    _require(math.isfinite(tolerance) and tolerance > 0,
             f"--tolerance must be a positive number, got {tolerance!r}")
    report = lawton_residuals(filt)
    try:
        deviation = qmf_check(filt)
    except OverflowError as exc:
        raise InputFormatError(f"{args.filter}: a coefficient position is beyond double "
                               f"range, so its frequency response cannot be sampled") from exc
    passed = report.passes(tolerance)
    data = jsonio.residual_report_to_json(report)
    data.update({
        "qmf_deviation": deviation,
        "qmf_samples": QMF_SAMPLES,
        "qmf_seed": QMF_SEED,
        "tolerance": tolerance,
        "pass": passed,
    })
    return 0 if passed else 1, _render(args.filter, jsonio.canonical_dumps, data)


def _cmd_transfer(args, config: Config) -> tuple:
    from .transfer import transfer

    filt = _load_filter(args.filter, config)
    target = jsonio.dilation_from_json(jsonio.load_json(args.target), args.target)
    report = transfer(filt, target)
    return 0, _render(args.filter, jsonio.canonical_dumps, jsonio.transfer_report_to_json(report))


def _cmd_cascade(args, config: Config) -> tuple:
    from .cascade import run_cascade

    filt = _load_filter(args.filter, config)
    levels = args.levels if args.levels is not None else config.cascade_level_cap
    _require(levels >= 0, f"--levels must be nonnegative, got {levels}")
    _require(math.isfinite(args.tol) and args.tol >= 0,
             f"--tol must be a nonnegative number, got {args.tol!r}")
    _require(levels <= config.cascade_level_cap,
             f"--levels {levels} exceeds the configured cap {config.cascade_level_cap}")
    out = _out_dir(config)
    try:
        grid, diffs = run_cascade(filt, max_level=levels, tol=args.tol,
                                  cell_budget=config.cell_budget,
                                  residual_warn_tolerance=config.tolerance)
    except LevelBudgetExceededError as exc:
        raise InputFormatError(f"{args.filter}: {exc}") from exc
    except OverflowError as exc:
        raise InputFormatError(f"{args.filter}: a level difference is beyond double range") from exc
    try:
        artifacts = {
            "grid.csv": jsonio.grid_to_csv(grid),
            "grid.json": jsonio.canonical_dumps(jsonio.grid_sidecar_json(grid)),
            "convergence.csv": "level,l2_difference\n"
            + "".join(f"{i + 1},{d!r}\n" for i, d in enumerate(diffs)),
        }
        if filt.dim == 1:
            artifacts["phi.csv"] = jsonio.grid_centers_1d_csv(grid)
    except OverflowError as exc:
        raise InputFormatError(f"{args.filter}: a cell centre is beyond double range: "
                               f"{exc}") from exc
    except ValueError as exc:
        raise InputFormatError(f"{args.filter}: a cell position is too long to print: "
                               f"{exc}") from exc
    stem = Path(args.filter).stem
    return 0, _render(args.filter, jsonio.canonical_dumps, {
        "level": grid.level,
        "cells": len(grid.cells),
        "integral": float(abs(grid.integral())),
        "differences": diffs,
        "output_dir": str(out),
    }), {out / f"{stem}.{name}": text for name, text in artifacts.items()}


def _cmd_quincunx(args, config: Config) -> tuple:
    from .quincunx import support_pattern

    _require(args.width >= 1, f"--width must be >= 1, got {args.width}")
    _require((2 * args.width + 1) ** 2 <= config.cell_budget,
             f"--width {args.width} needs {(2 * args.width + 1) ** 2} coefficients, "
             f"cell budget is {config.cell_budget}")
    out = _out_dir(config)
    report = support_pattern(args.width)
    rows = "".join(f"{m},{n},{s!r}\n" for (m, n), s in report.values.items())
    return 0 if report.pattern_holds else 1, jsonio.canonical_dumps({
        "half_width": report.half_width,
        "min_odd_magnitude": report.min_odd_magnitude,
        "max_even_magnitude": report.max_even_magnitude,
        "pattern_holds": report.pattern_holds,
        "output_dir": str(out),
    }), {out / f"quincunx_pattern_w{args.width}.csv": "m,n,s\n" + rows}


def _cmd_encode(args, config: Config) -> tuple:
    from .encode import (
        EncodingParams,
        encode_index,
        encode_support,
        flatten_point,
        in_index_window,
        in_support_window,
        radix_encode,
    )

    try:
        point = tuple(int(c) for c in args.point.replace(" ", "").split(","))
    except ValueError as exc:
        raise InputFormatError(f"--point {args.point!r} is not a comma-separated integer tuple") from exc
    if len(point) != args.d:
        raise InputFormatError(f"--point has {len(point)} coordinates, --d is {args.d}")
    _require(args.N >= 1, f"--N must be >= 1, got {args.N}")
    # A bit bound on the window 2^N and the point's codes, checked before any is formed.
    bits = max(max(abs(c) for c in point).bit_length() + 2 * (args.d - 1) * args.N + 4,
               args.N + 1)
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    _require(bits * math.log10(2) <= limit,
             f"--N {args.N} needs integers of up to {bits} bits; at most {limit} digits print")
    params = EncodingParams(args.d, args.N)
    data = {
        "point": list(point),
        "radix_value": radix_encode(params, point),
        "in_support_window": in_support_window(params, point),
        "in_index_window": in_index_window(params, point),
    }
    if args.d >= 2:
        data["flatten_value"] = flatten_point(params, point)
    data["support_code"] = encode_support(params, point) if data["in_support_window"] else None
    data["index_code"] = encode_index(params, point) if data["in_index_window"] else None
    return 0, jsonio.canonical_dumps(data)


def _cmd_bundled(args, config: Config) -> tuple:
    filt = filters_mod.BUNDLED_FILTERS[args.name]()
    return 0, jsonio.canonical_dumps(jsonio.filter_to_json(filt))


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    _say(f"warning: {message}")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning  # one line, like the error lines
            config = Config.from_file(args.config) if args.config else Config()
            code, text, *files = args.run(args, config)
            if files:  # in place before the summary that names them is printed
                _write_artifacts(*files)
            print(text)
            return code
    except IsomorphismError as exc:
        _say(f"error: {exc}")
        return 1
    except LatwavError as exc:
        _say(f"error: {exc}")
        return 2
    except OSError as exc:  # a failed write: to stdout, or of an artifact (its filename)
        if exc.filename is None:  # stdout's: the exit flush must not fail again
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return _write_failed(exc)
    finally:
        if gc_was_enabled:
            gc.enable()


def run() -> None:
    """The process entry (``latwav`` and ``python -m latwav.cli``): ``main``,
    then stdout flushed, then ``os._exit`` with its code, so the process
    skips the interpreter's teardown, 5-7 ms of each call (2-core VM).  A
    flush that fails ends as a write that fails in ``main``.  stderr is
    line-buffered and each of its lines ends in a newline: it holds nothing."""
    try:
        code = main()
    except SystemExit as exc:  # argparse's exit: --help (0) or a usage error (2)
        code = exc.code
    try:
        sys.stdout.flush()
    except OSError as exc:
        code = _write_failed(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
