"""Traced launcher: run one latwav CLI call with its layer boundaries timed.

Usage: python launcher.py SPANS_JSON OP_ID CLI_ARG...

Times `import latwav`, wraps the layer-boundary functions of the package
(in every module namespace that binds them, so calls made through
`from .x import f` names are caught too), calls `latwav.cli.main(argv)` and,
when the call ends, writes the spans it recorded to SPANS_JSON.

Boundary functions get one span per call: (name, start, end, parent span,
time of span-less calls directly inside).  Per-point functions, called once
per lattice point, get no spans: only their call count, inclusive and self
time, so the trace stays cheap.  Wrapper bookkeeping (including the size
counters read from return values) is excluded from every self time.

A name missing from the package, or a return value that lost a size
field, is reported under "absent" and skipped.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# metric name -> (module, attribute) of each boundary function.
SPANNED = {
    "cli.main": [("cli", "main")],
    "intlat.from_matrix": [("intlat", "DilationMatrix.from_matrix")],
    "intlat.is_expansive": [("intlat", "is_expansive")],
    "intlat.smith_normal_form": [("intlat", "smith_normal_form")],
    "lawton.build_reduced_system": [("lawton", "build_reduced_system")],
    "transfer.transfer": [("transfer", "transfer")],
    "transfer.to_one_d": [("transfer", "to_one_d")],
    "transfer.from_one_d": [("transfer", "from_one_d")],
    "transfer.verify_isomorphism": [("transfer", "verify_isomorphism")],
    "verify.lawton_residuals": [("verify", "lawton_residuals")],
    "verify.qmf_check": [("verify", "qmf_check")],
    "cascade.run_cascade": [("cascade", "run_cascade")],
    "cascade.cascade_step": [("cascade", "cascade_step")],
    "cascade.level_difference": [("cascade", "level_difference")],
    "jsonio.load": [("jsonio", f) for f in (
        "load_json", "matrix_from_json", "dilation_from_json", "filter_from_json")],
    "jsonio.dump": [("jsonio", f) for f in (
        "canonical_dumps", "snf_to_json", "basis_to_json", "filter_to_json",
        "system_to_json", "residual_report_to_json", "transfer_report_to_json",
        "grid_to_csv", "grid_sidecar_json", "grid_centers_1d_csv")],
    "quincunx.support_pattern": [("quincunx", "support_pattern")],
}
COUNTED = {
    "intlat.chart": [("intlat", "to_adapted"), ("intlat", "from_adapted")],
    "intlat.in_dilated_lattice": [("intlat", "in_dilated_lattice")],
    "encode": [("encode", f) for f in (
        "encode_support", "encode_index", "decode_support", "decode_index")],
}


def _pairs(system) -> int:
    return sum(len(eq.pairs) for eq in system.equations.values())


def _system_sizes(system):
    return {
        "lawton.support_points": len(system.support.points),
        "lawton.index_set_size": len(system.index_set),
        "lawton.pairs": _pairs(system),
    }


# metric name -> counters read from the return value of each call.
SIZES = {
    "lawton.build_reduced_system": _system_sizes,
    "verify.lawton_residuals": lambda report: {"verify.pair_terms": _pairs(report.system)},
    "cascade.cascade_step": lambda grid: {"cascade.cells": len(grid.cells)},
}


class Tracer:
    """Spans, per-point counters and error counts of one traced call."""

    def __init__(self):
        self.spans: list = []
        self.counted: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.sizes: dict[str, int] = {}
        self.errors: dict[str, int] = {}
        self.systems: set = set()
        self.unsized: set[str] = set()  # names whose return value lost a size field
        self._stack: list[list] = []  # frames: [inner_s, span index or None]
        self._seen_errors: list = []

    def _error(self, name: str, exc: BaseException) -> None:
        # Count an exception once, at the innermost wrapped function it leaves.
        if any(exc is e for e in self._seen_errors):
            return
        self._seen_errors.append(exc)
        layer = name.split(".")[0]
        self.errors[layer] = self.errors.get(layer, 0) + 1

    def _record_sizes(self, name: str, result) -> None:
        try:
            sizes = SIZES[name](result)
            if name == "lawton.build_reduced_system":
                self.systems.add((result.support.points, result.matrix.A.rows))
        except (AttributeError, TypeError):
            self.unsized.add(name)
            return
        for key, value in sizes.items():
            self.sizes[key] = self.sizes.get(key, 0) + value

    def span(self, name: str, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = next((f[1] for f in reversed(stack) if f[1] is not None), -1)
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._error(name, exc)
                raise
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, frame[0])
                if stack and stack[-1][1] is None:
                    stack[-1][0] += end - start
            if name in SIZES:
                self._record_sizes(name, result)
                if stack:
                    stack[-1][0] += clock() - end
            return result

        return wrapper

    def count(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        totals = self.counted.setdefault(name, [0, 0.0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                self._error(name, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                totals[0] += 1
                totals[1] += elapsed
                totals[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed

        return wrapper


def install(tracer: Tracer, package) -> list[str]:
    """Wrap every listed function wherever the package binds it; return the
    names that do not exist."""
    modules = [package] + [
        m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".")
    ]
    absent = []
    for kinds, make in ((SPANNED, tracer.span), (COUNTED, tracer.count)):
        for metric, targets in kinds.items():
            for module_name, attr in targets:
                module = sys.modules.get(f"{package.__name__}.{module_name}")
                owner_name, _, method = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                raw = vars(owner).get(method) if owner is not None else None
                if raw is None:
                    absent.append(f"{module_name}.{attr}")
                    continue
                if isinstance(raw, classmethod):
                    setattr(owner, method, classmethod(make(metric, raw.__func__)))
                    continue
                wrapped = make(metric, raw)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is raw:
                            setattr(m, key, wrapped)
    return absent


def main() -> int:
    out_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import latwav
    import latwav.cli
    import_s = time.perf_counter() - start
    if Path(latwav.__file__).resolve() != (SRC / "latwav" / "__init__.py").resolve():
        print(f"launcher: imported {latwav.__file__}, not the checkout's", file=sys.stderr)
        return 3
    tracer = Tracer()
    absent = install(tracer, latwav)
    code = None
    try:
        code = latwav.cli.main(argv)
    finally:
        sys.stdout.flush()
        Path(out_path).write_text(json.dumps({
            "op": op_id,
            "import_s": import_s,
            "spans": tracer.spans,
            "counted": tracer.counted,
            "sizes": tracer.sizes,
            "systems": len(tracer.systems),
            "errors": tracer.errors,
            "absent": absent + sorted(f"{n} sizes" for n in tracer.unsized),
        }))
    return code


if __name__ == "__main__":
    sys.exit(main())
