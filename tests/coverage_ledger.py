"""Lines of ``src/latwav`` that no Tier-1 test runs, held to a ledger.

The script runs the Tier-1 suite in this process under a standard-library
``sys.settrace`` collector, which records every line of ``src/latwav/*.py``
that executes.  A line is executable when the compiler gives it code (the
line table of some code object of the module).  Each executable line that
never ran must be in ``LEDGER``, named by its module and its text, stripped,
with the reason it may stay unrun.  The script exits nonzero when the suite
fails, when any other line never runs, or when a ledger entry names no unrun
line (the line ran, or is gone).  Lines that run only in a child process
count as unrun.  Tracing makes the suite about three times slower, so this
is a CI step, not a Tier-1 test.  Run it from the repository root:

    python tests/coverage_ledger.py
"""

import os
import sys
import threading
import types
from pathlib import Path

SRC = Path("src").resolve()
PACKAGE = SRC / "latwav"

_POSTCONDITION = "an internal postcondition of exact arithmetic: no input reaches it"
_ANNOTATION = "an import for annotations only, under TYPE_CHECKING"

# (module, line as written, stripped, reason it may stay unrun)
LEDGER = [
    ("intlat.py", 'raise AssertionError("trace recursion lost exactness")', _POSTCONDITION),
    ("intlat.py", 'raise AssertionError("SNF postcondition U*D*V == A failed")', _POSTCONDITION),
    ("intlat.py", 'raise AssertionError(f"lattice membership routes disagree at {p}")',
     _POSTCONDITION),
    ("intlat.py", 'raise AssertionError("coset representative landed inside A*Z^d")',
     _POSTCONDITION),
    ("filters.py", "from .lawton import Filter", _ANNOTATION),
    ("jsonio.py", "from .cascade import CascadeGrid", _ANNOTATION),
    ("jsonio.py", "from .lawton import Filter, ReducedSystem, ResidualReport", _ANNOTATION),
    ("jsonio.py", "from .transfer import TransferReport", _ANNOTATION),
    ("quincunx.py", "from .lawton import SupportSet", _ANNOTATION),
    ("cli.py", "sys.exit(main())",
     "the body of the __main__ guard: it runs under python -m latwav.cli, in a child process"),
]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that some code object compiled from ``path`` maps
    instructions to."""
    lines: set[int] = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[Path, set[int]]]:
    """Run pytest with ``args`` under the collector; its exit code and the
    lines that ran, by module path."""
    ran: dict[Path, set[int]] = {path: set() for path in PACKAGE.glob("*.py")}
    by_name: dict[str, set[int] | None] = {}  # co_filename -> its set, or None

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        try:
            lines = by_name[name]
        except KeyError:
            lines = by_name[name] = ran.get(Path(os.path.realpath(name)))
        if lines is None:
            return None  # no line events outside the package

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        lines.add(frame.f_lineno)
        return local

    import pytest

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    imported = sys.modules.get("latwav")
    if imported is None or Path(imported.__file__).resolve().parent != PACKAGE:
        sys.exit(f"latwav did not import from {PACKAGE}")
    return int(code), ran


def main() -> int:
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))  # for child processes
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"])
    allowed = {(module, text) for module, text, _ in LEDGER}
    used, unexplained, total, ledgered = set(), [], 0, 0
    for path, lines in sorted(ran.items()):
        source = path.read_text().splitlines()
        executable = executable_lines(path)
        total += len(executable)
        for line in sorted(executable - lines):
            key = (path.name, source[line - 1].strip())
            if key in allowed:
                used.add(key)
                ledgered += 1
            else:
                unexplained.append(f"{path.name}:{line}: {key[1]}")
    stale = [f"{module}: {text}" for module, text, _ in LEDGER if (module, text) not in used]
    print(f"{total - ledgered - len(unexplained)} of {total} executable lines ran; "
          f"{ledgered} unrun lines in the ledger, {len(unexplained)} outside it")
    for line in unexplained:
        print(f"unrun, not in the ledger: {line}")
    for entry in stale:
        print(f"ledger entry names no unrun line: {entry}")
    if code != 0:
        print(f"the suite failed (pytest exit {code})")
    return 1 if code or unexplained or stale else 0


if __name__ == "__main__":
    sys.exit(main())
