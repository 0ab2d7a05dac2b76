"""Named one-line mutants of ``src/latwav`` that the test suite must kill.

Each entry is a line of the package as written, a mutant of that line, and
the test file that must fail under the mutant.  Every one of them once passed
the whole suite.  For each, the script copies ``src`` to a temporary
directory, replaces the line there (failing loudly unless it occurs exactly
once), checks that ``latwav`` imports from the copy, and requires
``pytest -x`` on the test file to report failing tests.  It exits nonzero when
a mutant survives.  Run it from the repository root:

    python tests/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

# (module, line as written, mutant line, test file that must fail)
MUTANTS = [
    ("transfer.py",
     "    if image != set(sys_b.index_set) or len(image) != len(eta):",
     "    if image != set(sys_b.index_set) and len(image) != len(eta):",
     "tests/test_transfer.py"),
    ("transfer.py",
     "        if cb - ca != shift:",
     "        if cb - ca > shift:",
     "tests/test_transfer.py"),
    ("transfer.py",
     "                     tuple(map(operator.sub, support_map[b], support_map[a]))",
     "                     tuple(map(operator.sub, support_map[a], support_map[b]))",
     "tests/test_transfer.py"),
    ("lawton.py",
     "        yield a, ca, tails[ca & 1][start:]",
     "        yield a, ca, tails[ca & 1][start + 1:]",
     "tests/test_verify.py"),
    ("lawton.py",
     "    for a, ca, start in zip(chart.support_order, chart.codes, starts):",
     "    for a, ca, start in sorted(zip(chart.support_order, chart.codes, starts),"
     " key=lambda t: t[1] & 1):",
     "tests/test_exact_properties.py"),
    ("cascade.py",
     "        if diffs[-1] < tol:",
     "        if tol > 0.0:",
     "tests/test_cascade.py"),
    ("cascade.py",
     "    sign = 1 if matrix.det > 0 else -1",
     "    sign = 1",
     "tests/test_cascade.py"),
    ("intlat.py",
     "    if sorted(diag) != [1] * (d - 1) + [2]:",
     "    if 2 not in diag:",
     "tests/test_intlat.py"),
    ("intlat.py",
     "            if best is None:  # a zero block: A is singular",
     "            if best is None and s + 1 < d:",
     "tests/test_intlat.py"),
    ("lawton.py",
     "        return self.max_residual <= tolerance",
     "        return self.max_residual < tolerance",
     "tests/test_cli.py"),
    ("lawton.py",
     "            sums[v] = acc + ha * conj[b]",
     "            sums[v] = acc + ha * coeffs[b]",
     "tests/test_verify.py"),
    ("verify.py",
     "    return tuple(math.pi * (x & 1) for x in filt.matrix.adapted_basis_inv.rows[-1])",
     "    return tuple(math.pi * x for x in filt.matrix.adapted_basis_inv.rows[-1])",
     "tests/test_records.py"),
    ("verify.py",
     "    return tuple(math.pi * (x & 1) for x in filt.matrix.adapted_basis_inv.rows[-1])",
     "    return tuple(math.pi * (x & 1) for x in filt.matrix.adapted_basis_inv.rows[0])",
     "tests/test_verify.py"),
    ("verify.py",
     "        power.append(re * re + im * im)  # no ** 2: it raises on overflow",
     "        power.append(re * re)",
     "tests/test_verify.py"),
    ("verify.py",
     "                term = map(cmath.rect, repeat(h.real), phase)",
     "                term = map(cmath.rect, repeat(abs(h.real)), phase)",
     "tests/test_verify.py"),
    ("verify.py",
     "    except ValueError:  # an infinite phase: its exponential is undefined",
     "    except ZeroDivisionError:",
     "tests/test_verify.py"),
    ("verify.py",
     "    return math.nan if any(map(math.isnan, dev)) else max(dev)",
     "    return max(dev)",
     "tests/test_verify.py"),
    ("jsonio.py",
     "    if not isinstance(entries, list) or not entries:",
     "    if not isinstance(entries, list) and not entries:",
     "tests/test_jsonio.py"),
    ("cli.py",
     '    _require(levels >= 0, f"--levels must be nonnegative, got {levels}")',
     '    _require(levels > 0, f"--levels must be nonnegative, got {levels}")',
     "tests/test_cli.py"),
    ("cli.py",
     '    _require(args.width >= 1, f"--width must be >= 1, got {args.width}")',
     '    _require(args.width > 1, f"--width must be >= 1, got {args.width}")',
     "tests/test_cli.py"),
    ("cli.py",
     "    _require((2 * args.width + 1) ** 2 <= config.cell_budget,",
     "    _require((2 * args.width + 1) ** 2 < config.cell_budget,",
     "tests/test_cli.py"),
    ("cli.py",
     "    _require((2 * args.width + 1) ** 2 <= config.cell_budget,",
     "    _require((2 * args.width) ** 2 <= config.cell_budget,",
     "tests/test_cli.py"),
    ("cli.py",
     "        sys.stdout.flush()",
     "        pass",
     "tests/test_cli.py"),
    # killed by test_run_flushes_stdout_then_exits_with_the_code
    ("cli.py",
     "    return 1",
     "    return 0",
     "tests/test_cli.py"),
    # killed by test_a_failed_artifact_write_leaves_no_file (a traceback, not exit 1)
    ("cli.py",
     "    except OSError as exc:  # a failed write: to stdout, or of an artifact (its filename)",
     "    except BrokenPipeError as exc:",
     "tests/test_cli.py"),
    # killed by test_a_failed_rename_leaves_the_output_directory_as_it_was: the three
    # artifacts renamed before phi.csv's rename fails stay under their final names
    ("cli.py",
     "        for stale in [*temps.values(), *renamed]:",
     "        for stale in temps.values():",
     "tests/test_cli.py"),
    # killed by test_a_stderr_that_cannot_be_written_keeps_the_exit_code: a failed stderr
    # write escapes main, as a traceback that cannot be printed either
    ("cli.py",
     "    except OSError:",
     "    except ():",
     "tests/test_cli.py"),
]


def survives(module: str, line: str, mutant: str, test: str) -> bool:
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree("src", tmp, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = Path(tmp, "latwav", module)
        lines = path.read_text().split("\n")
        if lines.count(line) != 1:
            sys.exit(f"{module}: {line.strip()!r} occurs {lines.count(line)} times, not once")
        lines[lines.index(line)] = mutant
        path.write_text("\n".join(lines))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        where = subprocess.run([sys.executable, "-c", "import latwav; print(latwav.__file__)"],
                               env=env, capture_output=True, text=True, check=True).stdout
        if not where.startswith(tmp):
            sys.exit(f"latwav imports from {where.strip()}, not from the mutated copy")
        run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                              test], env=env, capture_output=True, text=True)
    # pytest exits 1 when tests fail; any other code (a collection error, say) is no kill.
    print(f"{'survives' if run.returncode != 1 else 'killed  '} {module}: {mutant.strip()}"
          f"  [{test}, pytest exit {run.returncode}]")
    return run.returncode != 1


if __name__ == "__main__":
    survivors = [m for m in MUTANTS if survives(*m)]
    sys.exit(f"{len(survivors)} mutant(s) survive" if survivors else 0)
