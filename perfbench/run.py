"""latwav benchmark: the CLI end to end, and a traced per-layer run.

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; it measures the checkout's own
`src/latwav` (children get `PYTHONPATH=<checkout>/src`, and the benchmark
asserts that is what they import).  It needs only the Python, numpy and
scipy that latwav itself needs.

With ``--trace 0`` it times one closed-loop client that replays the
workload's op list (see workloads.py) as `python -m latwav.cli ...`
subprocesses, one at a time, in whole passes until the op time adds up to
at least ``--seconds``,
checks every output (checks.py) and prints the end-to-end metrics.  With
``--trace 1`` it runs one pass of the op list, each op once untraced and
once under launcher.py, and prints the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it describe the environment,
the op mix and every metric by name and unit.  The exit code is 1 when any
output check failed, and 2 when there is no checkout to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
PY = sys.executable

SETUP_SAMPLES = 4
IMPORT_SAMPLES = 3
TAIL_BEYOND = 10
OP_TIMEOUT_S = 120
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {
    "setup_s": "s", "ops_per_s": "ops/s", "latency_p50_ms": "ms",
    "latency_tail_ms": "ms", "cpu_ms_p50": "ms", "rss_max_mb": "MB", "ok_ratio": "1",
}
LAYERS = ("cli", "intlat", "lawton", "encode", "transfer", "verify", "cascade",
          "jsonio", "quincunx")
PER_LAYER = dict(
    [("import.total_s", "s"), ("import.scipy_s", "s"), ("import.numpy_s", "s"),
     ("import.in_op_s", "s"), ("cli.main.self_s", "s")]
    + [(f"intlat.{n}", u) for n, u in (
        ("from_matrix.calls", "count"), ("from_matrix.self_s", "s"),
        ("is_expansive.self_s", "s"), ("smith_normal_form.self_s", "s"),
        ("in_dilated_lattice.calls", "count"), ("in_dilated_lattice.self_s", "s"),
        ("chart.calls", "count"), ("chart.self_s", "s"))]
    + [(f"lawton.{n}", u) for n, u in (
        ("build_reduced_system.calls", "count"), ("build_reduced_system.self_s", "s"),
        ("support_points", "count"), ("index_set_size", "count"), ("pairs", "count"),
        ("build_reduced_system.distinct_ratio", "1"))]
    + [("encode.calls", "count"), ("encode.self_s", "s")]
    + [(f"transfer.{n}", u) for n, u in (
        ("transfer.self_s", "s"), ("to_one_d.self_s", "s"), ("from_one_d.self_s", "s"),
        ("verify_isomorphism.calls", "count"), ("verify_isomorphism.self_s", "s"))]
    + [("verify.lawton_residuals.self_s", "s"), ("verify.qmf_check.self_s", "s"),
       ("verify.pair_terms", "count")]
    + [(f"cascade.{n}", u) for n, u in (
        ("run_cascade.self_s", "s"), ("cascade_step.self_s", "s"),
        ("level_difference.self_s", "s"), ("cells", "count"), ("cells_per_s", "1/s"))]
    + [("jsonio.load.self_s", "s"), ("jsonio.dump.self_s", "s"), ("jsonio.out_bytes", "B"),
       ("quincunx.support_pattern.self_s", "s")]
    + [(f"{layer}.errors", "count") for layer in LAYERS]
    + [("trace.overhead_ratio", "1"), ("trace.ops", "count"), ("trace.absent", "count")]
)


class Bench:
    """One benchmark run: a private work directory and the child environment."""

    def __init__(self, workload: str, seed: int):
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.indir = self.dir / "in"
        self.indir.mkdir(parents=True)
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    def spawn(self, argv: list[str], outdir: Path, stdout: Path, stderr: Path):
        """Run one child to completion: (wall_s, cpu_s, maxrss_kb, exit code)."""
        env = dict(self.env, LATWAV_OUTPUT_DIR=str(outdir))
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=self.dir)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode

    def run_op(self, op: dict, index: int, spans: Path | None = None) -> dict:
        """One CLI call, timed from spawn to reap, with its result read back."""
        outdir = self.dir / f"out{index}"
        outdir.mkdir()
        stdout, stderr = self.dir / f"stdout{index}", self.dir / f"stderr{index}"
        if spans is None:
            argv = [PY, "-m", "latwav.cli", *op["argv"]]
        else:
            argv = [PY, str(HERE / "launcher.py"), str(spans), str(index), *op["argv"]]
        wall, cpu, rss_kb, code = self.spawn(argv, outdir, stdout, stderr)
        files = {p.name: p.read_bytes() for p in outdir.iterdir()}
        res = {
            "code": code,
            "stdout": stdout.read_text(errors="replace"),
            "stderr": stderr.read_text(errors="replace"),
            "files": {name: data.count(b"\n") for name, data in files.items()},
        }
        out_bytes = stdout.stat().st_size + sum(len(d) for d in files.values())
        shutil.rmtree(outdir)
        stdout.unlink()
        stderr.unlink()
        return {"op": op, "wall": wall, "cpu": cpu, "rss_mb": rss_kb / 1024.0,
                "res": res, "out_bytes": out_bytes, "problems": checks.check(op, res)}

    def python(self, *args: str) -> tuple[float, subprocess.CompletedProcess]:
        start = time.perf_counter()
        proc = subprocess.run([PY, *args], capture_output=True, text=True, env=self.env,
                              cwd=self.dir, timeout=OP_TIMEOUT_S)
        return time.perf_counter() - start, proc

    def setup_samples(self, count: int) -> list[float]:
        """Wall times of `import latwav` in ``count`` fresh interpreters;
        asserts each one imported the checkout's package."""
        samples = []
        for _ in range(count):
            wall, proc = self.python("-c", "import latwav, sys; sys.stdout.write(latwav.__file__)")
            if proc.returncode != 0 or Path(proc.stdout).resolve() != SRC / "latwav" / "__init__.py":
                raise SystemExit(f"perfbench: children import {proc.stdout or proc.stderr!r}, "
                                 f"not {SRC / 'latwav'}")
            samples.append(wall)
        return samples


def environment() -> dict:
    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    cpu = next((line.split(":", 1)[1].strip()
                for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    return {
        "commit": commit, "python": platform.python_version(), "executable": PY,
        "numpy": version("numpy"), "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail(walls: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and its rank.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies and the
    maximum is reported, as rank 100."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(setup: list[float], records: list[dict]) -> dict:
    walls = [r["wall"] for r in records]
    ok = sum(1 for r in records if not r["problems"])
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(walls) / sum(walls),
        "latency_p50_ms": 1000.0 * statistics.median(walls),
        "latency_tail_ms": 1000.0 * tail(walls)[0],
        "cpu_ms_p50": 1000.0 * statistics.median(r["cpu"] for r in records),
        "rss_max_mb": max(r["rss_mb"] for r in records),
        "ok_ratio": ok / len(records),
    }


def parse_importtime(stderr: str) -> dict:
    """Cumulative import times from `python -X importtime -c "import latwav"`:
    the package itself, and the outermost scipy and numpy imports under it."""
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"import.total_s": 0.0, "import.scipy_s": 0.0, "import.numpy_s": 0.0}
    ancestors: list[tuple[int, str]] = []
    # importtime prints children before parents; reversed, parents come first.
    for depth, name, seconds in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name == "latwav":
            totals["import.total_s"] += seconds
        for pkg in ("scipy", "numpy"):
            def inside(n, pkg=pkg):
                return n == pkg or n.startswith(pkg + ".")
            if inside(name) and not any(inside(a) for _, a in ancestors):
                totals[f"import.{pkg}_s"] += seconds
        ancestors.append((depth, name))
    return totals


def per_layer(traces: list[dict], traced: list[dict], untraced: list[dict],
              imports: list[dict]) -> dict:
    self_s: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    sizes: Counter = Counter()
    errors: Counter = Counter()
    systems = 0
    absent: set[str] = set()
    for t in traces:
        spans = t["spans"]
        inside = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                inside[parent] += end - start
        for i, (name, start, end, _, span_less) in enumerate(spans):
            self_s[name] += (end - start) - inside[i] - span_less
            calls[name] += 1
        for name, (count, _, own) in t["counted"].items():
            calls[name] += count
            self_s[name] += own
        sizes.update(t["sizes"])
        errors.update(t["errors"])
        systems += t["systems"]
        absent.update(t["absent"])
    m = {key: statistics.median(s[key] for s in imports) for key in imports[0]}
    m["import.in_op_s"] = statistics.median(t["import_s"] for t in traces)
    for name in PER_LAYER:
        stem, _, field = name.rpartition(".")
        if field == "self_s":
            m[name] = self_s[stem]
        elif field == "calls":
            m[name] = calls[stem]
    m.update({k: sizes[k] for k in ("lawton.support_points", "lawton.index_set_size",
                                    "lawton.pairs", "verify.pair_terms", "cascade.cells")})
    builds = calls["lawton.build_reduced_system"]
    m["lawton.build_reduced_system.distinct_ratio"] = systems / builds if builds else 0.0
    step_s = self_s["cascade.cascade_step"]
    m["cascade.cells_per_s"] = sizes["cascade.cells"] / step_s if step_s else 0.0
    m["jsonio.out_bytes"] = sum(r["out_bytes"] for r in traced)
    m.update({f"{layer}.errors": errors[layer] for layer in LAYERS})
    m["trace.overhead_ratio"] = (statistics.median(r["wall"] for r in traced)
                                 / statistics.median(r["wall"] for r in untraced))
    m["trace.ops"] = len(traced)
    m["trace.absent"] = len(absent)
    if absent:
        print(f"trace: absent names {sorted(absent)}")
    return {name: m[name] for name in PER_LAYER}


def residuals_match(bench: Bench, record: dict) -> list[str]:
    """Re-verify a transfer's source and target filters and compare their
    per-index residuals through index_map, bit for bit."""
    data = json.loads(record["res"]["stdout"])
    target = bench.indir / "transfer_target.json"
    target.write_text(json.dumps(data["target_filter"]))
    reports = []
    for path in (record["op"]["expect"]["source"], str(target)):
        _, proc = bench.python("-m", "latwav.cli", "verify", path)
        try:
            reports.append(checks.strict_json(proc.stdout))
        except ValueError as exc:
            return [f"re-verifying {path} gave no report: {exc}; {proc.stderr[-2000:]}"]
    src, tgt = ({tuple(r["k"]): r["residual"] for r in rep["per_index"]} for rep in reports)
    index_map = {tuple(a): tuple(b) for a, b in data["index_map"]}
    bad = []
    if set(index_map) != set(src) or set(index_map.values()) != set(tgt):
        bad.append("index_map does not match the two index sets")
    elif any(src[k] != tgt[index_map[k]] for k in src):
        bad.append("per-index residuals differ under index_map")
    if reports[0]["sum_residual"] != reports[1]["sum_residual"]:
        bad.append("sum residuals differ")
    return bad


def run(args) -> int:
    bench = Bench(args.workload, args.seed)
    try:
        print("env: " + json.dumps(environment()))
        setup = bench.setup_samples(1)
        ops = workloads.build(args.workload, args.seed, bench.indir)
        records: list[dict] = []
        if args.trace:
            # Each op runs untraced and then traced, back to back, so both
            # runs of an op see the same machine state.
            untraced, traced, traces = [], [], []
            for i, op in enumerate(ops):
                untraced.append(bench.run_op(op, 2 * i))
                spans = bench.dir / f"spans{i}.json"
                traced.append(bench.run_op(op, 2 * i + 1, spans))
                if spans.exists():
                    traces.append(json.loads(spans.read_text()))
            records = untraced + traced
            imports = []
            for _ in range(IMPORT_SAMPLES):
                _, proc = bench.python("-X", "importtime", "-c", "import latwav")
                imports.append(parse_importtime(proc.stderr))
        else:
            # setup_s samples are taken before every pass, so they see the
            # same machine states as the ops.
            setup, elapsed = [], 0.0
            while elapsed < args.seconds:
                setup += bench.setup_samples(SETUP_SAMPLES)
                for op in ops:
                    record = bench.run_op(op, len(records))
                    elapsed += record["wall"]
                    records.append(record)

        # Keep the smallest correct output of each command for the checks below.
        smallest: dict[str, dict] = {}
        for r in records:
            if not r["problems"]:
                best = smallest.get(r["op"]["kind"])
                if best is None or len(r["res"]["stdout"]) < len(best["res"]["stdout"]):
                    smallest[r["op"]["kind"]] = r
        for kind, r in sorted(smallest.items()):
            missed = checks.self_check(r["op"], r["res"])
            if missed:
                print(f"perfbench: the {kind} check accepts corrupted output: {missed}",
                      file=sys.stderr)
                return 3
        if "transfer" in smallest:
            smallest["transfer"]["problems"] += residuals_match(bench, smallest["transfer"])

        failed = [r for r in records if r["problems"]]
        for r in failed:
            print(f"FAILED {r['op']['label']}: {'; '.join(r['problems'])}")
            print(f"  stderr: {r['res']['stderr'][-2000:]}")
        mix = Counter(r["op"]["label"] for r in records)
        print(f"ops: {len(records)} ({', '.join(f'{n}x {k}' for k, n in sorted(mix.items()))})")
        print(f"setup_s samples: {[round(s, 4) for s in setup]}")
        if args.trace:
            metrics, units = per_layer(traces, traced, untraced, imports), PER_LAYER
        else:
            metrics, units = end_to_end(setup, records), END_TO_END
            print(f"latency_tail_ms is p{tail([r['wall'] for r in records])[1]:.1f} "
                  f"of {len(records)} ops ({TAIL_BEYOND} ops beyond it)")
        for name, value in metrics.items():
            print(f"{name} = {value:.6g} {units[name]}")
        print(json.dumps({
            "correct": not failed,
            "attempted": len(records),
            "failed": len(failed),
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
        }))
        return 1 if failed else 0
    finally:
        bench.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit so the running child is killed and reaped
    # and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "latwav" / "__init__.py").is_file():
        print(f"perfbench: no latwav package at {SRC / 'latwav'}", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
