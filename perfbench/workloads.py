"""The workloads as fixed op templates (passes) filled in from the seed.

Each workload is one closed-loop client: its op list, one pass, is replayed
in whole passes, one `python -m latwav.cli ...` call at a time, until the
run's time is up.  The seed picks the coefficients, supports, matrices,
translates and points; the template fixes each slot's command, size,
dimension, filter order and cascade level, so two seeds give op lists of
the same cost shape.

An op is a dict: ``kind`` (the command), ``label`` (slot and size),
``argv`` (CLI arguments) and ``expect`` (what `checks.check` verifies).
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import inputs as gen

# One cascade per kind of matrix: 1-D, quincunx, skew 2-D and 3-D, each to
# the level at which it costs about one interpreter start.
CASCADES = (("db4", 8), ("quincunx_haar", 8), ("antidiagonal_db4", 7),
            ("companion3d_db4", 6))


class OpWriter:
    """Writes input files into ``indir`` and collects the op list."""

    def __init__(self, seed: int, indir: Path):
        self.rng = random.Random(seed)
        self.indir = indir
        self.ops: list[dict] = []
        self.family = gen.daubechies_family()
        self._files = 0

    def _write(self, stem: str, data) -> str:
        self._files += 1
        path = self.indir / f"{self._files:03d}_{stem}.json"
        path.write_text(json.dumps(data))
        return str(path)

    def matrix_file(self, rows) -> str:
        return self._write("matrix", gen.matrix_json(rows))

    def filter_file(self, stem: str, rows, coeffs: dict) -> str:
        return self._write(stem, gen.filter_json(rows, coeffs))

    def daub(self, taps: int) -> dict:
        return {(i,): v for i, v in enumerate(self.family[taps])}

    def solution(self, name: str) -> tuple[tuple, dict]:
        """An example filter, moved by a random translate and re-checked."""
        db4 = self.family[4]
        base = {
            "haar1d": (((2,),), {(0,): gen.INV_SQRT2, (1,): gen.INV_SQRT2}),
            "db4": (((2,),), {(i,): v for i, v in enumerate(db4)}),
            "quincunx_haar": (gen.QUINCUNX, {(0, 0): gen.INV_SQRT2, (0, 1): gen.INV_SQRT2}),
            "quincunx_db4": (gen.QUINCUNX, dict(zip(gen.DB4_CARRIED[gen.QUINCUNX], db4))),
            "antidiagonal_db4": (gen.ANTIDIAGONAL, dict(zip(gen.DB4_CARRIED[gen.ANTIDIAGONAL], db4))),
            "companion3d_db4": (gen.COMPANION3D, dict(zip(gen.DB4_CARRIED[gen.COMPANION3D], db4))),
        }[name]
        rows, coeffs = base
        coeffs = gen.moved(self.rng, coeffs)
        if gen.lawton_residual(rows, coeffs) > gen.DAUB_TOL:
            raise RuntimeError(f"benchmark input {name} is not a Lawton solution")
        return rows, coeffs

    def add(self, kind: str, label: str, argv: list[str], **expect) -> None:
        self.ops.append({"kind": kind, "label": label, "argv": argv, "expect": expect})

    # --- one method per command -------------------------------------------

    def snf(self, d: int) -> None:
        rows = gen.random_dyadic(self.rng, d)
        self.add("snf", f"snf d={d}", ["snf", self.matrix_file(rows)], rows=rows)

    def basis(self, d: int) -> None:
        rows = gen.random_dyadic(self.rng, d)
        self.add("basis", f"basis d={d}", ["basis", self.matrix_file(rows)], rows=rows)

    def reduce(self, label: str, rows, coeffs: dict) -> None:
        path = self.filter_file("reduce", rows, coeffs)
        self.add("reduce", f"reduce {label}", ["reduce", path], size=len(coeffs))

    def verify(self, label: str, rows, coeffs: dict, solution: bool) -> None:
        path = self.filter_file("verify", rows, coeffs)
        self.add("verify", f"verify {label}", ["verify", path],
                 solution=solution, coeff_sum=sum(coeffs.values()))

    def transfer(self, label: str, rows, coeffs: dict, target) -> None:
        path = self.filter_file("source", rows, coeffs)
        self.add("transfer", f"transfer {label} -> d={len(target)}",
                 ["transfer", path, "--target", self.matrix_file(target)],
                 source=path, target=target,
                 coeffs={p: (v, 0.0) for p, v in coeffs.items()})

    def cascade(self, label: str, rows, coeffs: dict, levels: int) -> None:
        path = self.filter_file("cascade", rows, coeffs)
        self.add("cascade", f"cascade {label} level {levels}",
                 ["cascade", path, "--levels", str(levels)],
                 levels=levels, stem=Path(path).stem, dim=len(rows))

    def quincunx(self, width: int) -> None:
        self.add("quincunx", f"quincunx pattern w={width}",
                 ["quincunx", "pattern", "--width", str(width)], width=width)

    def encode(self, d: int, n: int) -> None:
        w = 1 << n
        point = [self.rng.randint(-w + 1, w - 1) for _ in range(d)]
        self.add("encode", f"encode eval d={d} N={n}",
                 ["encode", "eval", "--d", str(d), "--N", str(n),
                  "--point=" + ",".join(map(str, point))], d=d, n=n, point=point)

    def bundled(self, name: str) -> None:
        self.add("bundled", f"bundled {name}", ["bundled", name], name=name)

    def random_filter(self, size: int, d: int) -> tuple[tuple, dict]:
        rows = gen.random_dyadic(self.rng, d)
        return rows, gen.random_coeffs(self.rng, gen.random_support(self.rng, size, d))


def cli_small(b: OpWriter) -> None:
    """Every command on small inputs; startup dominates.

    Every slot has a fixed command, size, Daubechies order, dimension and
    cascade level, so the seed moves only values (matrix conjugates,
    translates, coefficients, points) and each pass has the same costs.
    The Daubechies-40 transfer sits here rather than in algebra-large: it
    costs about one interpreter start, like every call in this pass."""
    rng = b.rng
    b.snf(4)
    b.basis(3)
    for taps, d in ((8, 2), (12, 4), (40, 3)):
        b.transfer(f"db{taps}", ((2,),), b.daub(taps), gen.random_dyadic(rng, d))
    for d, n in ((2, 3), (5, 2)):
        b.encode(d, n)
    for name in ("db4", "quincunx_db4"):
        b.verify(name, *b.solution(name), solution=True)
    for name, levels in CASCADES:
        b.cascade(name, *b.solution(name), levels=levels)
    for width in (3, 5):
        b.quincunx(width)
    b.reduce("db12", ((2,),), b.daub(12))
    b.verify("db16", ((2,),), b.daub(16), solution=True)
    b.verify("random L=16 d=2", *b.random_filter(16, 2), solution=False)
    b.bundled("quincunx_db4")


def algebra_large(b: OpWriter) -> None:
    """Large supports through verify, reduce and transfer; lawton dominates."""
    rng = b.rng
    b.verify("random L=512 d=1", *b.random_filter(512, 1), solution=False)
    b.transfer("random L=256 d=2", *b.random_filter(256, 2), gen.random_dyadic(rng, 3))
    b.reduce("random L=256 d=3", *b.random_filter(256, 3))
    b.verify("random L=256 d=2", *b.random_filter(256, 2), solution=False)
    b.reduce("random L=512 d=1", *b.random_filter(512, 1))
    b.transfer("random L=128 d=3", *b.random_filter(128, 3), gen.random_dyadic(rng, 1))
    b.verify("random L=256 d=3", *b.random_filter(256, 3), solution=False)
    b.reduce("random L=128 d=2", *b.random_filter(128, 2))
    b.transfer("random L=256 d=1", *b.random_filter(256, 1), gen.random_dyadic(rng, 2))
    b.verify("random L=128 d=3", *b.random_filter(128, 3), solution=False)


WORKLOADS = {"cli-small": cli_small, "algebra-large": algebra_large}


def build(workload: str, seed: int, indir: Path) -> list[dict]:
    """The op template of ``workload`` with inputs written under ``indir``."""
    b = OpWriter(seed, indir)
    WORKLOADS[workload](b)
    return b.ops
