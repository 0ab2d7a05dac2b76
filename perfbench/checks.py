"""Output checks for every op, and the corruptions that prove each one bites.

``check(op, res)`` returns the list of problems with one op's result
(empty when the output is correct).  A result is a dict with the exit
``code``, the ``stdout`` and ``stderr`` text, and ``files``: the line count
of each file the op wrote into its output directory.

The expectations come from the benchmark's own inputs and arithmetic
(`inputs.py`), never from latwav.
"""

from __future__ import annotations

import json
import math

import inputs as gen

QMF_TOL = 1e-9
INTEGRAL_TOL = 1e-9
BUNDLED_TAPS = {"db4": 4, "haar1d": 2, "quincunx_db4": 4, "quincunx_haar": 2}


def strict_json(text: str):
    """Parse JSON, rejecting NaN and Infinity."""
    def reject(constant):
        raise ValueError(f"non-finite number {constant} in output")
    return json.loads(text, parse_constant=reject)


def expected_code(op) -> int:
    return 1 if op["kind"] == "verify" and not op["expect"]["solution"] else 0


def coeff_dict(filter_json) -> dict:
    return {tuple(c["n"]): (c["re"], c.get("im", 0.0)) for c in filter_json["coeffs"]}


def _snf(e, data, bad, files):
    u, dm, v = (tuple(map(tuple, data[k]["rows"])) for k in ("U", "D", "V"))
    if gen.matmul(gen.matmul(u, dm), v) != tuple(map(tuple, e["rows"])):
        bad.append("U*D*V != A")
    d = len(dm)
    if any(dm[i][j] for i in range(d) for j in range(d) if i != j) or \
            [dm[i][i] for i in range(d - 1)] != [1] * (d - 1) or abs(dm[-1][-1]) != 2:
        bad.append(f"D is not diag(1, ..., 1, +/-2): {dm}")
    if abs(gen.det(u)) != 1 or abs(gen.det(v)) != 1:
        bad.append("U or V is not unimodular")


def _basis(e, data, bad, files):
    rows = e["rows"]
    u = data["adapted_basis"]["rows"]
    cols = [tuple(r[j] for r in u) for j in range(len(u))]
    if abs(gen.det(u)) != 1:
        bad.append("adapted basis is not unimodular")
    if tuple(data["coset_rep"]) != cols[-1]:
        bad.append("coset_rep is not the last adapted basis vector")
    if not all(gen.in_lattice(rows, c) for c in cols[:-1]):
        bad.append("a leading adapted basis vector is outside A*Z^d")
    if gen.in_lattice(rows, cols[-1]) or not gen.in_lattice(rows, [2 * x for x in cols[-1]]):
        bad.append("coset_rep does not generate the other coset of A*Z^d")


def _reduce(e, data, bad, files):
    size = e["size"]
    first = data["equations"][0] if data["equations"] else None
    if len(data["support"]) != size:
        bad.append(f"support has {len(data['support'])} points, input has {size}")
    if first is None or any(first["k"]) or any(data["index_set"][0]):
        bad.append("the zero generator is not first")
    elif len(first["pairs"]) != size or first["rhs"] != 1:
        bad.append(f"zero equation has {len(first['pairs'])} pairs and rhs {first['rhs']}")
    if len(data["equations"]) != len(data["index_set"]):
        bad.append("equation count differs from index set size")


def _verify(e, data, bad, files):
    if data["pass"] != e["solution"]:
        bad.append(f"pass = {data['pass']}, expected {e['solution']}")
    if e["solution"] and not data["qmf_deviation"] <= QMF_TOL:
        bad.append(f"qmf_deviation {data['qmf_deviation']} > {QMF_TOL}")
    if abs(data["sum_residual"] - abs(e["coeff_sum"] - gen.SQRT2)) > 1e-9:
        bad.append(f"sum_residual {data['sum_residual']} != |sum h - sqrt 2|")
    worst = max([data["sum_residual"]] + [r["residual"] for r in data["per_index"]])
    if data["max_residual"] != worst:
        bad.append("max_residual is not the largest residual")


def _transfer(e, data, bad, files):
    src = e["coeffs"]
    tgt_filter = data["target_filter"]
    if tgt_filter["matrix"]["rows"] != [list(r) for r in e["target"]]:
        bad.append("target filter is not over the target matrix")
    tgt = coeff_dict(tgt_filter)
    smap = {tuple(a): tuple(b) for a, b in data["support_map"]}
    if coeff_dict(data["source_filter"]) != src:
        bad.append("source filter differs from the input")
    if set(smap) != set(src) or set(smap.values()) != set(tgt) or len(tgt) != len(src):
        bad.append("support_map is not a bijection between the supports")
    elif any(src[a] != tgt[b] for a, b in smap.items()):
        bad.append("a target coefficient differs from its source through support_map")
    if len({tuple(b) for _, b in data["index_map"]}) != len(data["index_map"]):
        bad.append("index_map is not injective")


def _cascade(e, data, bad, files):
    cells, stem = data["cells"], e["stem"]
    if abs(data["integral"] - 1.0) > INTEGRAL_TOL:
        bad.append(f"integral {data['integral']} is not 1")
    if data["level"] != e["levels"] or len(data["differences"]) != e["levels"]:
        bad.append(f"{len(data['differences'])} differences for {e['levels']} levels")
    csvs = [f"{stem}.grid.csv"] + ([f"{stem}.phi.csv"] if e["dim"] == 1 else [])
    for name in csvs:
        if files.get(name) != cells + 1:
            bad.append(f"{name} has {files.get(name)} rows for {cells} cells")


def _quincunx(e, data, bad, files):
    w = e["width"]
    if data["half_width"] != w or data["pattern_holds"] is not True:
        bad.append("parity pattern does not hold")
    name = f"quincunx_pattern_w{w}.csv"
    if files.get(name) != (2 * w + 1) ** 2 + 1:
        bad.append(f"{name} has {files.get(name)} rows")


def _encode(e, data, bad, files):
    d, n, p = e["d"], e["n"], e["point"]
    w = 1 << n
    radix = sum(c << (2 * n * j) for j, c in enumerate(p))
    in_sup = all(0 <= c < w for c in p)
    in_idx = all(abs(c) < w for c in p) and p[-1] % 2 == 0 and radix >= 0
    want = {"point": p, "radix_value": radix, "in_support_window": in_sup,
            "in_index_window": in_idx}
    flat = p[0]
    if d >= 2:
        x_radix = sum(c << (2 * n * j) for j, c in enumerate(p[:-1]))
        flat = (p[-1] // 2) * (1 << ((2 * d - 3) * n + 2)) + 2 * x_radix + (p[-1] & 1)
        want["flatten_value"] = flat
    want["support_code"] = flat if in_sup else None
    want["index_code"] = flat if in_idx else None
    if data != want:
        bad.append(f"encode eval {data} != {want}")


def _bundled(e, data, bad, files):
    rows = data["matrix"]["rows"]
    coeffs = {n: re for n, (re, im) in coeff_dict(data).items()}
    if len(coeffs) != BUNDLED_TAPS[e["name"]]:
        bad.append(f"{e['name']} has {len(coeffs)} taps")
    elif gen.lawton_residual(rows, coeffs) > gen.DAUB_TOL:
        bad.append(f"{e['name']} does not solve its Lawton system")


def check(op, res) -> list[str]:
    bad = []
    want = expected_code(op)
    if res["code"] != want:
        bad.append(f"exit code {res['code']}, expected {want}")
    if "Traceback" in res["stderr"]:
        bad.append("traceback on stderr")
    try:
        data = strict_json(res["stdout"])
    except ValueError as exc:
        return bad + [f"stdout is not strict JSON: {exc}"]
    kind, e = op["kind"], op["expect"]
    try:
        CHECKS[kind](e, data, bad, res["files"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        bad.append(f"malformed {kind} output: {type(exc).__name__}: {exc}")
    return bad


CHECKS = {
    "snf": _snf, "basis": _basis, "reduce": _reduce, "verify": _verify,
    "transfer": _transfer, "cascade": _cascade, "quincunx": _quincunx,
    "encode": _encode, "bundled": _bundled,
}


# --- corruptions -------------------------------------------------------------

def _edit(fn):
    def corrupt(res):
        data = json.loads(res["stdout"])
        fn(data)
        return dict(res, stdout=json.dumps(data))
    return corrupt


def _nudge(x: float) -> float:
    return math.nextafter(x, math.inf)


def _drop_row(name_of):
    def corrupt(res, op):
        files = dict(res["files"])
        files[name_of(op)] -= 1
        return dict(res, files=files)
    return corrupt


def _swap_first_two(m):
    m[0][1], m[1][1] = m[1][1], m[0][1]


GENERIC = {
    "exit code 2": lambda res: dict(res, code=2),
    "traceback": lambda res: dict(res, stderr=res["stderr"] + "Traceback (most recent call last):\n"),
    "NaN in stdout": _edit(lambda d: d.__setitem__("nan", float("nan"))),
}

SPECIFIC = {
    "snf": {"D entry": _edit(lambda d: d["D"]["rows"][0].__setitem__(0, 3))},
    "basis": {"coset_rep": _edit(lambda d: d.__setitem__("coset_rep", [0] * len(d["coset_rep"])))},
    "reduce": {
        "zero rhs": _edit(lambda d: d["equations"][0].__setitem__("rhs", 0)),
        "lost pair": _edit(lambda d: d["equations"][0]["pairs"].pop()),
    },
    "verify": {
        "pass flipped": _edit(lambda d: d.__setitem__("pass", not d["pass"])),
        "sum residual": _edit(lambda d: d.__setitem__("sum_residual", d["sum_residual"] + 1e-6)),
        "max residual": _edit(lambda d: d.__setitem__("max_residual", _nudge(d["max_residual"]))),
    },
    "transfer": {
        "target coefficient": _edit(lambda d: d["target_filter"]["coeffs"][0].__setitem__(
            "re", _nudge(d["target_filter"]["coeffs"][0]["re"]))),
        "support_map": _edit(lambda d: _swap_first_two(d["support_map"])),
    },
    "cascade": {
        "integral": _edit(lambda d: d.__setitem__("integral", d["integral"] + 1e-6)),
        "lost level": _edit(lambda d: d["differences"].pop()),
    },
    "quincunx": {"pattern": _edit(lambda d: d.__setitem__("pattern_holds", False))},
    "encode": {"radix": _edit(lambda d: d.__setitem__("radix_value", d["radix_value"] + 1))},
    "bundled": {"coefficient": _edit(lambda d: d["coeffs"][0].__setitem__("re", d["coeffs"][0]["re"] + 1e-6))},
}

FILE_CORRUPTIONS = {
    "cascade": {"grid row": _drop_row(lambda op: f"{op['expect']['stem']}.grid.csv")},
    "quincunx": {"csv row": _drop_row(lambda op: f"quincunx_pattern_w{op['expect']['width']}.csv")},
}


def self_check(op, res) -> list[str]:
    """Names of the corruptions of a correct result that ``check`` accepts."""
    missed = []
    if check(op, res):
        return ["(the uncorrupted result already fails)"]
    corruptions = dict(GENERIC, **SPECIFIC[op["kind"]])
    for name, corrupt in corruptions.items():
        if not check(op, corrupt(res)):
            missed.append(name)
    for name, corrupt in FILE_CORRUPTIONS.get(op["kind"], {}).items():
        if not check(op, corrupt(res, op)):
            missed.append(name)
    return missed
