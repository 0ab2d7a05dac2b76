"""Fuzz test of the CLI: generated and mutated JSON filters, matrices and
configs never crash it.  Every call exits 0, 1 or 2 without an exception,
prints nothing or one line of strict canonical JSON, and an exit 2 ends its
stderr with one ``error:`` line, after nothing but ``warning:`` lines."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from latwav.cli import main  # noqa: E402
from latwav.filters import BUNDLED_FILTERS, BUNDLED_MATRICES  # noqa: E402
from latwav.jsonio import canonical_dumps, filter_to_json, matrix_to_json  # noqa: E402
from util import error_line  # noqa: E402

FUZZ = settings(derandomize=True, database=None, max_examples=250, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])

FILTERS = [filter_to_json(make()) for make in BUNDLED_FILTERS.values()]
MATRICES = [matrix_to_json(make().A) for make in BUNDLED_MATRICES.values()]
CONFIGS = [{"tolerance": 1e-10, "cascade_level_cap": 12, "cell_budget": 5_000_000,
            "output_dir": "."}]

# Integers a document may hold: small ones, ones near the float and int64
# limits, and ones beyond double range.
integers = st.integers(-3, 3) | st.integers() | st.sampled_from(
    (2**53 + 1, -(2**63), 2**64, 10**308, 10**400, -(10**400)))
json_values = st.recursive(
    st.none() | st.booleans() | integers | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                  max_size=3),
    max_leaves=8,
)


@st.composite
def mutated(draw, doc):
    """doc with one to three random edits below its top level: a value
    replaced by a generated one, a key dropped, or a value wrapped in a list."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        parent, key = None, None
        node = doc
        while isinstance(node, (dict, list)) and node and (parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        if parent is None:  # every key was dropped
            break
        edit = draw(st.sampled_from(("replace", "drop", "wrap")))
        if edit == "drop" and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = [node] if edit == "wrap" else draw(json_values)
    return doc


@st.composite
def small_filters(draw):
    """A filter on a bundled matrix with one to four random coefficients."""
    matrix = draw(st.sampled_from(MATRICES))
    d = matrix["dim"]
    coordinate = st.integers(-4, 4) | integers
    points = draw(st.lists(st.tuples(*[coordinate] * d), min_size=1, max_size=4, unique=True))
    values = st.sampled_from((0.5**0.5, 0.5, -0.25)) | st.floats(-2, 2)
    coeffs = [{"n": list(p), "re": draw(values), "im": draw(st.sampled_from((0.0, 0.5)))}
              for p in points]
    return {"dim": d, "matrix": matrix, "coeffs": coeffs}


def texts(docs):
    """JSON text of a document, sometimes cut short or with a character
    spliced in."""
    @st.composite
    def build(draw):
        text = json.dumps(draw(docs))
        edit = draw(st.sampled_from(("none", "none", "none", "cut", "splice")))
        at = draw(st.integers(0, len(text)))
        if edit == "cut":
            return text[:at]
        if edit == "splice":
            return text[:at] + draw(st.sampled_from("[]{}\",:-.e0x ")) + text[at:]
        return text
    return build()


filter_docs = st.sampled_from(FILTERS) | st.sampled_from(FILTERS).flatmap(mutated) \
    | small_filters() | small_filters().flatmap(mutated)
matrix_docs = st.sampled_from(MATRICES).flatmap(mutated) | st.sampled_from(MATRICES)
config_docs = st.sampled_from(CONFIGS).flatmap(mutated) \
    | st.dictionaries(st.sampled_from(sorted(CONFIGS[0])), json_values, max_size=2) \
    | st.fixed_dictionaries({}, optional={"tolerance": st.floats(1e-12, 1.0),
                                          "cascade_level_cap": st.integers(1, 20),
                                          "cell_budget": integers})

cases = st.one_of(
    st.tuples(st.just(("verify", "{f}")), texts(filter_docs)),
    st.tuples(st.just(("reduce", "{f}")), texts(filter_docs)),
    st.tuples(st.just(("transfer", "{f}", "--target", "{m}")), texts(filter_docs),
              texts(matrix_docs)),
    st.tuples(st.just(("snf", "{m}")), texts(matrix_docs)),
    st.tuples(st.just(("basis", "{m}")), texts(matrix_docs)),
    st.tuples(st.sampled_from([("cascade", "{f}", "--levels", str(n)) for n in (0, 1, 2)]),
              texts(filter_docs)),
    st.tuples(st.just(("--config", "{c}", "bundled", "haar1d")), texts(config_docs)),
)

BIG = "1" + "0" * 4999  # an integer literal past Python's 4,300-digit limit
FAR_1D = json.dumps({"dim": 1, "matrix": MATRICES[0], "coeffs": [
    {"n": [10**400], "re": 0.5**0.5}, {"n": [10**400 + 1], "re": 0.5**0.5}]})
FAR_2D = json.dumps({"dim": 2, "matrix": MATRICES[1], "coeffs": [
    {"n": [0, 0], "re": 0.5**0.5}, {"n": [10**2200, 1], "re": 0.5**0.5}]})


def strict_line(text: str) -> bool:
    """Whether text is one line of canonical JSON without NaN or infinity."""
    def refuse(token):
        raise ValueError(token)
    line = text.removesuffix("\n")
    return "\n" not in line and canonical_dumps(json.loads(line, parse_constant=refuse)) == line


@FUZZ
@given(cases)
@example((("verify", "{f}"), '{"dim":1,"matrix":{"dim":1,"rows":[[2]]},"coeffs":'
          '[{"n":[' + BIG + '],"re":0.7},{"n":[1],"re":0.7}]}'))
@example((("--config", "{c}", "bundled", "haar1d"), '{"cell_budget":' + BIG + "}"))
@example((("verify", "{f}"), FAR_1D))
@example((("verify", "{f}"), FAR_2D))
@example((("transfer", "{f}", "--target", "{m}"), FAR_2D, json.dumps(MATRICES[1])))
@example((("cascade", "{f}", "--levels", "2"), FAR_1D))
@example((("snf", "{m}"), "[" * 100_000))
@example((("cascade", "{f}", "--levels", "2"), '{"dim":1,"matrix":{"dim":1,"rows":[[2]]},'
          '"coeffs":[{"n":[' + "9" * 4300 + '],"re":0.7},{"n":[1],"re":0.7}]}'))
def test_cli_never_crashes_on_fuzzed_input(case):
    template, *files = case
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in zip([arg[1] for arg in template if arg.startswith("{")], files):
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(text)
        argv = [arg.format(**paths) for arg in template]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            mp.setenv("LATWAV_OUTPUT_DIR", tmp)
            code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    assert out.getvalue() == "" or strict_line(out.getvalue()), argv
    if code == 2:
        error_line(err.getvalue())
