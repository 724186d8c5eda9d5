"""Fuzz the command line's exit-code contract.

Whatever the matrix file, the list file and the argument vector hold, the
CLI exits 0, 1 or 2, writes at most one line to stderr and never lets an
exception escape.  Sizes are kept small (degree <= 3, genus <= 2) so each
example runs in milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import random_seifert
from linkchi import seifert
from linkchi.cli import main

FIELDS = ("components", "block_sizes", "entries")

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS + ("x",)), inner, max_size=4),
    max_leaves=10,
)


@st.composite
def valid_docs(draw):
    genera = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
    A = random_seifert(draw(st.integers(0, 50)), genera, 2)
    return json.loads(seifert.serialize(A))


@st.composite
def mutated_docs(draw):
    doc = draw(valid_docs())
    field = draw(st.sampled_from(FIELDS))
    how = draw(st.sampled_from(["delete", "replace", "row", "entry"]))
    if how == "delete":
        del doc[field]
    elif how == "replace" or not doc["entries"]:
        doc[field] = draw(json_values)
    else:
        row = draw(st.integers(0, len(doc["entries"]) - 1))
        if how == "row":
            doc["entries"][row] = draw(st.lists(json_values, max_size=6))
        else:  # still an integer matrix, most likely not a Seifert matrix
            doc["entries"][row][0] += draw(st.integers(1, 3))
    return doc


matrix_texts = st.one_of(
    valid_docs().map(json.dumps),
    valid_docs().map(json.dumps),
    valid_docs().map(json.dumps),
    mutated_docs().map(json.dumps),
    json_values.map(json.dumps),
    st.text(max_size=40),
)

coefficients = st.sampled_from(["1", "-1/2", "0", "3", "1/0", "2.5", "abc", "1e2", "-"])
words = st.one_of(
    st.sampled_from(["x.z", "x", "z", "1", "x.z.x.z", "z.x.x", "x..z", "y", ""]),
    st.text(alphabet="xz.1 y", max_size=8),
)
list_lines = st.one_of(
    st.tuples(coefficients, words).map(" ".join),
    st.sampled_from(["", "# comment", "1 x.z extra", "1"]),
    st.text(max_size=12),
)
list_bytes = st.one_of(
    st.lists(list_lines, max_size=6).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.binary(max_size=12),
)

small_ints = st.one_of(st.integers(-2, 3).map(str), st.sampled_from(["x", "", "1.5", "-"]))
degrees = st.one_of(*[st.just(str(d)) for d in range(4)], small_ints)
tokens = st.text(max_size=6)


@st.composite
def argvs(draw, matrix, series, missing):
    command = draw(st.sampled_from(["validate", "chi", "torsion", "move", "selfcheck", "bogus"]))
    argv = [command]
    if command != "selfcheck":
        argv.append(draw(st.one_of(st.just(matrix), st.just(matrix), st.just(missing), tokens)))
    if command == "chi":
        spec = draw(st.sampled_from(
            ["delta", "phi", "mono:x.z.z.x", "list:" + series, "list:" + missing, "list:",
             "bogus"]) | tokens.map(lambda t: "mono:" + t) | tokens.map(lambda t: "list:" + t))
        argv += ["--f", spec]
    if command in ("chi", "torsion"):
        argv += ["--degree", draw(degrees)]
        if draw(st.booleans()):
            argv.append("--json")
    if command == "move":
        argv += ["--seed", draw(small_ints | tokens), "--count", draw(small_ints)]
    if command == "selfcheck":
        argv += ["--seed", draw(small_ints), "--degree", draw(st.sampled_from(["0", "1", "x"]))]
    return argv + draw(st.one_of(st.just([]), st.just([]), st.lists(tokens, max_size=2)))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(matrix_text=matrix_texts, series=list_bytes, data=st.data())
def test_exit_code_contract(matrix_text, series, data):
    with tempfile.TemporaryDirectory() as tmp:
        matrix = os.path.join(tmp, "matrix.json")
        with open(matrix, "w", encoding="utf-8") as handle:
            handle.write(matrix_text)
        series_path = os.path.join(tmp, "series.txt")
        with open(series_path, "wb") as handle:
            handle.write(series)
        argv = data.draw(argvs(matrix, series_path, os.path.join(tmp, "missing.json")))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
    message = err.getvalue()
    assert code in (0, 1, 2), (argv, code, message)
    assert len(message.splitlines()) <= 1 and "Traceback" not in message, (argv, message)
