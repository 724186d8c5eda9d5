import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from helpers import reflection_example, sorted_terms, stabilized_unknot, trefoil
import linkchi
from linkchi import cli, invariants, seifert, selfcheck
from linkchi.cli import main
from linkchi.genfun import BiSeries
from linkchi.ncalg import NCSeries, format_word
from linkchi.selfcheck import SuiteResult
from linkchi.series import Series, unlimited_int_digits


@pytest.fixture
def trefoil_file(tmp_path):
    path = tmp_path / "trefoil.json"
    path.write_text(seifert.serialize(trefoil()))
    return str(path)


@pytest.fixture
def unknot_file(tmp_path):
    path = tmp_path / "unknot.json"
    path.write_text(seifert.serialize(stabilized_unknot()))
    return str(path)


@pytest.fixture
def refl_file(tmp_path):
    path = tmp_path / "refl.json"
    path.write_text(seifert.serialize(reflection_example()))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- validate ---------------------------------------------------------------


def test_validate_ok(capsys, trefoil_file):
    code, out, _ = run(capsys, ["validate", trefoil_file])
    assert code == 0
    assert out.strip() == "ok"


def test_validate_reports_odd_block(capsys, tmp_path):
    path = tmp_path / "odd.json"
    path.write_text(
        json.dumps(
            {
                "components": 1,
                "block_sizes": [3],
                "entries": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
            }
        )
    )
    code, out, _ = run(capsys, ["validate", str(path)])
    assert code == 1
    assert "component 1" in out and "odd" in out


def test_validate_reports_every_broken_axiom_in_order(capsys, tmp_path):
    # block 1 is odd and singular, block 2 has det 4, blocks (1,3) and (3,1)
    # differ; blocks (2,3) and (3,2) agree
    entries = [[0] * 7 for _ in range(7)]
    entries[0][1] = 1
    entries[3][3:5] = [1, 2]
    entries[4][4] = 1
    entries[5][6] = 1
    entries[0][5] = 1
    entries[3][6] = entries[6][3] = 2
    path = tmp_path / "broken_axioms.json"
    path.write_text(json.dumps({"components": 3, "block_sizes": [3, 2, 2], "entries": entries}))
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, err) == (1, "")
    assert out == (
        "component 1: block size 3 is odd\n"
        "component 1: det(A_11 - A_11') = 0, expected 1\n"
        "component 2: det(A_22 - A_22') = 4, expected 1\n"
        "blocks (1,3) and (3,1) are not transposes\n"
    )


def test_validate_malformed_file_exits_2(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ nope")
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "line" in err


def test_missing_file_exits_2(capsys, tmp_path):
    code, _, err = run(capsys, ["validate", str(tmp_path / "absent.json")])
    assert code == 2
    assert "cannot read" in err


def test_non_utf8_matrix_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"components": 1, "block_sizes": [2], "entries": "\xff"}')
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "cannot read" in err


def test_deeply_nested_matrix_file_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "nested too deeply" in err


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(), reason="no int/str digit limit"
)
def test_matrix_integer_beyond_the_digit_limit_exits_2(capsys, tmp_path):
    path = tmp_path / "long.json"
    digits = "9" * (sys.get_int_max_str_digits() + 1)
    path.write_text('{"components": 1, "block_sizes": [2], "entries": [[%s, 1], [0, -1]]}' % digits)
    code, out, err = run(capsys, ["validate", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(str(path)) and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "doc",
    [
        {"components": True, "block_sizes": [2], "entries": [[-1, 1], [0, -1]]},
        {"components": 1, "block_sizes": [True], "entries": [[0]]},
    ],
)
def test_boolean_structure_fields_exit_2(capsys, tmp_path, doc):
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(doc))
    code, _, err = run(capsys, ["validate", str(path)])
    assert code == 2
    assert "must be" in err


def test_component_count_other_than_the_block_count_exits_2(capsys, tmp_path):
    path = tmp_path / "count.json"
    path.write_text(json.dumps({"components": 2, "block_sizes": [2], "entries": [[-1, 1], [0, -1]]}))
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err == "%s: components=2 but block_sizes has 1 entries\n" % path


@pytest.mark.parametrize(
    "entries",
    [
        ["ab", "cd"],
        [{"a": 1, "b": 2}, {"c": 3, "d": 4}],
        [1, 2],
        [None, None],
        None,
        [[[1], [0]], [[0], [1]]],
        [[True, False], [False, True]],
        [[1.0, 0], [0, 1]],
        [[1, 0], [0]],
        [[1, 0, 0], [0, 1, 0]],
        [[1, 0], [0, 1], [0, 0]],
        {"ab": [1, 0], "cd": [0, 1]},
        "ab",
    ],
    ids=[
        "string-rows", "object-rows", "number-rows", "null-rows", "null", "nested-lists",
        "bools", "floats", "ragged-short", "ragged-long", "three-rows", "object", "string",
    ],
)
def test_malformed_entries_exit_2_with_one_message(capsys, tmp_path, entries):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"components": 1, "block_sizes": [2], "entries": entries}))
    code, out, err = run(capsys, ["validate", str(path)])
    assert (code, out) == (2, "")
    assert err == "%s: entries must be a 2x2 integer matrix\n" % path


def usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code, capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["chi", "FILE", "--degree", "-1"],
        ["torsion", "FILE", "--degree", "-1"],
        ["torsion", "FILE", "--degree", "two"],
        ["move", "FILE", "--count", "-2"],
        ["selfcheck", "--degree", "0"],
    ],
)
def test_out_of_range_arguments_are_usage_errors(capsys, trefoil_file, argv):
    argv = [trefoil_file if a == "FILE" else a for a in argv]
    code, err = usage_error(capsys, argv)
    assert code == 2
    assert "expected an integer >=" in err


@pytest.mark.parametrize(
    "argv, prog",
    [
        (["selfcheck", "--degree", "0"], "linkchi selfcheck"),
        (["chi", "FILE", "--degree", "x"], "linkchi chi"),
        (["chi", "FILE", "--bogus"], "linkchi"),
        ([], "linkchi"),
    ],
)
def test_usage_error_is_one_stderr_line(capsys, trefoil_file, argv, prog):
    argv = [trefoil_file if a == "FILE" else a for a in argv]
    code, err = usage_error(capsys, argv)
    assert code == 2
    assert len(err.splitlines()) == 1
    assert err.startswith(prog + ": error: ")


# -- chi ----------------------------------------------------------------------


def test_chi_delta_golden_lines(capsys, trefoil_file):
    code, out, _ = run(capsys, ["chi", trefoil_file, "--f", "delta", "--degree", "4"])
    assert code == 0
    assert out.splitlines() == [
        "1 * x1.x1",
        "-1 * x1.x1.x1",
        "1/2 * x1.x1.x1.x1",
    ]


def test_chi_phi_on_stabilized_unknot_is_empty(capsys, unknot_file):
    code, out, _ = run(capsys, ["chi", unknot_file, "--f", "phi", "--degree", "5"])
    assert code == 0
    assert out == ""


def test_chi_structured_monomial_on_reflection_matrix(capsys, refl_file):
    code, out, _ = run(
        capsys,
        ["chi", refl_file, "--f", "mono:x.z.x.z.x.z.x", "--degree", "4", "--json"],
    )
    assert code == 0
    triples = [tuple(t[:2]) + (tuple(t[2]),) for t in json.loads(out)]
    assert (2, 1, (1, 2, 3, 1)) in triples
    assert (-2, 1, (1, 3, 2, 1)) in triples


def test_chi_phi_signed_values_on_reflection_matrix(capsys, refl_file):
    # with phi's alternating signs the degree-4 coefficients flip
    code, out, _ = run(
        capsys, ["chi", refl_file, "--f", "phi", "--degree", "4", "--json"]
    )
    assert code == 0
    triples = [tuple(t[:2]) + (tuple(t[2]),) for t in json.loads(out)]
    assert (-2, 1, (1, 2, 3, 1)) in triples
    assert (2, 1, (1, 3, 2, 1)) in triples


def test_chi_list_spec(capsys, tmp_path, trefoil_file):
    listing = tmp_path / "series.txt"
    listing.write_text("# a two-term series\n1 x.z\n-1/2 x.z.x.z\n")
    code, out, _ = run(
        capsys, ["chi", trefoil_file, "--f", "list:%s" % listing, "--degree", "2"]
    )
    assert code == 0
    code2, out2, _ = run(capsys, ["chi", trefoil_file, "--f", "delta", "--degree", "2"])
    assert out == out2


def test_list_words_that_repeat_add_up(capsys, tmp_path, trefoil_file):
    listing = tmp_path / "series.txt"
    # x.z.x.z sums to 1/2; x.x and z.z cancel to zero and leave no term
    listing.write_text("1 x.z\n1/3 x.z.x.z\n2 x.x\n1/6 x.z.x.z\n-2 x.x\n1 z.z\n-1 z.z\n")
    code, out, _ = run(
        capsys, ["chi", trefoil_file, "--f", "list:%s" % listing, "--degree", "3"]
    )
    f = BiSeries(3, {"xz": 1, "xzxz": Fraction(1, 2)})
    assert code == 0
    assert out == "".join(line + "\n" for line in invariants.chi(f, trefoil(), 3).to_lines())
    assert cli._load_series_file(str(listing), 3) == f


def test_chi_bad_f_spec_exits_2(capsys, trefoil_file):
    code, _, err = run(capsys, ["chi", trefoil_file, "--f", "gamma"])
    assert code == 2
    assert "unknown f spec" in err


@pytest.mark.parametrize(
    "spec, listing, message",
    [("mono:x.y", None, "bad monomial spec: "), ("list:FILE", "1 x.z 2\n", "FILE:1: expected 'coefficient word'")],
    ids=["monomial-letter", "list-three-fields"],
)
def test_chi_malformed_f_exits_2(capsys, tmp_path, trefoil_file, spec, listing, message):
    path = tmp_path / "series.txt"
    if listing is not None:
        path.write_text(listing)
    spec, message = spec.replace("FILE", str(path)), message.replace("FILE", str(path))
    code, out, err = run(capsys, ["chi", trefoil_file, "--f", spec, "--degree", "2"])
    assert (code, out) == (2, "")
    assert err.startswith(message) and len(err.splitlines()) == 1


def test_chi_non_utf8_list_file_exits_2(capsys, tmp_path, trefoil_file):
    listing = tmp_path / "series.txt"
    listing.write_bytes(b"1 x.z\n\xff\n")
    code, _, err = run(
        capsys, ["chi", trefoil_file, "--f", "list:%s" % listing, "--degree", "2"]
    )
    assert code == 2
    assert "cannot read" in err


def test_list_coefficients_in_exponent_and_fraction_forms(capsys, tmp_path, trefoil_file):
    listing = tmp_path / "series.txt"
    listing.write_text("1e3 x.z\n1.5e-2 x.z.x.z\n-1/2 x.z.x.z.x.z\n1e0003 x.z\n")
    code, out, _ = run(
        capsys, ["chi", trefoil_file, "--f", "list:%s" % listing, "--degree", "3"]
    )
    f = BiSeries(3, {"xz": 2000, "xzxz": Fraction(3, 200), "xzxzxz": Fraction(-1, 2)})
    assert code == 0
    assert out == "".join(line + "\n" for line in invariants.chi(f, trefoil(), 3).to_lines())


# (id, genera, entry bound, f spec, list file, degree, what the case reaches)
TEXT_CASES = [
    ("delta-dense", [1, 1, 1], 2, "delta", None, 8, "dense"),
    ("phi-dense", [1, 1, 1], 2, "phi", None, 8, "dense"),
    ("n11-phi-sparse", [1] * 11, 2, "phi", None, 3, "sparse"),
    ("n11-delta", [1] * 11, 2, "delta", None, 3, ""),
    # x.z.x.z and z.x.z.x trace alike, so every numerator over f's denominator 2 is even
    ("list-common-factor", [1, 1, 1], 2, "list:FILE", "1/2 x.z.x.z\n1/2 z.x.z.x\n", 6, "gcd"),
    ("mono-z", [1, 1, 1], 2, "mono:z", None, 4, ""),
    ("mono-z.z", [1, 1, 1], 2, "mono:z.z", None, 4, "one"),
    ("genus-0-block", [1, 0, 2, 1], 2, "phi", None, 6, ""),
    ("entries-near-1e12", [2, 2], 10**12, "delta", None, 8, ""),
    # tr(P_i Z) = g_i here, so the half terms cancel the trace at every x_i
    ("half-terms-cancel", [1, 1, 1], 2, "list:FILE", "1 x.z\n-1/2 x.z.x.z\n", 4, "cancel"),
]


@pytest.mark.parametrize("genera, bound, spec, listing, degree, reaches",
                         [case[1:] for case in TEXT_CASES], ids=[case[0] for case in TEXT_CASES])
def test_chi_text_is_the_sorted_text_of_the_series(capsys, tmp_path, genera, bound, spec, listing,
                                                   degree, reaches):
    A = seifert.random_seifert_rng(random.Random(1), genera, bound)
    matrix, path = tmp_path / "m.json", tmp_path / "f.txt"
    matrix.write_text(seifert.serialize(A))
    if listing is not None:
        path.write_text(listing)
    spec = spec.replace("FILE", str(path))
    code, out, _ = run(capsys, ["chi", str(matrix), "--f", spec, "--degree", str(degree)])
    f = cli._parse_f_spec(spec, degree)
    series = invariants.chi(f, A, degree)
    assert code == 0
    assert out == "".join(line + "\n" for line in Series.to_lines(series))
    stores = invariants._chi_stores(f, A, degree)[0]
    dense = [isinstance(acc, list) for acc in stores.values()]
    assert {
        "": lambda: True,
        "dense": lambda: all(dense),
        "sparse": lambda: not all(dense),
        "gcd": lambda: series.den < f.den,
        "one": lambda: out.startswith("60 * 1\n"),
        "cancel": lambda: stores[1] == [0] * A.n and stores[2] != [0] * A.n**2,
    }[reaches]()


@pytest.mark.parametrize("coeff", ["1e4301", "1E-4301", "-2.5e+04301", "0e99999", "1e3000000"])
def test_coefficient_exponent_beyond_bound_exits_2(capsys, tmp_path, trefoil_file, coeff):
    # Fraction would build 10**|exponent| exactly: 1e3000000 takes seconds
    listing = tmp_path / "series.txt"
    listing.write_text("1 x.z\n%s x.z.x.z\n" % coeff)
    code, out, err = run(
        capsys, ["chi", trefoil_file, "--f", "list:%s" % listing, "--degree", "2"]
    )
    assert code == 2 and out == ""
    assert err.startswith("%s:2: " % listing) and len(err.splitlines()) == 1


@pytest.mark.parametrize("as_json", [False, True], ids=["lines", "json"])
def test_coefficients_beyond_the_int_digit_limit_print_exactly(capsys, tmp_path, trefoil_file, as_json):
    # 10**4300 * (an integer > 1) has more digits than CPython's default int/str limit
    listing = tmp_path / "series.txt"
    listing.write_text("1e4300 x.z\n1e4300 x.z.x.z\n")
    argv = ["chi", trefoil_file, "--f", "list:%s" % listing, "--degree", "4"]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    code, out, err = run(capsys, argv + ["--json"] * as_json)
    assert code == 0 and err == ""
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    f = BiSeries(4, {"xz": 10**4300, "xzxz": 10**4300})
    series = invariants.chi(f, trefoil(), 4)
    assert max(abs(c.numerator) for c in series.terms.values()) >= 10**4300
    with unlimited_int_digits():
        if as_json:
            expected = json.dumps(series.to_triples()) + "\n"
        else:
            expected = "".join(
                "%d * %s\n" % (c.numerator, format_word(w)) for w, c in sorted_terms(series)
            )
    assert out == expected
    assert all(c.denominator == 1 for c in series.terms.values())


def test_list_line_numbers_count_only_newlines(capsys, tmp_path, trefoil_file):
    # a form feed or U+2028 inside a comment does not start a new line
    listing = tmp_path / "series.txt"
    listing.write_text("# page\x0cbreak\u2028separator\n1 x.q\n", encoding="utf-8")
    code, _, err = run(
        capsys, ["chi", trefoil_file, "--f", "list:%s" % listing, "--degree", "2"]
    )
    assert code == 2 and err.startswith("%s:2: " % listing)


@pytest.mark.parametrize("argv", [["validate", "bad\x00.json"], ["chi", "FILE", "--f", "list:a\x00"]])
def test_unopenable_path_is_an_io_error(capsys, trefoil_file, argv):
    # a NUL byte makes open() raise ValueError, not OSError
    argv = [trefoil_file if a == "FILE" else a for a in argv]
    code, _, err = run(capsys, argv)
    assert code == 2
    assert err.startswith("cannot read") and len(err.splitlines()) == 1


def test_line_breaks_in_arguments_keep_stderr_one_line(capsys, trefoil_file):
    code, err = usage_error(capsys, ["validate", trefoil_file, "a\nb\rc"])
    assert code == 2 and len(err.splitlines()) == 1 and "a\\nb\\nc" in err
    code, _, err = run(capsys, ["validate", "no\nsuch"])
    assert code == 2 and len(err.splitlines()) == 1 and "no\\nsuch" in err


def test_chi_invalid_matrix_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {"components": 1, "block_sizes": [2], "entries": [[0, 0], [0, 0]]}
        )
    )
    code, out, _ = run(capsys, ["chi", str(path), "--f", "delta"])
    assert code == 1
    assert "det" in out


# -- torsion --------------------------------------------------------------------


def test_torsion_output(capsys, trefoil_file):
    code, out, _ = run(capsys, ["torsion", trefoil_file, "--degree", "4"])
    assert code == 0
    assert out.splitlines() == ["1 * 1", "1 * x1^2", "-1 * x1^3", "1 * x1^4"]


def test_torsion_json(capsys, trefoil_file):
    code, out, _ = run(capsys, ["torsion", trefoil_file, "--degree", "3", "--json"])
    assert code == 0
    assert json.loads(out) == [[1, 1, [0]], [1, 1, [2]], [-1, 1, [3]]]


def test_torsion_degree_zero(capsys, trefoil_file):
    code, out, _ = run(capsys, ["torsion", trefoil_file, "--degree", "0"])
    assert code == 0
    assert out == "1 * 1\n"


# -- move -----------------------------------------------------------------------


def test_move_count_zero_echoes_canonically(capsys, trefoil_file):
    code, out, _ = run(capsys, ["move", trefoil_file, "--seed", "9", "--count", "0"])
    assert code == 0
    assert out == seifert.serialize(trefoil())


def test_move_output_validates_and_preserves_chi(capsys, trefoil_file):
    code, out, _ = run(capsys, ["move", trefoil_file, "--seed", "4", "--count", "3"])
    assert code == 0
    moved = seifert.parse(out)
    assert seifert.validate(moved) == []
    assert invariants.chi_delta(moved, 5) == invariants.chi_delta(trefoil(), 5)


def test_move_deterministic(capsys, trefoil_file):
    _, first, _ = run(capsys, ["move", trefoil_file, "--seed", "21", "--count", "4"])
    _, second, _ = run(capsys, ["move", trefoil_file, "--seed", "21", "--count", "4"])
    assert first == second


# n = 4 with a genus-0 component: random_seifert_rng(Random(1), [1, 0, 2, 1], 2)
M4_ENTRIES = [
    [-2, 1, -2, -2, 2, -2, 2, -1],
    [0, 0, 1, -1, 1, -2, 1, 1],
    [-2, 1, -4, 3, -1, -1, 2, -1],
    [-2, -1, 2, -2, -1, 2, 0, -1],
    [2, 1, -1, -1, 2, 3, -1, 1],
    [-2, -2, -1, 2, 2, -2, 0, -2],
    [2, 1, 2, 0, -1, 0, 4, -1],
    [-1, 1, -1, -1, 1, -2, -2, -4],
]


@pytest.mark.parametrize(
    "sizes, entries, seed, out_sizes, out_entries",
    [
        # moves s1, s2, s1, s1, s2, s1 on the trefoil
        (
            [2], [[-1, 1], [0, -1]], 1, [6],
            [
                [0, 0, 0, 0, 0, 0],
                [0, -7, 9, 0, -3, 2],
                [0, 9, -11, 0, 5, -2],
                [0, 0, 1, 0, 0, -2],
                [0, -2, 4, 0, -1, 2],
                [1, 2, -2, -2, 2, 0],
            ],
        ),
        # s1, s2 on component 1, s1, s2 on the genus-0 component 2, s1, s1:
        # both stabilizations insert their rows mid-matrix
        (
            [2, 0, 4, 2], M4_ENTRIES, 9, [4, 2, 4, 2],
            [
                [0, 0, -1, -1, -2, 2, 0, 6, -4, 12, 1, -3],
                [2, 0, -1, -2, 2, -2, 0, 0, 0, 0, 0, 0],
                [-1, 0, 0, 2, -1, 1, -1, -2, 0, -2, 1, 0],
                [-2, 0, 2, 3, 1, -1, -1, -12, 5, -13, -3, 4],
                [-2, 2, -1, 1, -1, 1, -1, 1, 1, 1, 2, 2],
                [2, -2, 1, -1, 0, 0, 1, -1, -1, -1, -2, -2],
                [0, 0, -1, -1, -1, 1, -8, -15, -5, 5, 1, -3],
                [6, 0, -2, -12, 1, -1, -16, -39, -6, 2, 5, -8],
                [-4, 0, 0, 5, 1, -1, -5, -6, -4, 5, -1, -1],
                [12, 0, -2, -13, 1, -1, 6, 3, 6, -8, 1, 3],
                [1, 0, 1, -3, 2, -2, 1, 5, -1, 1, -3, 5],
                [-3, 0, 0, 4, 2, -2, -3, -8, -1, 3, 6, -4],
            ],
        ),
    ],
    ids=["trefoil", "n4-genus0"],
)
def test_move_golden_bytes(capsys, tmp_path, sizes, entries, seed, out_sizes, out_entries):
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"components": len(sizes), "block_sizes": sizes, "entries": entries}))
    code, out, err = run(capsys, ["move", str(path), "--seed", str(seed), "--count", "6"])
    doc = {"components": len(out_sizes), "block_sizes": out_sizes, "entries": out_entries}
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=1) + "\n"


def test_chi_deterministic(capsys, refl_file):
    _, first, _ = run(capsys, ["chi", refl_file, "--f", "phi", "--degree", "4"])
    _, second, _ = run(capsys, ["chi", refl_file, "--f", "phi", "--degree", "4"])
    assert first == second


# -- selfcheck --------------------------------------------------------------------


def test_selfcheck_green(capsys):
    code, out, _ = run(capsys, ["selfcheck", "--seed", "2", "--degree", "3"])
    assert code == 0
    assert "all passed" in out
    suite_lines = [l for l in out.splitlines() if " checks " in l]
    assert len(suite_lines) >= 8


SELFCHECK_DEGREE_5 = """\
nc-ring-axioms        75 checks  ok
nc-involutions       135 checks  ok
special-inverse       25 checks  ok
comm-matrix-lemmas    24 checks  ok
seifert-core          60 checks  ok
s-equivalence         15 checks  ok
duality               24 checks  ok
abelianization         6 checks  ok
oracle-agreement      24 checks  ok
edge-cases            15 checks  ok
10 suites, 403 checks, all passed
"""


# seeds 0-8 and the heavy 15 and 25, which hold every selfcheck seed the benchmark runs
@pytest.mark.parametrize("seed", list(map(str, [*range(9), 15, 25])))
def test_selfcheck_golden_stdout(capsys, seed):
    assert run(capsys, ["selfcheck", "--seed", seed, "--degree", "5"]) == (0, SELFCHECK_DEGREE_5, "")


def test_selfcheck_detects_injected_fault(capsys, monkeypatch):
    real = invariants.tr_monomial

    def corrupted(word, A, degree):
        out = real(word, A, degree)
        bump = NCSeries(out.n, out.trunc, {(1,) * min(2, out.trunc): 1})
        return out + bump

    monkeypatch.setattr(invariants, "tr_monomial", corrupted)
    code, out, _ = run(capsys, ["selfcheck", "--seed", "2", "--degree", "3"])
    assert code == 1
    assert "FAIL" in out


def test_suite_result_counts_checks_and_failures(monkeypatch):
    # the runner names each suite after its function and seeds it with "<seed>:<name>"
    draws = []

    def suite_probe_one(rng, degree):
        draws.append(rng.random())
        return [(True, "first"), (False, "second"), (True, "third"), (False, "fourth")]

    def suite_probe_two(rng, degree):
        return [(degree == 3, "degree")]

    monkeypatch.setattr(selfcheck, "SUITES", (suite_probe_one, suite_probe_two))
    assert selfcheck.run_selfcheck(4, 3) == [
        SuiteResult("probe-one", 4, ["second", "fourth"]),
        SuiteResult("probe-two", 1, []),
    ]
    assert draws == [random.Random("4:probe-one").random()]


# sha256 of repr() of each suite's (ok, message) list beside its generator's state
# after it returns, the ten suites in order: some messages name the drawn words and
# matrices, which stdout does not show, and the state pins the draws of the suites
# whose messages only count their cases
SELFCHECK_DRAWS_DEGREE_5 = {
    0: "c5b52cb3bbd961dbe687d680cba44d2375ec083c42cc6356f025e89d33b7b785",
    15: "c3ba5b6e8c4df94c7a7c26df0b826f899a3e0d5b5ae03c949e55bafb689e02f8",
}


@pytest.mark.parametrize("seed", sorted(SELFCHECK_DRAWS_DEGREE_5))
def test_selfcheck_suites_draw_the_same_cases(monkeypatch, seed):
    recorded = []

    def recording(suite):
        @functools.wraps(suite)  # the runner names a suite by its __name__
        def wrapper(rng, degree):
            checks = suite(rng, degree)
            recorded.append((checks, rng.getstate()))
            return checks
        return wrapper

    monkeypatch.setattr(selfcheck, "SUITES", tuple(map(recording, selfcheck.SUITES)))
    selfcheck.run_selfcheck(seed, 5)
    assert len(recorded) == 10
    assert hashlib.sha256(repr(recorded).encode()).hexdigest() == SELFCHECK_DRAWS_DEGREE_5[seed]


# -- start-up -----------------------------------------------------------------
#
# Other tests of this process have loaded every module already, so only a
# fresh interpreter shows what importing the CLI loads.

SRC = os.path.dirname(os.path.dirname(os.path.abspath(linkchi.__file__)))

STARTUP_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
import linkchi.cli
linkchi.cli.build_parser()
print(sorted({"dataclasses", "inspect", "random", "shutil", "typing"} & set(sys.modules)))
print(sorted(name for name in sys.modules if name.split(".")[0] == "linkchi"))
suites = linkchi.selfcheck
print(suites is sys.modules["linkchi.selfcheck"])
def suite_probe(rng, degree):
    return [(True, "probe")] * 7
suites.SUITES = (suite_probe,)
print(linkchi.cli.main(["selfcheck"]))
try:
    linkchi.nosuch
except AttributeError as exc:
    print(exc)
"""


def test_cli_start_up_loads_only_what_its_commands_run(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-I", "-S", "-c", STARTUP_PROBE, SRC],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.stderr == ""
    assert proc.stdout.splitlines() == [
        "[]",
        "['linkchi', 'linkchi.cli', 'linkchi.commalg', 'linkchi.genfun', 'linkchi.invariants',"
        " 'linkchi.ncalg', 'linkchi.seifert', 'linkchi.series']",
        "True",
        "probe                  7 checks  ok",
        "1 suites, 7 checks, all passed",
        "0",
        "module 'linkchi' has no attribute 'nosuch'",
    ]


def test_selfcheck_in_a_fresh_interpreter_prints_what_it_prints_in_process(capsys, tmp_path):
    argv = ["selfcheck", "--seed", "0", "--degree", "3"]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "linkchi.cli"] + argv,
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == run(capsys, argv)


@pytest.mark.parametrize("argv", [["--help"], ["chi", "--help"], ["selfcheck", "--help"]])
def test_help_does_not_depend_on_the_terminal_width(tmp_path, argv):
    outputs = set()
    for columns in ("40", "200"):
        env = dict(os.environ, PYTHONPATH=SRC, COLUMNS=columns)
        proc = subprocess.run(
            [sys.executable, "-m", "linkchi.cli"] + argv,
            capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.add(proc.stdout)
    assert len(outputs) == 1


# -- out of memory -------------------------------------------------------------


@pytest.mark.parametrize("command, genera, degree", [
    ("torsion", [1], 100000),  # slots of bits(||Z||^50000) per row
    ("chi", [1, 1, 1], 16),  # sum over k <= 16 of 3^k words
])
def test_out_of_memory_is_one_stderr_line_and_exit_1(tmp_path, command, genera, degree):
    resource = pytest.importorskip("resource")
    cap = 300 * 2**20  # bytes of address space, set on the child process alone
    path = tmp_path / "m.json"
    path.write_text(seifert.serialize(seifert.random_seifert_rng(random.Random(1), genera, 2)))
    proc = subprocess.run(
        [sys.executable, "-m", "linkchi.cli", command, str(path), "--degree", str(degree)],
        capture_output=True, text=True, cwd=tmp_path, env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120, preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "linkchi %s: out of memory\n" % command)
