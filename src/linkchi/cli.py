"""Command-line front end.

Subcommands: validate, chi, torsion, move, selfcheck.  Exit codes are 0 on
success, 1 on a semantic failure (invalid matrix, failed check) and 2 on an
I/O or parse error.  All randomness flows from the explicit --seed option.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import genfun, invariants, seifert, selfcheck


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError) as exc:  # ValueError: undecodable text, NUL in the path
        raise _CliError(2, "cannot read %s: %s" % (path, exc)) from None


def _load_matrix(path: str) -> seifert.SeifertMatrix:
    text = _read_text(path)
    try:
        return seifert.parse(text)
    except seifert.MatrixFormatError as exc:
        raise _CliError(2, "%s: %s" % (path, exc)) from None


def _int_at_least(low: int):
    """argparse type for integers >= low; anything else is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError("expected an integer >= %d, got %r" % (low, text))
        return value

    return parse


def _one_line(message: str) -> str:
    """A message for stderr with its line breaks (say, from a file name) escaped."""
    return "\\n".join(message.splitlines())


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, ``prog: error: message``, exit 2."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, _one_line(message)))


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


# Fraction("1e<k>") builds 10**|k| exactly, in time growing faster than |k|;
# the bound matches CPython's default limit on the digits of an int.
_MAX_EXPONENT = 4300


def _parse_coeff(text: str) -> Fraction:
    """A ``list:`` coefficient such as ``-1/2`` or ``1.5e-2``; |exponent| <= _MAX_EXPONENT."""
    _, e, exponent = text.lower().partition("e")
    digits = exponent.lstrip("+-").replace("_", "").lstrip("0")
    if e and digits.isdecimal() and (
        len(digits) > len(str(_MAX_EXPONENT)) or int(digits) > _MAX_EXPONENT
    ):
        raise ValueError("coefficient exponent beyond +-%d" % _MAX_EXPONENT)
    return Fraction(text)


def _load_series_file(path: str, degree: int) -> genfun.BiSeries:
    # "\n" only: str.splitlines() also breaks at form feeds and U+2028,
    # which would shift the line numbers of the messages
    lines = _read_text(path).split("\n")
    terms = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise _CliError(
                2, "%s:%d: expected 'coefficient word'" % (path, lineno)
            )
        try:
            coeff = _parse_coeff(parts[0])
            word = genfun.parse_word(parts[1])
        except (ValueError, ZeroDivisionError) as exc:
            raise _CliError(2, "%s:%d: %s" % (path, lineno, exc)) from None
        terms[word] = terms.get(word, Fraction(0)) + coeff
    return genfun.BiSeries(degree, terms)


def _parse_f_spec(spec: str, degree: int) -> genfun.BiSeries:
    if spec in ("delta", "phi"):
        return genfun.builtin_series(spec, degree)
    if spec.startswith("mono:"):
        try:
            return genfun.monomial(genfun.parse_word(spec[5:]), degree)
        except ValueError as exc:
            raise _CliError(2, "bad monomial spec: %s" % exc) from None
    if spec.startswith("list:"):
        return _load_series_file(spec[5:], degree)
    raise _CliError(2, "unknown f spec %r (want delta|phi|mono:<word>|list:<path>)" % spec)


def _require_valid(A: seifert.SeifertMatrix) -> None:
    problems = seifert.validate(A)
    if problems:
        for problem in problems:
            print(problem)
        raise _CliError(1, "matrix is not a Seifert matrix")


def _print_series(series, as_json: bool) -> None:
    if as_json:
        print(json.dumps(series.to_triples()))
    else:
        for line in series.to_lines():
            print(line)


def cmd_validate(args) -> int:
    A = _load_matrix(args.file)
    problems = seifert.validate(A)
    if problems:
        for problem in problems:
            print(problem)
        return 1
    print("ok")
    return 0


def cmd_chi(args) -> int:
    A = _load_matrix(args.file)
    _require_valid(A)
    f = _parse_f_spec(args.f, args.degree)
    _print_series(invariants.chi(f, A, args.degree), args.json)
    return 0


def cmd_torsion(args) -> int:
    A = _load_matrix(args.file)
    _require_valid(A)
    _print_series(invariants.torsion_polynomial(A, args.degree), args.json)
    return 0


def cmd_move(args) -> int:
    A = _load_matrix(args.file)
    _require_valid(A)
    B = seifert.apply_random_moves(A, args.seed, args.count)
    sys.stdout.write(seifert.serialize(B))
    return 0


def cmd_selfcheck(args) -> int:
    results = selfcheck.run_selfcheck(args.seed, args.degree)
    all_ok = True
    for res in results:
        status = "ok" if res.passed else "FAIL"
        print("%-20s %3d checks  %s" % (res.name, res.checks, status))
        for failure in res.failures:
            print("  failed: %s" % failure)
        all_ok = all_ok and res.passed
    total = sum(r.checks for r in results)
    print("%d suites, %d checks, %s" % (len(results), total, "all passed" if all_ok else "FAILURES"))
    return 0 if all_ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="linkchi",
        description="Exact trace invariants of boundary-link Seifert matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Seifert axioms of a matrix file")
    p.add_argument("file")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("chi", help="compute the chi invariant of a matrix")
    p.add_argument("file")
    p.add_argument("--f", default="delta", help="delta|phi|mono:<word>|list:<path>")
    p.add_argument("--degree", type=_int_at_least(0), default=8)
    p.add_argument("--json", action="store_true", help="emit coefficient triples")
    p.set_defaults(func=cmd_chi)

    p = sub.add_parser("torsion", help="compute the torsion polynomial expansion")
    p.add_argument("file")
    p.add_argument("--degree", type=_int_at_least(0), default=8)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("move", help="apply random S-equivalence moves")
    p.add_argument("file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=_int_at_least(0), default=5)
    p.set_defaults(func=cmd_move)

    p = sub.add_parser("selfcheck", help="run the property suites")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--degree", type=_int_at_least(1), default=5)
    p.set_defaults(func=cmd_selfcheck)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CliError as exc:
        print(_one_line(exc.message), file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(_one_line(str(exc)), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
