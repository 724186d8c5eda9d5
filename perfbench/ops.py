"""One benchmark operation: run it, turn its result into bytes, check them.

CLI operations call ``linkchi.cli.main(argv)`` in-process with stdout and
stderr captured to memory.  A duality operation is one library-level
identity check.  Converting a result to bytes and hashing it happens after
the operation's clock stops.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections import namedtuple

CliResult = namedtuple("CliResult", "code stdout stderr")
DualityResult = namedtuple("DualityResult", "identities series")


def run_cli(linkchi, argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = linkchi.cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue())


def run_duality(linkchi, op) -> DualityResult:
    """chi_phi = -bar(chi_phi), chi_delta = bar(chi_delta) up to rotation,
    and chi(hat f) = hat(chi f) for the op's monomial f."""
    invariants, ncalg, genfun = linkchi.invariants, linkchi.ncalg, linkchi.genfun
    with open(op["matrix"], "r", encoding="utf-8") as handle:
        A = linkchi.seifert.parse(handle.read())
    degree = op["degree"]
    cphi = invariants.chi_phi(A, degree)
    phi_ok = cphi == -ncalg.bar(cphi)
    cdelta = invariants.chi_delta(A, degree)
    delta_ok = ncalg.cyclic_reduce(cdelta) == ncalg.cyclic_reduce(ncalg.bar(cdelta))
    f = genfun.monomial(genfun.parse_word(op["f"][len("mono:"):]), degree)
    lhs = invariants.chi(genfun.transform(f, "hat"), A, degree)
    hat_ok = lhs == ncalg.hat(invariants.chi(f, A, degree))
    return DualityResult((phi_ok, delta_ok, hat_ok), (cphi, cdelta, lhs))


def run_op(linkchi, op):
    if "argv" in op:
        return run_cli(linkchi, op["argv"])
    return run_duality(linkchi, op)


def _series_json(series) -> list:
    items = sorted(series.terms.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return [[list(w), c.numerator, c.denominator] for w, c in items]


def output_bytes(result) -> bytes:
    """What the operation produced: CLI stdout, or the duality series."""
    if isinstance(result, CliResult):
        return result.stdout.encode("utf-8")
    return json.dumps([_series_json(s) for s in result.series]).encode("utf-8")


def problem(result) -> str | None:
    """Why a result is a failure regardless of its digest, or None."""
    if isinstance(result, CliResult):
        if result.code != 0:
            return "exit %r: %s" % (result.code, result.stderr.strip()[:200])
        return None
    names = ("chi_phi = -bar(chi_phi)", "chi_delta cyclic duality", "chi(hat f) = hat(chi f)")
    failed = [name for name, ok in zip(names, result.identities) if not ok]
    return "identity failed: " + ", ".join(failed) if failed else None


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
