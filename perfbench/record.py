"""Record the output digest of every pool item, after confirming it.

    python3 perfbench/record.py            # all workloads
    python3 perfbench/record.py torsion    # one workload

Each output is first confirmed through routes independent of the one the
benchmark times, and digests.json is written only if all of them agree:

- chi-wide: tr f(X, Z) summed monomial by monomial with ``tr_monomial``
  (the block-trace formula) equals ``tr_series``; for phi the half-ones part
  equals ``half_rank_correction``; the list file equals hat(delta) built by
  ``genfun.transform``; stdout equals the lines of the oracle-route chi.
- torsion: at degree <= 4, ``abelianize(chi_delta) == log_unit(torsion)``,
  and the full-degree torsion truncates to the low-degree one.
- duality: the three identities hold (the operation checks them itself).
- selfcheck: exit 0 and every suite passed.

Run it only on a tree whose outputs are known to be right: the digests are
the benchmark's definition of a correct answer.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import run

LOW_DEGREE = 4


def _series_from_list_file(genfun, path, degree):
    terms = {}
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line and not line.startswith("#"):
                coeff, word = line.split()
                terms[genfun.parse_word(word)] = Fraction(coeff)
    return genfun.BiSeries(degree, terms)


def _oracle_trace(linkchi, f, A, degree):
    NCSeries = linkchi.ncalg.NCSeries
    acc = NCSeries.zero(A.n, degree)
    for word, coeff in f.terms.items():
        acc = acc + linkchi.invariants.tr_monomial(word, A, degree).scale(coeff)
    return acc


def _text(series) -> str:
    return "".join(line + "\n" for line in series.to_lines())


def confirm_chi_wide(linkchi, op, result):
    invariants, genfun = linkchi.invariants, linkchi.genfun
    with open(op["matrix"], "r", encoding="utf-8") as handle:
        A = linkchi.seifert.parse(handle.read())
    degree = op["degree"]
    spec = op["f"]
    if spec.startswith("list:"):
        path = os.path.join(os.path.dirname(op["matrix"]), spec[len("list:"):])
        f = _series_from_list_file(genfun, path, degree)
        if f != genfun.transform(genfun.delta_series(degree), "hat"):
            return "list file is not hat(delta)"
    else:
        f = genfun.builtin_series(spec, degree)
    oracle = _oracle_trace(linkchi, f, A, degree)
    if oracle != invariants.tr_series(f, A, degree):
        return "tr_monomial sum differs from tr_series"
    half = invariants.i_half_trace(f, A.structure, degree)
    if spec == "phi" and half != invariants.half_rank_correction(A.structure, degree):
        return "half_rank_correction differs from i_half_trace(phi)"
    if _text(oracle - half) != result.stdout:
        return "stdout differs from the oracle-route chi"
    return None


def confirm_torsion(linkchi, op, result):
    invariants, ncalg, commalg = linkchi.invariants, linkchi.ncalg, linkchi.commalg
    with open(op["matrix"], "r", encoding="utf-8") as handle:
        A = linkchi.seifert.parse(handle.read())
    degree = op["degree"]
    low = min(degree, LOW_DEGREE)
    torsion_low = invariants.torsion_polynomial(A, low)
    if ncalg.abelianize(invariants.chi_delta(A, low)) != commalg.log_unit(torsion_low):
        return "abelianize(chi_delta) != log_unit(torsion) at degree %d" % low
    full = invariants.torsion_polynomial(A, degree)
    if full.truncated(low) != torsion_low:
        return "torsion at degree %d does not truncate to degree %d" % (degree, low)
    if _text(full) != result.stdout:
        return "stdout differs from torsion_polynomial"
    return None


def confirm_selfcheck(linkchi, op, result):
    if not result.stdout.rstrip().endswith("all passed"):
        return "selfcheck reported failures"
    return None


CONFIRM = {
    "chi-wide": confirm_chi_wide,
    "torsion": confirm_torsion,
    "duality": lambda linkchi, op, result: None,
    "selfcheck": confirm_selfcheck,
}


def record(linkchi, workload) -> tuple[dict, list[str]]:
    workdir = os.path.join(run.WORK, "record-%s-p%d" % (workload, os.getpid()))
    ops = run.gen.write_inputs(workload, 0, workdir)
    digests, errors = {}, []
    for op in ops:
        result = run.opslib.run_op(linkchi, op)
        error = run.opslib.problem(result) or CONFIRM[workload](linkchi, op, result)
        if error:
            errors.append("%s: %s" % (op["id"], error))
        else:
            digests[op["id"]] = run.opslib.digest(run.opslib.output_bytes(result))
        print("%-14s %s" % (op["id"], error or "confirmed"), flush=True)
    run.shutil.rmtree(workdir, ignore_errors=True)
    return digests, errors


def main(argv) -> int:
    linkchi = run.load_linkchi()
    workloads = argv or list(run.gen.WORKLOADS)
    try:
        digests = run.load_digests()
    except run.BenchError:
        digests = {}
    # items dropped from a recorded workload's pool lose their digests
    digests = {key: value for key, value in digests.items()
               if key.split(":")[0] not in workloads}
    errors = []
    for workload in workloads:
        found, failed = record(linkchi, workload)
        digests.update(found)
        errors += failed
    if errors:
        print("not written; %d outputs unconfirmed:" % len(errors), file=sys.stderr)
        for error in errors:
            print("  " + error, file=sys.stderr)
        return 1
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=0, sort_keys=False)
        handle.write("\n")
    print("wrote %d digests to %s" % (len(digests), run.DIGESTS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
