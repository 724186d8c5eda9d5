"""Which deliberate faults do the checks catch?  A mutation table.

Each mutant is one ``(file, old, new)`` text replacement in ``src/linkchi``;
``old`` must occur exactly once.  For every mutant the script copies the
repository to a temporary directory, applies the replacement there (the
working tree is never touched), and runs

- ``linkchi selfcheck --seed S --degree 5`` for each seed S in 0-8;
- the Tier-1 suite, ``pytest -q -x``.

A mutant is killed when some seed exits nonzero or the suite fails; it
survives otherwise.  A run past its time bound counts as a kill (the fault
made it hang) and skips that mutant's remaining seeds.  The unmutated copy
is checked first, so a kill is the mutant's and not the environment's.

Run from the repository root; it takes several minutes, so it is not part
of the test suite (pytest does not collect this file, but
``tests/test_mutation_texts.py`` checks that every ``old`` text is still in
the source):

    python tests/mutation.py
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = range(9)
SELFCHECK_BOUND_S = 60
SUITE_BOUND_S = 900

# (name, file under src/linkchi, old text, new text)
MUTANTS = [
    # the exact representation: integer numerators over one denominator
    ("no-gcd-reduction", "series.py",
     "    if g > 1:\n        den //= g", "    if False:\n        den //= g"),
    ("eq-without-truncating", "series.py",
     "a, b = self.truncated(t), other.truncated(t)  # dropping", "a, b = self, other  # dropping"),
    ("scale-drops-denominator", "series.py",
     "self.den * q, self.trunc)", "self.den, self.trunc)"),
    ("power-series-never-stops", "series.py",
     "            if not power:\n                break", "            if not power:\n                continue"),
    ("power-series-drops-weight", "series.py",
     "(d // a.denominator) * (top // scale)", "(d // a.denominator)"),
    # torsion from half-length products on packed rows
    ("torsion-pair-counted-once", "invariants.py",
     "(2 * trace if k == h and b else trace)", "trace"),
    ("torsion-equal-pair-doubled", "invariants.py",
     "(2 * trace if k == h and b else trace)", "(2 * trace if k == h else trace)"),
    ("torsion-no-level-1-traces", "invariants.py",
     "for lv in flats for e, _, flat in lv}", "for lv in flats[1:] for e, _, flat in lv}"),
    ("torsion-width-one-degree-short", "invariants.py",
     "_slot_size(norm ** max(h, 1))", "_slot_size(norm ** max(h - 1, 1))"),
    ("torsion-pick-first-block", "invariants.py",
     "                out += seq[rows.start * width : rows.stop * width]",
     "                return seq[rows.start * width : rows.stop * width]"),
    # the torsion series from the traces by the grading recurrence, in integers
    ("torsion-q-signed-on-even-grades", "invariants.py",
     "trace if sum(e) % 2 else -trace", "-trace if sum(e) % 2 else trace"),
    ("torsion-genus-term-sign-flipped", "invariants.py",
     "(-1) ** j * st.genus(i + 1)", "-((-1) ** j) * st.genus(i + 1)"),
    # the decode of packed rows, which torsion and word traces share
    ("torsion-unsigned-wide-decode", "invariants.py",
     "sys.byteorder, signed=True)", "sys.byteorder, signed=False)"),
    # word traces from packed half products
    ("trace-prune-on-first-row", "invariants.py",
     "if any(map(any, rows_j)):", "if any(rows_j[0]):"),
    ("trace-z-run-power-one-short", "invariants.py",
     "M, products = powers[half[t - 1]], {}", "M, products = powers[max(1, half[t - 1] - 1)], {}"),
    ("trace-no-diagonal-branch", "invariants.py",
     "if h == len(pattern):  # k = 1", "if False:  # k = 1"),
    ("trace-slot-one-byte-short", "invariants.py",
     "(bound.bit_length() + 9) // 8)", "(bound.bit_length() + 9) // 8 - 1)"),
    # the trie and packings kept for the last matrix
    ("trace-kept-trie-key-drops-z", "invariants.py",
     "_kept_trie(structure, powers[1])", "_kept_trie(structure, ())"),
    ("trace-kept-pack-key-drops-size", "invariants.py",
     "(key := (half, size))", "(key := half)"),
    # template sums by word index
    ("trace-left-offset-dropped", "invariants.py",
     "acc[a + b] += coeff * t", "acc[b] += coeff * t"),
    ("trace-dense-sparse-swapped", "invariants.py",
     "[0] * n**L if n**L <= 4 * c else defaultdict(int)",
     "defaultdict(int) if n**L <= 4 * c else [0] * n**L"),
    # pure-x and half terms at x_i^L, and the decode of a dict store
    ("diagonal-index-base-one", "invariants.py",
     "acc, step = stores[L], sum(pows[:L])", "acc, step = stores[L], L"),
    ("sparse-index-digits-reversed", "invariants.py",
     "places = [n**p for p in reversed(range(L))]", "places = [n**p for p in range(L)]"),
    # the Seifert-matrix path
    ("validate-compares-own-columns", "seifert.py",
     "if any(any(row[bj]) for row in s[bi]):", "if any(any(row[bi]) for row in s[bi]):"),
    ("z-block-inverse-not-transposed", "seifert.py",
     "parts.append((b, list(zip(*work))[size:]))", "parts.append((b, [row[size:] for row in work]))"),
    ("z-identity-half-shifted", "seifert.py",
     "[int(r == c) for c in range(size)] for r, row in enumerate(s[b])]",
     "[int(r == c + 1) for c in range(size)] for r, row in enumerate(s[b])]"),
    # A' - A: every even block keeps its determinant, so only Z shows it
    ("intersection-form-transposed", "seifert.py",
     "tuple(map(sub, row, col))", "tuple(map(sub, col, row))"),
    # the one elimination, for determinants and block inverses
    ("bareiss-jordan-clears-below-only", "seifert.py",
     "for r in range(0 if jordan else c + 1, size):", "for r in range(c + 1, size):"),
    ("bareiss-swap-keeps-sign", "seifert.py",
     "work[c], work[swap] = work[swap], [-v for v in work[c]]",
     "work[c], work[swap] = work[swap], work[c]"),
    # the check-only oracles: one elimination, one builder of H
    ("lu-update-adds", "commalg.py",
     "[a - factor * b for a, b in zip(up[r][c + 1:]", "[a + factor * b for a, b in zip(up[r][c + 1:]"),
    ("det-unit-drops-last-pivot", "commalg.py",
     "enumerate(lu_decompose(M)[1].rows):", "enumerate(lu_decompose(M)[1].rows[:-1]):"),
    ("trlog-last-power-dropped", "commalg.py",
     "for k in range(1, M.trunc + 1):", "for k in range(1, M.trunc):"),
    ("half-ones-one-choice-short", "seifert.py",
     "itertools.combinations(range(b.start, b.stop), (b.stop - b.start) // 2)",
     "list(itertools.combinations(range(b.start, b.stop), (b.stop - b.start) // 2))[1:]"),
    # the selfcheck runner: names, seeds and failures
    ("runner-failures-are-the-passes", "selfcheck.py",
     "for ok, message in checks if not ok]", "for ok, message in checks if ok]"),
    ("runner-name-keeps-underscores", "selfcheck.py",
     '.removeprefix("suite_").replace("_", "-")', '.removeprefix("suite_")'),
    ("runner-seed-without-name", "selfcheck.py",
     'random.Random("%d:%s" % (seed, name))', 'random.Random("%d:" % seed)'),
    # the one text writer: lengths in order, and the table of a dense length's texts
    ("to-lines-sparse-not-length-sorted", "invariants.py",
     "for L, store in sorted(stores.items()):", "for L, store in stores.items():"),
    ("store-text-table-shifted", "invariants.py",
     "[p + d for p in texts[L - 1] for d in dotted]",
     "[p + d for p in texts[L - 1] for d in dotted[1:] + dotted[:1]]"),
    # words over x and z
    ("word-runs-last-x-run-zero", "genfun.py",
     "return list(map(len, pieces[::2])), list(map(len, pieces[1::2]))",
     "return list(map(len, pieces[::2]))[:-1] + [0], list(map(len, pieces[1::2]))"),
    # z -> 1 - z by letter deletion, a.z.b -> a.b - a.z.b
    ("z-to-one-plus-z", "genfun.py", "                v = -v\n", ""),
    ("z-deleted-position-shifted", "genfun.py",
     "cut = w[:p] + w[p + 1 :]", "cut = w[: p + 1] + w[p + 2 :]"),
    # hat by letter doubling, X_d(s) = X_(d+1)(s) + X_d(s - 1) doubled at d
    ("hat-doubled-position-shifted", "ncalg.py",
     "w = w[: d + 1] + w[d:]", "w = w[: d + 2] + w[d + 1 :]"),
    ("hat-grade-zero-letters-double", "ncalg.py",
     "if nc or grade(w[d : d + 1]) and grade(w) < trunc:", "if nc or grade(w) < trunc:"),
    ("hat-truncation-inclusive", "ncalg.py", "and grade(w) < trunc:", "and grade(w) <= trunc:"),
    ("hat-carry-dropped", "ncalg.py", "                acc = dict(acc)\n", "                acc = {}\n"),
    ("hat-sign-on-even", "ncalg.py",
     "map(operator.neg, acc.values())) if s % 2 else acc)",
     "map(operator.neg, acc.values())) if not s % 2 else acc)"),
    ("hat-bi-sign-on-even", "ncalg.py", "-v if grade(w) % 2 else v", "-v if not grade(w) % 2 else v"),
    ("hat-length-bound-without-room", "ncalg.py",
     "max([len(w) + trunc - grade(w) for w in f.num], default=0)",
     "max([len(w) for w in f.num], default=0)"),
    # a word without z is closed by Z^0 = I, so block i gives tr I = 2 g_i
    ("tr-monomial-word-without-z-closes-by-z", "invariants.py",
     "(zruns or [0])[-1]", "(zruns or [1])[-1]"),
    # the block-trace oracle closes each path v at v1; tr H^e = g for every e >= 1
    ("formula-closes-at-last-block", "invariants.py",
     "for row, c in zip(prod, ranges[v[0]]))", "for row, c in zip(prod, ranges[v[-1]]))"),
    ("half-term-two-zs-as-none", "invariants.py",
     '(v if "z" in w else 2 * v)', '(v if w.count("z") == 1 else 2 * v)'),
    # every trace route builds its zero first, whose constructor rejects a non-integer degree
    ("trace-degree-rule-bypassed", "invariants.py",
     "NCSeries.zero(n, degree)", "NCSeries.zero(n, int(degree))"),
    # the reconstruction oracle reads x-run t at position e1 + ... + et of its reduced word
    ("reconstruct-x-positions-consecutive", "invariants.py",
     "xs = list(accumulate(zruns, initial=0))", "xs = list(range(len(runs)))"),
    ("reconstruct-table-at-the-degree-skipped", "invariants.py",
     "if sum(runs) > degree:  # no table", "if sum(runs) >= degree:  # no table"),
    # the rotation table kept across calls, and x - xbar from bar
    ("rotation-table-never-emptied", "ncalg.py",
     "    if len(least) > _LEAST_CAP:\n        least.clear()\n", ""),
    ("half-rank-plus-bar", "invariants.py", "x - ncalg.bar(x)", "x + ncalg.bar(x)"),
    # the series core's inverse and key checks
    ("inverse-sign", "series.py",
     "return (self._unit() - self).geometric()", "return (self - self._unit()).geometric()"),
    ("nc-key-type-check-dropped", "ncalg.py",
     "if isinstance(letter, bool) or not isinstance(letter, int) or not 1 <= letter <= self.n:",
     "if not 1 <= letter <= self.n:"),
]


def _copy(dest: pathlib.Path) -> None:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                    ".benchmarks", ".work")
    for name in ("src", "tests", "perfbench"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _mutate(tree: pathlib.Path, file: str, old: str, new: str) -> None:
    path = tree / "src" / "linkchi" / file
    text = path.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit("mutant text occurs %d times in %s: %r" % (text.count(old), file, old))
    path.write_text(text.replace(old, new), encoding="utf-8")


def _run(tree: pathlib.Path, argv: list, bound: float) -> str:
    """'pass', 'FAIL' or 'HANG' for one command in the copy."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run([sys.executable, *argv], cwd=tree, env=env, timeout=bound,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return "HANG"
    return "pass" if done.returncode == 0 else "FAIL"


def check(mutant) -> tuple[list, str]:
    """The selfcheck result per seed and the suite result, for a mutant or None."""
    with tempfile.TemporaryDirectory(prefix="linkchi-mutant-") as tmp:
        tree = pathlib.Path(tmp)
        _copy(tree)
        if mutant is not None:
            _mutate(tree, *mutant[1:])
        per_seed = []
        for seed in SEEDS:
            if "HANG" in per_seed:
                per_seed.append("-")
                continue
            argv = ["-m", "linkchi.cli", "selfcheck", "--seed", str(seed), "--degree", "5"]
            per_seed.append(_run(tree, argv, SELFCHECK_BOUND_S))
        # test_mutation_texts fails on any mutated copy by design, so it is left out
        suite = _run(tree, ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                            "--ignore=tests/test_mutation_texts.py"], SUITE_BOUND_S)
    return per_seed, suite


def main() -> int:
    per_seed, suite = check(None)
    if suite != "pass" or set(per_seed) != {"pass"}:
        print("the unmutated copy does not pass: selfcheck %s, suite %s" % (per_seed, suite))
        return 1
    print("| mutant | selfcheck seeds 0-8 that fail | Tier-1 -x | verdict |")
    print("|---|---|---|---|")
    survivors = 0
    for mutant in MUTANTS:
        per_seed, suite = check(mutant)
        caught = [str(s) + ("" if r == "FAIL" else " (hang)")
                  for s, r in zip(SEEDS, per_seed) if r in ("FAIL", "HANG")]
        killed = bool(caught) or suite != "pass"
        survivors += not killed
        print("| %s | %s | %s | %s |" % (mutant[0], ", ".join(caught) or "none", suite,
                                         "killed" if killed else "SURVIVED"), flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
