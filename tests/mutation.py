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
     "traces[e] = sum(flat[:: m + 1])", "traces[e] = sum(flat[:: m + 1]) * (len(flats) > 1)"),
    ("torsion-unsigned-wide-decode", "invariants.py",
     "sys.byteorder, signed=True)", "sys.byteorder, signed=False)"),
    ("torsion-width-one-degree-short", "invariants.py",
     "((norm**h).bit_length() + 9)", "((norm ** (h - 1)).bit_length() + 9)"),
    ("torsion-pick-first-block", "invariants.py",
     "                out += seq[rows.start * width : rows.stop * width]",
     "                return seq[rows.start * width : rows.stop * width]"),
    # word traces from half products
    ("trace-prune-on-first-row", "invariants.py",
     "if any(map(any, rows_j)):", "if any(rows_j[0]):"),
    ("trace-right-half-not-transposed", "invariants.py",
     "flat = {a: [x for col in columns[s] for x in col] for a, s in spans.items()}",
     "flat = {a: [x for row in rows for x in row[s]] for a, s in spans.items()}"),
    ("trace-no-diagonal-branch", "invariants.py",
     "if h == len(pattern):  # k = 1", "if False:  # k = 1"),
    ("trace-written-not-seeded", "invariants.py",
     "written = set(map(len, out))", "written = set()"),
    ("trace-no-injectivity-test", "invariants.py",
     "if len(template) not in written and len(set(template)) == len(pattern):",
     "if len(template) not in written:"),
    # the Seifert-matrix path
    ("validate-compares-own-columns", "seifert.py",
     "if any(e[r][bj] != t[r][bj] for r", "if any(e[r][bi] != t[r][bi] for r"),
    ("z-block-inverse-not-transposed", "seifert.py",
     "(b, list(zip(*_invert_unimodular_block(_skew_block(e, t, b)))))",
     "(b, _invert_unimodular_block(_skew_block(e, t, b)))"),
    # the check-only oracles: one elimination, one builder of H
    ("lu-update-adds", "commalg.py",
     "[a - factor * b for a, b in zip(up[r][c + 1:]", "[a + factor * b for a, b in zip(up[r][c + 1:]"),
    ("half-ones-one-choice-short", "seifert.py",
     "itertools.combinations(range(b.start, b.stop), (b.stop - b.start) // 2)",
     "list(itertools.combinations(range(b.start, b.stop), (b.stop - b.start) // 2))[1:]"),
    # output order
    ("to-lines-sparse-not-length-sorted", "ncalg.py", "        sparse.sort(key=len)\n", ""),
    # words over x and z
    ("word-runs-last-x-run-zero", "genfun.py",
     "return list(map(len, pieces[::2])), list(map(len, pieces[1::2]))",
     "return list(map(len, pieces[::2]))[:-1] + [0], list(map(len, pieces[1::2]))"),
    ("z-to-one-plus-z", "genfun.py", "(-1) ** i * math.comb(e, i)", "math.comb(e, i)"),
    ("z-binomial-dropped", "genfun.py", "(-1) ** i * math.comb(e, i)", "(-1) ** i"),
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
