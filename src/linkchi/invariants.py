"""Trace invariants of Seifert matrices.

The invariant attached to a generating series f(x, z) is

    tr f(X, Z) - tr f(X, H)

where X is the block-scalar matrix carrying the variable x_i on block i,
Z = A (A - A')^-1, and H is the half-ones diagonal normalizer.  The value
is a truncated noncommutative series in x_1..x_n with exact rational
coefficients.

Two independent evaluation routes are provided.  ``trace_at`` (behind
``tr_series``) walks a trie of the monomials of f in which each run x^r is
one node: X is block-scalar, so x^r only keeps the columns of one block,
and r only lengthens the output word.  The trace splits over start blocks,
tr S = sum_i tr(P_i S P_i), so each walk carries the rows of one block of
an integer matrix; coefficients are scaled to integers and divided once
per output word.  ``tr_monomial`` instead evaluates the closed block-trace
formula: for a monomial x^f0 z^e1 x^f1 ... z^ek x^fk the trace is the sum
over block index tuples (i1..ik) of tr((Z^e1)_{i1 i2} ... (Z^ek)_{ik i1})
times the word x_{i1}^f0 x_{i2}^f1 ... x_{i1}^fk.  The two routes are kept
separate so each can serve as the other's oracle.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Sequence

from . import commalg, genfun, seifert
from .commalg import CommSeries
from .genfun import BiSeries, word_runs
from .ncalg import NCSeries
from .seifert import BlockStructure, SeifertMatrix

Word = tuple[int, ...]


# -- run-collapsed trie walk (the symbolic route) -------------------------
#
# X is block-scalar: restricted to block j, X^r is x_j^r P_j, with P_j the
# projection onto block j.  So a run x^r changes the partial product only by
# keeping the columns of one block, whatever r is; r only lengthens the
# output word.  The trie therefore has one node per maximal run of a
# block-scalar letter, and its terminals keep the run lengths.


def _build_trie(terms: dict[str, Fraction], offsets: dict[str, int]) -> tuple[dict, int]:
    """Run-collapsed trie of monomials, with coefficients made integers.

    A maximal run of a block-scalar letter (a key of ``offsets``) is one
    node keyed by that letter's variable offset; every other letter is its
    own "z" node.  The key None holds a list of (template, coefficient).
    The template lists the run's position among the block-scalar runs once
    per letter of the run, so the output word is the picked blocks read
    through it.  Coefficients are scaled by their common denominator, which
    is returned with the trie.
    """
    scale = math.lcm(*(c.denominator for c in terms.values()))
    root: dict = {}
    for word, coeff in terms.items():
        node, template, t = root, [], 0
        for letter, group in groupby(word):
            run = sum(1 for _ in group)
            if letter in offsets:
                node = node.setdefault(offsets[letter], {})
                template += [t] * run
                t += 1
            else:
                for _ in range(run):
                    node = node.setdefault("z", {})
        tail = node.setdefault(None, [])
        tail.append((template, coeff.numerator * (scale // coeff.denominator)))
    return root, scale


def _walk(trie: dict, structure: BlockStructure, M) -> dict[Word, int]:
    """Sum of coeff * tr(monomial(X.., M)) over a trie of ``_build_trie``.

    tr S = sum_i tr(P_i S P_i), so the walk from start block i carries only
    the rows of block i of the partial product, and the column range
    [lo, hi) outside which they are zero.  A block-scalar node picks a block
    j, narrows the columns to block j and appends its letter offset + j.
    """
    m = structure.total
    blocks = [
        (j, structure.block_range(j)) for j in range(1, structure.n + 1) if structure.sizes[j - 1]
    ]
    out: dict[Word, int] = {}

    def emit(tail, path: Word, trace: int) -> None:
        if trace:
            for template, coeff in tail:
                word = tuple([path[t] for t in template])
                out[word] = out.get(word, 0) + coeff * trace

    def walk(own: range, node: dict, rows, lo: int, hi: int, path: Word) -> None:
        tail = node.get(None)
        if tail is not None:
            emit(tail, path, sum(row[r] for r, row in zip(own, rows) if lo <= r < hi))
        for key, child in node.items():
            if key is None:
                continue
            if key != "z":
                for j, rng in blocks:
                    a, b = max(lo, rng.start), min(hi, rng.stop)
                    if a < b:
                        walk(own, child, rows, a, b, path + (key + j,))
            elif child.keys() == {None}:
                # last letter: only the diagonal of rows * M is needed
                trace = sum(
                    row[k] * M[k][r] for r, row in zip(own, rows) for k in range(lo, hi)
                )
                emit(child[None], path, trace)
            else:
                nxt = []
                for row in rows:
                    acc = [0] * m
                    for k in range(lo, hi):
                        v = row[k]
                        if v:
                            acc = [s + v * t for s, t in zip(acc, M[k])]
                    nxt.append(acc)
                walk(own, child, nxt, 0, m, path)

    for _, own in blocks:
        identity = [[int(r == c) for c in range(m)] for r in own]
        walk(own, trie, identity, own.start, own.stop, ())
    return out


def _require_complete(f: BiSeries, degree: int) -> None:
    if f.xtrunc < degree:
        raise ValueError(
            "series only complete to x-degree %d, need %d" % (f.xtrunc, degree)
        )


def trace_at(
    f: BiSeries,
    structure: BlockStructure,
    M: Sequence[Sequence[int]],
    degree: int,
) -> NCSeries:
    """tr f(X, M) for a square integer matrix M, truncated at ``degree``.

    X is the block-scalar matrix of ``structure``; M stands in for z.
    """
    _require_complete(f, degree)
    m = structure.total
    if len(M) != m or any(len(row) != m for row in M):
        raise ValueError("M must be a square matrix of size %d" % m)
    # words whose x-degree exceeds the requested degree cannot contribute
    terms = {w: c for w, c in f.terms.items() if genfun.xdegree(w) <= degree}
    trie, scale = _build_trie(terms, {"x": 0})
    raw = {w: Fraction(v, scale) for w, v in _walk(trie, structure, M).items() if v}
    # every emitted word has letters 1..n and length <= degree
    return NCSeries.zero(structure.n, degree)._same(raw, degree)


def tr_series(f: BiSeries, A: SeifertMatrix, degree: int) -> NCSeries:
    """tr f(X, Z) by matrix substitution, truncated at ``degree``."""
    seifert.require_valid(A)
    return trace_at(f, A.structure, seifert.z_matrix(A), degree)


def i_half_trace(
    f: BiSeries,
    structure: BlockStructure,
    degree: int,
    pattern: Sequence[int] | None = None,
) -> NCSeries:
    """tr f(X, H) for the half-ones diagonal H with the given pattern.

    X and H are diagonal, and a balanced pattern gives block i exactly g_i
    rows with h = 0 and g_i rows with h = 1.  So whatever the pattern,
    tr f(X, H) = sum_i g_i (f(x_i, 0) + f(x_i, 1)).
    """
    _require_complete(f, degree)
    if pattern is None:
        seifert.default_half_pattern(structure)
    else:
        seifert.check_half_pattern(structure, pattern)
    # by x-degree: f(x, 1) keeps every word, f(x, 0) the words without z
    by_degree: dict[int, Fraction] = {}
    for w, c in f.terms.items():
        d = genfun.xdegree(w)
        if d <= degree:
            by_degree[d] = by_degree.get(d, 0) + (c if "z" in w else 2 * c)
    terms: dict[Word, Fraction] = {}
    for i in range(1, structure.n + 1):
        for d, c in by_degree.items():
            terms[(i,) * d] = terms.get((i,) * d, 0) + structure.genus(i) * c
    return NCSeries(structure.n, degree, terms)


def chi(
    f: BiSeries,
    A: SeifertMatrix,
    degree: int,
    pattern: Sequence[int] | None = None,
) -> NCSeries:
    """The invariant tr f(X, Z) - tr f(X, H).

    Independent of the balanced pattern choice, and unchanged under the
    two Seifert moves.
    """
    return tr_series(f, A, degree) - i_half_trace(f, A.structure, degree, pattern)


def chi_delta(A: SeifertMatrix, degree: int) -> NCSeries:
    return chi(genfun.delta_series(degree), A, degree)


def chi_phi(A: SeifertMatrix, degree: int) -> NCSeries:
    return chi(genfun.phi_series(degree), A, degree)


# -- block-trace formula (the oracle route) --------------------------------


def _block_of(rows, structure, i, j):
    ri = structure.block_range(i)
    rj = structure.block_range(j)
    return [[rows[r][c] for c in rj] for r in ri]


def _trace_square(a) -> int:
    return sum(a[i][i] for i in range(len(a)))


def tr_monomial(word: str, A: SeifertMatrix, degree: int) -> NCSeries:
    """tr f(X, Z) for a single monomial via the block-trace formula."""
    seifert.require_valid(A)
    st = A.structure
    n = st.n
    f0, pairs = word_runs(word)
    xdeg = f0 + sum(f for _, f in pairs)
    if xdeg > degree:
        return NCSeries.zero(n, degree)
    terms: dict[Word, Fraction] = {}

    def add(w: Word, value: int) -> None:
        if value:
            prev = terms.get(w, Fraction(0)) + value
            if prev:
                terms[w] = prev
            elif w in terms:
                del terms[w]

    if not pairs:
        for i in range(1, n + 1):
            add((i,) * f0, 2 * st.genus(i))
        return NCSeries(n, degree, terms)

    z = seifert.z_matrix(A)
    powers: dict[int, list[list[int]]] = {}
    acc = [list(row) for row in z]
    powers[1] = acc
    max_e = max(e for e, _ in pairs)
    for e in range(2, max_e + 1):
        acc = seifert.mat_mul(acc, z)
        powers[e] = acc

    k = len(pairs)
    exponents = [f0] + [f for _, f in pairs[:-1]] + [pairs[-1][1]]

    def word_for(indices: tuple[int, ...]) -> Word:
        # x_{i1}^f0 x_{i2}^f1 ... x_{ik}^f_{k-1} x_{i1}^fk
        letters: list[int] = []
        letters.extend([indices[0]] * exponents[0])
        for t in range(1, k):
            letters.extend([indices[t]] * exponents[t])
        letters.extend([indices[0]] * exponents[k])
        return tuple(letters)

    def rec(t: int, indices: tuple[int, ...], prod) -> None:
        # prod carries (Z^e1)_{i1 i2} ... (Z^e_{t})_{i_t i_{t+1}}; at t = k-1
        # the last factor closes the cycle back to i1.
        if t == k - 1:
            i_last = indices[-1]
            i_first = indices[0]
            blk = _block_of(powers[pairs[k - 1][0]], st, i_last, i_first)
            closed = seifert.mat_mul(prod, blk) if prod is not None else blk
            add(word_for(indices), _trace_square(closed))
            return
        for nxt in range(1, n + 1):
            if st.sizes[nxt - 1] == 0:
                continue
            blk = _block_of(powers[pairs[t][0]], st, indices[-1], nxt)
            rec(t + 1, indices + (nxt,), blk if prod is None else seifert.mat_mul(prod, blk))

    for i1 in range(1, n + 1):
        if st.sizes[i1 - 1] == 0:
            continue
        rec(0, (i1,), None)
    return NCSeries(n, degree, terms)


# -- half-rank correction ---------------------------------------------------


def half_rank_correction(structure: BlockStructure, degree: int) -> NCSeries:
    """Sum over components of g_i (x_i - x_i_bar), expanded to ``degree``.

    This equals tr((I + X H)^-1 X) for any balanced half pattern H; the
    direct evaluation is available as ``i_half_trace(phi_series(N), ...)``.
    """
    terms: dict[Word, Fraction] = {}
    for i in range(1, structure.n + 1):
        g = structure.genus(i)
        if not g:
            continue
        # x - xbar = 2x - x^2 + x^3 - x^4 + ...
        terms[(i,)] = terms.get((i,), Fraction(0)) + 2 * g
        for d in range(2, degree + 1):
            terms[(i,) * d] = terms.get((i,) * d, Fraction(0)) + g * (-1) ** (d + 1)
    return NCSeries(structure.n, degree, terms)


# -- torsion polynomial ------------------------------------------------------


def torsion_polynomial(A: SeifertMatrix, degree: int) -> CommSeries:
    """Normalized determinant invariant as a commutative series.

    det((I + X)^(-1/2) (I + X Z)); the constant term is 1 and the series is
    fixed by every t_i -> 1/t_i.  Computed as exp(L - sum_i g_i log(1 + x_i))
    with L = log det(I + X Z) = sum_{k>=1} (-1)^(k+1)/k tr((X Z)^k), where
    (X Z)^k = sum_{|e|=k} x^e M_e over the integer matrices M_0 = I and
    M_e = sum_{i: e_i > 0} P_i Z M_{e - e_i}, P_i keeping the rows of block i.
    """
    seifert.require_valid(A)
    st = A.structure
    n = st.n
    m = st.total
    z = seifert.z_matrix(A)
    blocks = [(i - 1, st.block_range(i)) for i in range(1, n + 1) if st.sizes[i - 1]]
    terms: dict[commalg.Expo, Fraction] = {}
    # M_e as a list of rows; a row of a block i with e_i = 0 is None (zero)
    level = {(0,) * n: [[int(r == c) for c in range(m)] for r in range(m)]}
    for k in range(1, degree + 1):
        nxt: dict[commalg.Expo, list] = {}
        for e, mat in level.items():
            for i, rows in blocks:
                out = nxt.setdefault(e[:i] + (e[i] + 1,) + e[i + 1 :], [None] * m)
                for r in rows:
                    acc = [0] * m
                    for v, row in zip(z[r], mat):
                        if v and row is not None:
                            acc = [a + v * b for a, b in zip(acc, row)]
                    out[r] = acc
        for e, mat in nxt.items():
            trace = sum(row[r] for r, row in enumerate(mat) if row is not None)
            if trace:
                terms[e] = Fraction((-1) ** (k + 1) * trace, k)
        level = nxt
    for i, _ in blocks:
        g = st.genus(i + 1)
        for d in range(1, degree + 1):
            # g_i log(1 + x_i) = sum_d g_i (-1)^(d+1)/d x_i^d
            e = (0,) * i + (d,) + (0,) * (n - i - 1)
            terms[e] = terms.get(e, Fraction(0)) - Fraction((-1) ** (d + 1) * g, d)
    return commalg.exp_positive(CommSeries(n, degree, terms))


# -- reconstruction through the three-letter reduction ----------------------


def reconstruct_trace(word: str, A: SeifertMatrix, degree: int) -> NCSeries:
    """Recover tr f(X, Z) from the reduced monomial f'.

    The reduced monomial replaces each z-run z^e by (zy)^(e-1) z and each
    x-run by one x.  Its trace is evaluated with a second block-scalar
    variable family y_1..y_n, after which each y maps to 1 and the m-th
    surviving x-letter is raised back to the m-th x-run length.
    """
    seifert.require_valid(A)
    st = A.structure
    n = st.n
    f0, pairs = word_runs(word)
    reduced = genfun.prime_word(word)
    z = seifert.z_matrix(A)
    trie, _ = _build_trie({reduced: Fraction(1)}, {"x": 0, "y": n})
    raw = _walk(trie, st, z)
    powers = [f0] + [f for _, f in pairs]
    terms: dict[Word, int] = {}
    for w, coeff in raw.items():
        letters: list[int] = []
        pos = 0
        for letter in w:
            if letter <= n:
                letters.extend([letter] * powers[pos])
                pos += 1
        if pos != len(powers):
            raise AssertionError("reduced word lost an x position")
        key = tuple(letters)
        terms[key] = terms.get(key, 0) + coeff
    return NCSeries(n, degree, terms)
