"""Trace invariants of Seifert matrices.

The invariant attached to a generating series f(x, z) is

    tr f(X, Z) - tr f(X, H)

where X is the block-scalar matrix carrying the variable x_i on block i,
Z = A (A - A')^-1, and H is the half-ones diagonal normalizer.  The value
is a truncated noncommutative series in x_1..x_n with exact rational
coefficients.

``trace_at`` (behind ``tr_series`` and ``chi``) computes tr f(X, Z) in
integers from one table of half products.  Every route reads a word
x^j1 z^e1 x^j2 ... x^jk z^ek x^j(k+1) through ``genfun.word_runs``.  Its
trace is sum_v T(v) x_v1^j1 ... x_vk^jk x_v1^j(k+1) over block tuples v,
with T(v) = tr(P_v1 Z^e1 ... P_vk Z^ek) for the block projections P_i.
Each T(v) is one dot product of the products of the first ceil(k/2)
letters P_j Z^e and of the rest.  A word that starts and ends with z sums
position 0 over every block, which merges its first and last z-runs; z^e
is the one letter P_j Z^e summed over j.  ``tr_monomial``, the oracle of
the table, evaluates the same sum one block index tuple (i1..ik) at a
time, as tr((Z^e1)_{i1 i2} ... (Z^ek)_{ik i1}) from sliced blocks of Z^e.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain, repeat
from operator import add, itemgetter, mul

from . import commalg, genfun, seifert
from .commalg import CommSeries
from .genfun import BiSeries, word_runs
from .ncalg import NCSeries
from .seifert import BlockStructure, SeifertMatrix

Word = tuple[int, ...]


# -- half-product trace table --------------------------------------------------
#
# X^j = sum_i x_i^j P_i, so a word meets Z only through its letters P_j Z^e.
# For a split of a block tuple v into halves u and w,
# T(v) = tr(L_u R_w) with L_u = P_u1 Z^e1 ... P_uh Z^eh the product of the
# first h = ceil(k/2) letters and R_w that of the rest.  L_u is zero outside
# the rows B(u1) of block u1 and R_w outside B(w1), so
# T(u w) = sum_{r in B(u1), c in B(w1)} L_u[r][c] R_w[c][r]; at k = 1 it is
# the diagonal of L_u.


def _times(rows, M, cols: range) -> list[list[int]]:
    """rows * M, for rows that are zero outside the columns ``cols``."""
    out = []
    for row in rows:
        acc = [0] * len(M)
        for c in cols:
            a = row[c]
            if a:
                acc = [s + a * b for s, b in zip(acc, M[c])]
        out.append(acc)
    return out


def _pattern_traces(
    structure: BlockStructure, powers: dict[int, Sequence[Sequence[int]]], patterns: Iterable[Word]
) -> dict[Word, tuple[list[Word], list[int]]]:
    """{pattern: (the block tuples v with T(v) != 0, their T(v))} for these power patterns.

    ``powers`` maps e to Z^e, and v runs over tuples of nonempty blocks.
    The half products of all patterns form one trie: {half: {u: the block-u1
    rows of P_u1 Z^e1 ... P_ut Z^et}}, each half extending its one-shorter
    prefix by one letter.  A product whose rows are all zero is dropped, as
    every extension of it is zero too.
    """
    n = structure.n
    ranges = {j: structure.block_range(j) for j in range(1, n + 1) if structure.sizes[j - 1]}
    spans = {j: slice(rs.start, rs.stop) for j, rs in ranges.items()}
    splits = {pattern: (len(pattern) + 1) // 2 for pattern in patterns}
    # the empty half stands for the identity: P_j Z^e extends it to the rows B(j) of Z^e
    halves: dict[Word, dict[Word, list]] = {(): {(): None}}
    for half in [p[:h] for p, h in splits.items()] + [p[h:] for p, h in splits.items()]:
        for t in range(1, len(half) + 1):
            if half[:t] not in halves:
                M, products = powers[half[t - 1]], {}
                for u, rows in halves[half[: t - 1]].items():
                    for j, cols in ranges.items():
                        rows_j = [M[r] for r in cols] if rows is None else _times(rows, M, cols)
                        if any(map(any, rows_j)):
                            products[u + (j,)] = rows_j
                halves[half[:t]] = products
    table = {}
    for pattern, h in splits.items():
        words, traces = table[pattern] = [], []
        if h == len(pattern):  # k = 1: the diagonal of P_u1 Z^e1
            for u, rows in halves[pattern].items():
                trace = sum(row[r] for r, row in zip(ranges[u[0]], rows))
                if trace:
                    words.append(u)
                    traces.append(trace)
            continue
        # L_u[r][c] and R_w[c][r] for r in B(a), c in B(b), flattened r-major
        lefts = [
            (u, {b: [x for row in rows for x in row[s]] for b, s in spans.items()})
            for u, rows in halves[pattern[:h]].items()
        ]
        rights = []
        for w, rows in halves[pattern[h:]].items():
            columns = list(zip(*rows))
            flat = {a: [x for col in columns[s] for x in col] for a, s in spans.items()}
            rights.append((w, flat))
        for u, left in lefts:
            for w, right in rights:
                trace = sum(map(mul, left[w[0]], right[u[0]]))
                if trace:
                    words.append(u + w)
                    traces.append(trace)
    return table


def _trace_by_halves(terms: dict[str, int], structure: BlockStructure, M) -> dict[Word, int]:
    """Sum of coeff * tr(word(X, M)) over integer-coefficient words."""
    out: dict[Word, int] = {}
    by_pattern: dict[Word, list] = {}
    for word, coeff in terms.items():
        runs, zruns = word_runs(word)
        if not zruns:  # tr X^j = sum_i size_i x_i^j
            for i, size in enumerate(structure.sizes, 1):
                out[(i,) * runs[0]] = out.get((i,) * runs[0], 0) + coeff * size
            continue
        # a word that starts and ends with z reads no block at position 0:
        # its sum over that block merges the first and last z-runs
        template = [t for t, run in enumerate(runs[:-1]) for _ in range(run)] + [0] * runs[-1]
        by_pattern.setdefault(tuple(zruns), []).append((template, coeff))
    powers = {1: M}
    for e in range(2, max(map(max, by_pattern), default=1) + 1):
        powers[e] = seifert.mat_mul(powers[e - 1], M)
    # a template that reads every block of v gives each v its own key, so the
    # first template of a key length can set its keys where a later one adds
    written = set(map(len, out))  # key lengths that already hold keys
    for pattern, (words_k, traces) in _pattern_traces(structure, powers, by_pattern).items():
        for template, coeff in by_pattern[pattern]:
            if template == list(range(len(pattern))):
                keys = words_k
            elif len(template) > 1:
                keys = map(itemgetter(*template), words_k)
            else:  # at most one x
                keys = [tuple(u[t] for t in template) for u in words_k]
            if len(template) not in written and len(set(template)) == len(pattern):
                out.update(zip(keys, map(mul, repeat(coeff), traces)))
            else:
                for key, trace in zip(keys, traces):
                    out[key] = out.get(key, 0) + coeff * trace
            written.add(len(template))
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
    f = f.truncated(degree)  # words of higher x-degree cannot contribute
    raw = _trace_by_halves(f.num, structure, M)
    # every emitted word has letters 1..n and length <= degree
    return NCSeries.zero(structure.n, degree)._same(raw, f.den, degree)


def tr_series(f: BiSeries, A: SeifertMatrix, degree: int) -> NCSeries:
    """tr f(X, Z) by matrix substitution, truncated at ``degree``."""
    return trace_at(f, A.structure, seifert.z_matrix(A), degree)


def i_half_trace(f: BiSeries, structure: BlockStructure, degree: int) -> NCSeries:
    """tr f(X, H), the same for every H of ``seifert.half_ones(structure)``.

    X and H are diagonal, and every balanced H gives block i exactly g_i
    rows with h = 0 and g_i rows with h = 1.  So tr f(X, H) =
    sum_i g_i (f(x_i, 0) + f(x_i, 1)), read off f without H; an odd
    block, which has no H, raises ``ValueError`` from ``half_ones``.
    """
    _require_complete(f, degree)
    seifert.half_ones(structure)  # checks the blocks; builds no H
    f = f.truncated(degree)
    # by x-degree: f(x, 1) keeps every word, f(x, 0) the words without z
    by_degree: dict[int, int] = {}
    for w, v in f.num.items():
        d = genfun.xdegree(w)
        by_degree[d] = by_degree.get(d, 0) + (v if "z" in w else 2 * v)
    terms: dict[Word, int] = {}
    for i in range(1, structure.n + 1):
        for d, v in by_degree.items():
            terms[(i,) * d] = terms.get((i,) * d, 0) + structure.genus(i) * v
    return NCSeries.zero(structure.n, degree)._same(terms, f.den, degree)


def chi(f: BiSeries, A: SeifertMatrix, degree: int) -> NCSeries:
    """The invariant tr f(X, Z) - tr f(X, H).

    The same for every balanced half-ones H, and unchanged under the two
    Seifert moves.
    """
    return tr_series(f, A, degree) - i_half_trace(f, A.structure, degree)


def chi_delta(A: SeifertMatrix, degree: int) -> NCSeries:
    return chi(genfun.delta_series(degree), A, degree)


def chi_phi(A: SeifertMatrix, degree: int) -> NCSeries:
    return chi(genfun.phi_series(degree), A, degree)


# -- block-trace formula (the oracle route) --------------------------------


def tr_monomial(word: str, A: SeifertMatrix, degree: int) -> NCSeries:
    """tr f(X, Z) for a single monomial via the block-trace formula.

    Each block (Z^e)_{ij} the word needs is sliced once per call.
    """
    seifert.require_valid(A)
    st = A.structure
    n = st.n
    runs, zruns = word_runs(word)
    if sum(runs) > degree:
        return NCSeries.zero(n, degree)
    terms: dict[Word, int] = {}

    def add(w: Word, value: int) -> None:
        terms[w] = terms.get(w, 0) + value

    if not zruns:
        for i in range(1, n + 1):
            add((i,) * runs[0], 2 * st.genus(i))
        return NCSeries(n, degree, terms)

    z = seifert.z_matrix(A)
    powers = {1: z}
    for e in range(2, max(zruns) + 1):
        powers[e] = seifert.mat_mul(powers[e - 1], z)
    ranges = {i: st.block_range(i) for i in range(1, n + 1) if st.sizes[i - 1]}
    blocks = {
        (e, i, j): [[powers[e][r][c] for c in cols] for r in rows]
        for e in set(zruns)
        for i, rows in ranges.items()
        for j, cols in ranges.items()
    }

    k = len(zruns)

    def word_for(indices: tuple[int, ...]) -> Word:
        # x_{i1}^j1 x_{i2}^j2 ... x_{ik}^jk x_{i1}^j(k+1)
        letters: list[int] = []
        for i, j in zip(indices + indices[:1], runs):
            letters.extend([i] * j)
        return tuple(letters)

    def rec(t: int, indices: tuple[int, ...], prod) -> None:
        # prod carries (Z^e1)_{i1 i2} ... (Z^e_{t})_{i_t i_{t+1}}; at t = k-1
        # the last factor closes the cycle back to i1.
        if t == k - 1:
            blk = blocks[zruns[t], indices[-1], indices[0]]
            if prod is None:
                trace = sum(blk[r][r] for r in range(len(blk)))
            else:  # tr(prod blk) = sum_r row_r(prod) . column_r(blk)
                trace = sum(a * b for row, col in zip(prod, zip(*blk)) for a, b in zip(row, col))
            if trace:
                add(word_for(indices), trace)
            return
        for nxt in ranges:
            blk = blocks[zruns[t], indices[-1], nxt]
            rec(t + 1, indices + (nxt,), blk if prod is None else seifert.mat_mul(prod, blk))

    for i1 in ranges:
        rec(0, (i1,), None)
    return NCSeries(n, degree, terms)


# -- half-rank correction ---------------------------------------------------


def half_rank_correction(structure: BlockStructure, degree: int) -> NCSeries:
    """Sum over components of g_i (x_i - x_i_bar), expanded to ``degree``.

    This equals tr((I + X H)^-1 X) for every H of ``seifert.half_ones``; the
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
    (X Z)^k = sum_{|e|=k} x^e M_e over the integer matrices M_(e_i) = P_i Z
    (the rows of block i of Z, P_i keeping the rows of block i) and
    M_e = sum_{i: e_i > 0} P_i Z M_{e - e_i}.

    Each row of M_e is held as one integer, entry c in slot c of a fixed
    width (Kronecker substitution), so row_r(P_i Z M_e) = sum_c Z[r][c]
    row_c(M_e) is one sum of big-int products.  Every entry of M_e, and
    every partial sum of a row, is at most ||Z||^|e| in absolute value,
    ||Z|| the largest absolute row sum of Z; a width of bits(||Z||^h) + 2,
    in whole bytes and at least 8, keeps the slots from carrying into each
    other.  Every row is decoded once, all into one flat list: adding
    2^(width-1) to each slot makes it non-negative, and XOR with the same
    bias leaves each slot its entry in two's complement, read by
    ``memoryview.cast("q")`` at 8 bytes and ``int.from_bytes`` per slot
    when wider.

    M_e is the sum of P_w1 Z ... P_wk Z over the words w of content e.  The
    recurrence runs only to |e| <= h = ceil(degree/2): each longer word
    splits in exactly one way after its h-th letter, so for |e| > h
    tr M_e = sum over e1 <= e with |e1| = h of tr(M_e1 M_(e - e1)), with
    |e - e1| <= h.  M_e is zero outside the rows R(e) of the blocks i with
    e_i > 0, so tr(M_e1 M_e2) is one dot product of the rows R(e2) of M_e2
    with the columns R(e2) of M_e1.  At even degree the last stage
    multiplies level h by itself, and as tr(A B) = tr(B A) each unordered
    pair {e1, e2} is computed once and counted twice when e1 != e2.  L is
    built in integers over lcm(1..degree); exp is ``commalg.exp_positive``.
    """
    seifert.require_valid(A)
    st = A.structure
    n = st.n
    if not degree:
        return CommSeries.one(n, 0)
    m = st.total
    z = seifert.z_matrix(A)
    blocks = [(i, st.block_range(i + 1)) for i in range(n) if st.sizes[i]]
    full = (1 << n) - 1
    h = (degree + 1) // 2
    norm = max([sum(map(abs, row)) for row in z], default=0)
    size = max(8, ((norm**h).bit_length() + 9) // 8)
    shifts = [1 << 8 * size * c for c in range(m)]
    bias = sum(shifts) << (8 * size - 1)

    def pick(seq, s, width):
        """The entries at the rows R(s) of the blocks i in the bit set s, of a
        sequence holding ``width`` entries per row."""
        if s == full:
            return seq
        out = []
        for i, rows in blocks:
            if s >> i & 1:
                out += seq[rows.start * width : rows.stop * width]
        return out

    # levels[k - 1] = {e: (s, M_e)} for |e| = k <= h, with s the bit set of
    # the blocks i with e_i > 0 and M_e a list of packed rows, 0 outside the
    # rows R(s).  Level 1 is read off Z.
    levels = [
        {
            (0,) * i + (1,) + (0,) * (n - i - 1): (
                1 << i,
                [sum(map(mul, z[r], shifts)) if r in rows else 0 for r in range(m)],
            )
            for i, rows in blocks
        }
    ]
    z_at: dict[int, Sequence[Sequence[int]]] = {full: z}
    for _ in range(h - 1):
        nxt: dict[commalg.Expo, tuple[int, list[int]]] = {}
        for e, (s, mat) in levels[-1].items():
            if s not in z_at:
                z_at[s] = [pick(row, s, 1) for row in z]
            zs, src = z_at[s], pick(mat, s, 1)
            for i, rows in blocks:
                out = nxt.setdefault(e[:i] + (e[i] + 1,) + e[i + 1 :], (s | 1 << i, [0] * m))[1]
                for r in rows:
                    out[r] = sum(map(mul, zs[r], src))
        levels.append(nxt)
    # decode every row of every level at once, M_e after M_e
    data = b"".join(
        [
            ((row + bias) ^ bias).to_bytes(m * size, sys.byteorder)
            for level in levels
            for _, mat in level.values()
            for row in mat
        ]
    )
    if size == 8:
        entries = memoryview(data).cast("q").tolist()
    else:
        entries = [
            int.from_bytes(data[i : i + size], sys.byteorder, signed=True)
            for i in range(0, len(data), size)
        ]
    flats = []
    traces: dict[commalg.Expo, int] = {}
    at = 0
    for level in levels:
        flats.append([])
        for e, (s, _) in level.items():
            flat = entries[at : at + m * m]
            at += m * m
            traces[e] = sum(flat[:: m + 1])
            flats[-1].append((e, s, flat))
    # tr(M_e1 M_e2) = sum over c in R(e2) of row c of M_e2 . column c of M_e1;
    # lefts hold the columns of each M_e1, one after another
    lefts = [(e1, list(chain.from_iterable(zip(*zip(*[iter(f)] * m))))) for e1, _, f in flats[-1]]
    for k in range(1, degree - h + 1):
        rights = [(e2, s2, pick(f, s2, m)) for e2, s2, f in flats[k - 1]]
        for a, (e1, cols) in enumerate(lefts):
            # at k == h, tr(M_e1 M_e2) = tr(M_e2 M_e1): each unordered pair once
            for b, (e2, s2, rows) in enumerate(rights[a:] if k == h else rights):
                e = tuple(map(add, e1, e2))
                trace = sum(map(mul, rows, pick(cols, s2, m)))
                traces[e] = traces.get(e, 0) + (2 * trace if k == h and b else trace)
    den = math.lcm(*range(1, degree + 1))
    # log(1 + x) = sum_k coef[k] x^k / den
    coef = [0] + [den // k if k % 2 else -den // k for k in range(1, degree + 1)]
    num = {e: coef[sum(e)] * trace for e, trace in traces.items()}
    for i, _ in blocks:
        g = st.genus(i + 1)
        for d in range(1, degree + 1):
            # minus g_i log(1 + x_i)
            e = (0,) * i + (d,) + (0,) * (n - i - 1)
            num[e] = num.get(e, 0) - g * coef[d]
    return commalg.exp_positive(CommSeries.zero(n, degree)._same(num, den, degree))


# -- reconstruction through the three-letter reduction ----------------------


def reconstruct_trace(word: str, A: SeifertMatrix, degree: int) -> NCSeries:
    """Recover tr f(X, Z) from the reduced monomial f'.

    The reduced monomial replaces each z-run z^e by (zy)^(e-1) z and each
    x-run by one x.  Its trace is read from the half-product table with
    each y taken as an x, so every z is isolated; then the letters at the y
    positions are dropped and the m-th surviving x-letter is raised back to
    the m-th x-run length.
    """
    z = seifert.z_matrix(A)
    runs, _ = word_runs(word)
    reduced = genfun.prime_word(word)
    raw = _trace_by_halves({reduced.replace("y", "x"): 1}, A.structure, z)
    xs = [pos for pos, letter in enumerate(reduced.replace("z", "")) if letter == "x"]
    terms: dict[Word, int] = {}
    for w, coeff in raw.items():
        key = tuple([w[pos] for pos, run in zip(xs, runs) for _ in range(run)])
        terms[key] = terms.get(key, 0) + coeff
    return NCSeries(A.n, degree, terms)
