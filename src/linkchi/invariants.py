"""Trace invariants of Seifert matrices.

The invariant attached to a generating series f(x, z) is

    tr f(X, Z) - tr f(X, H)

where X is the block-scalar matrix carrying the variable x_i on block i,
Z = A (A - A')^-1, and H is the half-ones diagonal normalizer.  The value
is a truncated noncommutative series in x_1..x_n with exact rational
coefficients.

``trace_at`` (behind ``tr_series``) and ``chi`` compute tr f(X, Z) in
integers from one table of half products.  Every route reads a word
x^j1 z^e1 x^j2 ... x^jk z^ek x^j(k+1) through ``genfun.word_runs``.  Its
trace is sum_v T(v) x_v1^j1 ... x_vk^jk x_v1^j(k+1) over block tuples v,
with T(v) = tr(P_v1 Z^e1 ... P_vk Z^ek) for the block projections P_i.
One dot product of the first ceil(k/2) letters P_j Z^e with the rest,
packed over all second halves, gives T(v) for each (the halves and their
packings are kept for the last matrix Z, by value), and T(v) is added at
the integer index of its key in a store per key length, as are the pure-x
words and ``chi``'s half terms.  The stores are all that leaves the trace
stage; ``chi_lines`` writes text from them by ``ncalg.store_lines``, with
no word-keyed dict.  A word that starts and ends with z sums
position 0 over every block, which merges its first and last z-runs; z^e
is the one letter P_j Z^e summed over j.  ``tr_monomial``, the oracle of
the table, evaluates the same sum as written: it grows the block paths v
one z-run at a time, each by one product with the rows of block vt of Z^e,
and closes each with one trace tr((Z^e1)_{v1 v2} ... (Z^ek)_{vk v1}); it
shares only ``seifert.z_matrix``, ``seifert.mat_mul`` and ``word_runs``
with the table.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import accumulate, chain, repeat
from operator import add, mul

from . import commalg, genfun, ncalg, seifert
from .commalg import CommSeries
from .genfun import BiSeries, word_runs
from .ncalg import NCSeries, store_words
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


def _times(rows, M, cols: range) -> list[Sequence[int]]:
    """rows * M, for rows that are zero outside the columns ``cols``."""
    out = []
    for row in rows:
        acc = None
        for c in cols:
            a = row[c]
            if a:
                if acc is None:  # products are only read, so they may share M's rows
                    acc = M[c] if a == 1 else [a * b for b in M[c]]
                else:
                    acc = [s + a * b for s, b in zip(acc, M[c])]
        out.append([0] * len(M) if acc is None else acc)
    return out


def _unpack(rows: Sequence[int], count: int, size: int) -> list[int]:
    """The entries of packed rows of ``count`` signed slots of ``size`` bytes,
    row after row: adding 2^(8 size - 1) to each slot makes it non-negative,
    and XOR with the same bias leaves each slot its entry in two's complement.
    """
    bias = int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")
    data = b"".join([((row + bias) ^ bias).to_bytes(count * size, sys.byteorder) for row in rows])
    if size == 8:
        return memoryview(data).cast("q").tolist()
    starts = range(0, len(data), size)
    return [int.from_bytes(data[i : i + size], sys.byteorder, signed=True) for i in starts]


@lru_cache(maxsize=1)
def _kept_trie(structure: BlockStructure, z: seifert.IntMatrix) -> tuple[dict, dict]:
    """``_pattern_traces``'s trie {half: {u: rows}} and packings {(right half, slot width):
    {a: the rows B(a) of its packed R_w}} for one (structure, Z), by value, kept until a
    call on another matrix: the calls on one matrix build each once."""
    # the empty half stands for the identity: P_j Z^e extends it to the rows B(j) of Z^e
    return {(): {(): None}}, {}


def _pattern_traces(
    structure: BlockStructure, powers: dict[int, seifert.IntMatrix], patterns: Iterable[Word]
) -> dict[Word, tuple[list[Word], list[Word], list[int]]]:
    """{pattern: (lefts, rights, traces)}, T(u w) = traces[i * len(rights) + j]
    for u = lefts[i] and w = rights[j], and T(v) = 0 for every other v.

    ``powers`` maps e to Z^e.  The half products form one trie {half: {u:
    the block-u1 rows of P_u1 Z^e1 ... P_ut Z^et}}, a half extending its
    one-shorter prefix by a letter; an all-zero product and its extensions
    are dropped.  Entry (r, c) of the R_w of a right half is packed over w
    into one integer, so one dot product with L_u gives T(u w) for every w,
    each in a slot for |T(v)| <= m ||Z||^(e1 + ... + ek), ||Z|| the largest
    absolute row sum (Kronecker substitution, as in ``torsion_polynomial``).
    The trie and the packings, keyed by right half and slot width, are kept
    for the last (structure, Z) by ``_kept_trie``; the traces are not kept.
    """
    n, m = structure.n, structure.total
    ranges = {j: structure.block_range(j) for j in range(1, n + 1) if structure.sizes[j - 1]}
    splits = {pattern: (len(pattern) + 1) // 2 for pattern in patterns}
    halves, packs = _kept_trie(structure, powers[1])
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
    table, size = {}, 0
    for pattern, h in splits.items():
        lefts, half, rights = halves[pattern[:h]], pattern[h:], halves[pattern[h:]]
        if h == len(pattern):  # k = 1: the diagonal of P_u1 Z^e1
            diag = [sum(row[r] for r, row in zip(ranges[u[0]], rows)) for u, rows in lefts.items()]
            table[pattern] = (list(lefts), [()], diag)
            continue
        if not size:  # bits(that bound) + 2, in whole bytes and at least 8
            norm = max([sum(map(abs, row)) for row in powers[1]], default=0)
            size = max(8, ((m * norm ** max(map(sum, splits))).bit_length() + 9) // 8)
        if (key := (half, size)) not in packs:
            cr = [0] * (m * m)  # entry (c, r), c-major
            for j, (w, rows) in enumerate(rights.items()):
                lo, hi, shift = ranges[w[0]].start * m, ranges[w[0]].stop * m, 1 << 8 * size * j
                cr[lo:hi] = map(add, cr[lo:hi], map(mul, chain(*rows), repeat(shift)))
            packed = list(chain.from_iterable(zip(*zip(*[iter(cr)] * m))))
            packs[key] = {a: packed[rows.start * m : rows.stop * m] for a, rows in ranges.items()}
        dots = [sum(map(mul, chain(*rows), packs[key][u[0]])) for u, rows in lefts.items()]
        table[pattern] = (list(lefts), list(rights), _unpack(dots, len(rights), size))
    return table


def _trace_by_halves(terms: dict[str, int], structure: BlockStructure, M, half=None) -> dict:
    """{L: the sums at the key indices of length L} of coeff * tr(word(X, M))
    over integer-coefficient words, less g_i half[L] at x_i^L.

    A key of length L has the index sum_p (key[p] - 1) n^(L-1-p), so a word
    that reads v[t] at the positions p of x-run t sends u w to A(u) + B(w),
    with (v[t] - 1) weighted by the sum of those n^(L-1-p); x_i^L has the
    index (i - 1)(1 + n + ... + n^(L-1)).  A length sums into a list of all
    n^L keys when these are at most four times the (word, u, w) and x_i^L
    that reach it, else into a dict {index: sum}.
    """
    n, half = structure.n, half or {}
    pows = list(accumulate(repeat(n, max(map(len, terms), default=0)), mul, initial=1))
    plain: dict[int, int] = {}  # {j: the coefficient of X^j}
    by_pattern: dict[Word, list] = {}
    for word, coeff in terms.items():
        runs, zruns = word_runs(word)
        if not zruns:
            plain[runs[0]] = plain.get(runs[0], 0) + coeff
            continue
        L = top = sum(runs)
        weights = []
        for run in runs[:-1]:
            weights.append(sum(pows[top - run : top]))
            top -= run
        weights[0] += sum(pows[:top])  # v[0] also at the last x-run: first and last z-runs merge
        h = (len(zruns) + 1) // 2
        by_pattern.setdefault(tuple(zruns), []).append((weights[:h], weights[h:], L, coeff))
    powers = {1: M}
    for e in range(2, max(map(max, by_pattern), default=1) + 1):
        powers[e] = seifert.mat_mul(powers[e - 1], M)
    tables = _pattern_traces(structure, powers, by_pattern)
    counts = dict.fromkeys(plain.keys() | half.keys(), n)  # (word, u, w) and x_i^L per length
    for pattern, (lefts, rights, _) in tables.items():
        for _, _, L, _ in by_pattern[pattern]:
            counts[L] = counts.get(L, 0) + len(lefts) * len(rights)
    stores = {L: [0] * n**L if n**L <= 4 * c else defaultdict(int) for L, c in counts.items()}
    for pattern, (lefts, rights, traces) in tables.items():
        for wl, wr, L, coeff in by_pattern[pattern]:
            acc, base, it = stores[L], sum(pows[:L]), iter(traces)
            offsets = [sum(map(mul, w, wr)) for w in rights]
            for u in lefts:
                a = sum(map(mul, u, wl)) - base
                for b, t in zip(offsets, it):
                    if t:
                        acc[a + b] += coeff * t
    for L in plain.keys() | half.keys():  # tr X^j = sum_i size_i x_i^j; half[L] <= len of a word
        acc, step = stores[L], sum(pows[:L])
        for i, size in enumerate(structure.sizes):
            acc[i * step] += size * plain.get(L, 0) - structure.genus(i + 1) * half.get(L, 0)
    return stores


def _complete_to(f: BiSeries, degree: int) -> BiSeries:
    if f.xtrunc < degree:
        raise ValueError(
            "series only complete to x-degree %d, need %d" % (f.xtrunc, degree)
        )
    return f.truncated(degree)


def trace_at(
    f: BiSeries,
    structure: BlockStructure,
    M: Sequence[Sequence[int]],
    degree: int,
) -> NCSeries:
    """tr f(X, M) for a square integer matrix M, truncated at ``degree``.

    X is the block-scalar matrix of ``structure``; M stands in for z and is
    read by ``seifert._int_matrix``, the one matrix check.
    """
    f = _complete_to(f, degree)
    stores = _trace_by_halves(f.num, structure, seifert._int_matrix(M, structure.total))
    # every emitted word has letters 1..n and length <= degree
    return NCSeries.zero(structure.n, degree)._same(store_words(structure.n, stores), f.den, degree)


def tr_series(f: BiSeries, A: SeifertMatrix, degree: int) -> NCSeries:
    """tr f(X, Z) by matrix substitution, truncated at ``degree``."""
    return trace_at(f, A.structure, seifert.z_matrix(A), degree)


def _half_terms(f: BiSeries, structure: BlockStructure) -> dict[int, int]:
    """{d: h_d} with tr f(X, H) = sum_i g_i sum_d h_d x_i^d over ``f.den``.

    X and H are diagonal, and every balanced H gives block i exactly g_i
    rows with h = 0 and g_i rows with h = 1.  So tr f(X, H) =
    sum_i g_i (f(x_i, 0) + f(x_i, 1)), read off f without H; an odd
    block, which has no H, raises ``ValueError`` from ``half_ones``.
    """
    seifert.half_ones(structure)  # checks the blocks; builds no H
    # by x-degree: f(x, 1) keeps every word, f(x, 0) the words without z
    by_degree: dict[int, int] = {}
    for w, v in f.num.items():
        d = genfun.xdegree(w)
        by_degree[d] = by_degree.get(d, 0) + (v if "z" in w else 2 * v)
    return by_degree


def i_half_trace(f: BiSeries, structure: BlockStructure, degree: int) -> NCSeries:
    """tr f(X, H), the same for every H of ``seifert.half_ones(structure)``."""
    f = _complete_to(f, degree)
    terms: dict[Word, int] = {}  # x_i^0 is the empty word for every i
    for d, h in _half_terms(f, structure).items():
        for i in range(1, structure.n + 1):
            terms[(i,) * d] = terms.get((i,) * d, 0) + structure.genus(i) * h
    return NCSeries.zero(structure.n, degree)._same(terms, f.den, degree)


def _chi_stores(f: BiSeries, A: SeifertMatrix, degree: int) -> tuple[dict, int]:
    """``_trace_by_halves`` stores of tr f(X, Z) - tr f(X, H), over their denominator."""
    z, f = seifert.z_matrix(A), _complete_to(f, degree)
    return _trace_by_halves(f.num, A.structure, z, _half_terms(f, A.structure)), f.den


def chi(f: BiSeries, A: SeifertMatrix, degree: int) -> NCSeries:
    """The invariant tr f(X, Z) - tr f(X, H).

    The same for every balanced half-ones H, and unchanged under the two
    Seifert moves.  Both traces are summed by word index over ``f.den``.
    """
    stores, den = _chi_stores(f, A, degree)
    return NCSeries.zero(A.n, degree)._same(store_words(A.n, stores), den, degree)


def chi_lines(f: BiSeries, A: SeifertMatrix, degree: int) -> list[str]:
    """``chi(f, A, degree).to_lines()`` from the stores; only sparse lengths decode words."""
    stores, den = _chi_stores(f, A, degree)
    return ncalg.store_lines(A.n, den, stores)


def chi_delta(A: SeifertMatrix, degree: int) -> NCSeries:
    return chi(genfun.delta_series(degree), A, degree)


def chi_phi(A: SeifertMatrix, degree: int) -> NCSeries:
    return chi(genfun.phi_series(degree), A, degree)


# -- block-trace formula (the oracle route) --------------------------------


def tr_monomial(word: str, A: SeifertMatrix, degree: int) -> NCSeries:
    """tr f(X, Z) for a single monomial, as the block-trace sum it is.

    One open path starts at each nonempty block v1 with the identity; each
    z-run z^e but the last extends a path v by every block j, times the block
    (Z^e)_{vt j}, and the last closes it back to v1 with the trace T(v).
    """
    seifert.require_valid(A)
    st, (runs, zruns) = A.structure, word_runs(genfun.check_word(word))
    terms: dict[Word, int] = {}
    if sum(runs) > degree:
        return NCSeries.zero(st.n, degree)
    if not zruns:  # tr X^j = sum_i 2 g_i x_i^j
        for i in range(1, st.n + 1):
            terms[(i,) * runs[0]] = terms.get((i,) * runs[0], 0) + 2 * st.genus(i)
        return NCSeries(st.n, degree, terms)
    z = seifert.z_matrix(A)
    powers = [None, z]
    for _ in range(max(zruns) - 1):
        powers.append(seifert.mat_mul(powers[-1], z))
    ranges = {i: st.block_range(i) for i in range(1, st.n + 1) if st.sizes[i - 1]}
    # {v: (Z^e1)_{v1 v2} ... (Z^et)_{vt v(t+1)}} after t z-runs
    paths = {(i,): [[int(r == c) for c in rows] for r in rows] for i, rows in ranges.items()}
    for e in zruns[:-1]:  # times the rows of block vt of Z^e, cut into the blocks j
        grown = {}
        for v, prod in paths.items():
            rows = ranges[v[-1]]
            wide = seifert.mat_mul(prod, powers[e][rows.start : rows.stop])
            for j, cols in ranges.items():
                grown[v + (j,)] = [row[cols.start : cols.stop] for row in wide]
        paths = grown
    columns = list(zip(*powers[zruns[-1]]))  # of Z^ek
    for v, prod in paths.items():
        # tr(prod (Z^ek)_{vk v1}) = sum_r row_r(prod) . column_r((Z^ek)_{vk v1})
        last = ranges[v[-1]]
        trace = sum(sum(map(mul, row, columns[c][last.start : last.stop]))
                    for row, c in zip(prod, ranges[v[0]]))
        if trace:  # x_v1^j1 ... x_vk^jk x_v1^j(k+1)
            key = tuple(chain.from_iterable(map(repeat, v + v[:1], runs)))
            terms[key] = terms.get(key, 0) + trace
    return NCSeries(st.n, degree, terms)


# -- half-rank correction ---------------------------------------------------


def half_rank_correction(structure: BlockStructure, degree: int) -> NCSeries:
    """Sum over components of g_i (x_i - x_i_bar), expanded to ``degree``.

    This equals tr((I + X H)^-1 X) for every H of ``seifert.half_ones``; the
    direct evaluation is available as ``i_half_trace(phi_series(N), ...)``.
    """
    out = NCSeries.zero(structure.n, degree)
    for i in range(1, structure.n + 1):
        x = NCSeries.variable(structure.n, degree, i)
        out += (x - ncalg.bar(x)).scale(structure.genus(i))
    return out


# -- torsion polynomial ------------------------------------------------------


def torsion_polynomial(A: SeifertMatrix, degree: int) -> CommSeries:
    """Normalized determinant invariant as a commutative series.

    det((I + X)^(-1/2) (I + X Z)); the constant term is 1 and the series is
    fixed by every t_i -> 1/t_i.  It is exp(L - sum_i g_i log(1 + x_i)) with
    L = log det(I + X Z) = sum_{k>=1} (-1)^(k+1)/k tr((X Z)^k), where
    (X Z)^k = sum_{|e|=k} x^e M_e over the integer matrices M_(e_i) = P_i Z
    (the rows of block i of Z, P_i keeping the rows of block i) and
    M_e = sum_{i: e_i > 0} P_i Z M_{e - e_i}.

    Each row of M_e is held as one integer, entry c in slot c of a fixed
    width (Kronecker substitution), so row_r(P_i Z M_e) = sum_c Z[r][c]
    row_c(M_e) is one sum of big-int products.  Every entry of M_e, and
    every partial sum of a row, is at most ||Z||^|e| in absolute value,
    ||Z|| the largest absolute row sum of Z; a width of bits(||Z||^h) + 2,
    in whole bytes and at least 8, keeps the slots from carrying into each
    other.  Every row is decoded once, all into one flat list, by
    ``_unpack``.

    M_e is the sum of P_w1 Z ... P_wk Z over the words w of content e.  The
    recurrence runs only to |e| <= h = ceil(degree/2): each longer word
    splits in exactly one way after its h-th letter, so for |e| > h
    tr M_e = sum over e1 <= e with |e1| = h of tr(M_e1 M_(e - e1)), with
    |e - e1| <= h.  M_e is zero outside the rows R(e) of the blocks i with
    e_i > 0, so tr(M_e1 M_e2) is one dot product of the rows R(e2) of M_e2
    with the columns R(e2) of M_e1.  At even degree the last stage
    multiplies level h by itself, and as tr(A B) = tr(B A) each unordered
    pair {e1, e2} is computed once and counted twice when e1 != e2.

    From the traces t_e = tr M_e the series T is found in integers, grade by
    grade, without L or exp: the grading derivation D x^e = |e| x^e gives
    D T = T D(log T), and D(log T) has the integer coefficients
    q_e = (-1)^(|e|+1) t_e, plus (-1)^j g_i at e = j e_i.  So T_0 = 1 and
    |e| T_e = sum over e1 + e2 = e, |e1| >= 1, of q_e1 T_e2, a division that
    is exact because T has integer coefficients.  This holds only because
    the variables commute.
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
    entries = _unpack([r for level in levels for _, mat in level.values() for r in mat], m, size)
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
    q = {e: trace if sum(e) % 2 else -trace for e, trace in traces.items()}
    for i, _ in blocks:
        for j in range(1, degree + 1):
            e = (0,) * i + (j,) + (0,) * (n - i - 1)
            q[e] = q.get(e, 0) + (-1) ** j * st.genus(i + 1)
    q_at = [[(e, v) for e, v in q.items() if v and sum(e) == g] for g in range(degree + 1)]
    grades = [[((0,) * n, 1)]]  # grades[k]: (e, T_e) for |e| = k
    for k in range(1, degree + 1):
        acc: dict[commalg.Expo, int] = {}
        for g in range(1, k + 1):
            for e1, v1 in q_at[g]:
                for e2, v2 in grades[k - g]:
                    e = tuple(map(add, e1, e2))
                    acc[e] = acc.get(e, 0) + v1 * v2
        grades.append([(e, v // k) for e, v in acc.items() if v])
    return CommSeries.zero(n, degree)._same(dict(chain(*grades)), 1, degree)


# -- reconstruction from the word with every z isolated ----------------------


def reconstruct_trace(word: str, A: SeifertMatrix, degree: int) -> NCSeries:
    """Recover tr f(X, Z) from the reduced monomial x (zx)^e1 ... (zx)^ek.

    The reduced monomial isolates every z: it writes each z-run z^e as (zx)^e
    and each x-run as one x.  Its trace is read from the half-product table.
    In each word of that trace, x-run t of ``word`` (t = 0..k) takes the
    letter at position e1 + ... + et, repeated to the run's length; the
    other letters are dropped.
    """
    z = seifert.z_matrix(A)
    runs, zruns = word_runs(genfun.check_word(word))
    reduced = "x" + "".join("zx" * e for e in zruns)
    raw = store_words(A.n, _trace_by_halves({reduced: 1}, A.structure, z))
    xs = list(accumulate(zruns, initial=0))
    terms: dict[Word, int] = {}
    for w, coeff in raw.items():
        key = tuple([w[pos] for pos, run in zip(xs, runs) for _ in range(run)])
        terms[key] = terms.get(key, 0) + coeff
    return NCSeries(A.n, degree, terms)
