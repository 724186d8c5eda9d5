"""Trace invariants of Seifert matrices.

The invariant attached to a generating series f(x, z) is

    tr f(X, Z) - tr f(X, H)

where X is the block-scalar matrix carrying the variable x_i on block i,
Z = A (A - A')^-1, and H is the half-ones diagonal normalizer.  The value
is a truncated noncommutative series in x_1..x_n with exact rational
coefficients.

Two independent evaluation routes are provided.  ``tr_series`` substitutes
the matrices into each monomial of f and multiplies matrices whose entries
are noncommutative series; it is organized word-by-word, so each partial
product is a finite sum of (integer matrix) * (word) and only integer
arithmetic happens until the final trace.  ``tr_monomial`` instead
evaluates the closed block-trace formula: for a monomial
x^f0 z^e1 x^f1 ... z^ek x^fk the trace is the sum over block index tuples
(i1..ik) of tr((Z^e1)_{i1 i2} ... (Z^ek)_{ik i1}) times the word
x_{i1}^f0 x_{i2}^f1 ... x_{i1}^fk.  The two routes are kept separate so
each can serve as the other's oracle.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from . import commalg, genfun, seifert
from .commalg import CommSeries
from .genfun import BiSeries, word_runs
from .ncalg import NCSeries
from .seifert import BlockStructure, SeifertMatrix

Word = tuple[int, ...]


# -- word-by-word matrix evaluation (the symbolic route) -------------------
#
# A partial product is a map word -> restricted integer matrix.  Restricted
# means: rows live in [r0, r1), columns in [c0, c1); everything outside is
# zero.  Multiplying by the block-scalar X on the right masks columns to one
# block and appends that block's variable to the word; multiplying by a
# rational matrix on the right widens the columns back to full.

_IDENTITY = object()


class _State:
    __slots__ = ("word", "r0", "r1", "c0", "c1", "data")

    def __init__(self, word, r0, r1, c0, c1, data):
        self.word = word
        self.r0 = r0
        self.r1 = r1
        self.c0 = c0
        self.c1 = c1
        self.data = data  # list of rows, or _IDENTITY


def _initial_state(m: int) -> _State:
    return _State((), 0, m, 0, m, _IDENTITY)


def _materialize(st: _State) -> list[list[int]]:
    if st.data is _IDENTITY:
        width = st.c1 - st.c0
        return [
            [1 if st.r0 + r == st.c0 + c else 0 for c in range(width)]
            for r in range(st.r1 - st.r0)
        ]
    return st.data


def _step_mat(st: _State, rows, m: int) -> _State:
    if st.data is _IDENTITY:
        return _State(st.word, st.r0, st.r1, 0, m, [list(row) for row in rows])
    data = st.data
    slice_rows = rows[st.c0 : st.c1]
    out = []
    for row in data:
        acc = [0] * m
        for a, zrow in zip(row, slice_rows):
            if a:
                for j in range(m):
                    v = zrow[j]
                    if v:
                        acc[j] += a * v
        out.append(acc)
    return _State(st.word, st.r0, st.r1, 0, m, out)


def _step_blk(st: _State, structure: BlockStructure, i: int, offset: int) -> _State | None:
    rng = structure.block_range(i)
    a = max(st.c0, rng.start)
    b = min(st.c1, rng.stop)
    if a >= b:
        return None
    data = st.data
    if data is _IDENTITY:
        data = _materialize(st)
    out = [row[a - st.c0 : b - st.c0] for row in data]
    return _State(st.word + (offset + i,), st.r0, st.r1, a, b, out)


def _trace_state(st: _State, m: int) -> int:
    if st.data is _IDENTITY:
        return max(0, min(st.r1, st.c1) - max(st.r0, st.c0))
    lo = max(st.r0, st.c0)
    hi = min(st.r1, st.c1)
    total = 0
    for r in range(lo, hi):
        total += st.data[r - st.r0][r - st.c0]
    return total


def _trace_after_mat(st: _State, rows, m: int) -> int:
    data = _materialize(st)
    total = 0
    for r in range(st.r0, st.r1):
        row = data[r - st.r0]
        for k in range(st.c0, st.c1):
            v = row[k - st.c0]
            if v:
                total += v * rows[k][r]
    return total


def _trace_after_blk(st: _State, structure, i: int) -> int:
    rng = structure.block_range(i)
    lo = max(st.r0, st.c0, rng.start)
    hi = min(st.r1, st.c1, rng.stop)
    if st.data is _IDENTITY:
        return max(0, hi - lo)
    total = 0
    for r in range(lo, hi):
        total += st.data[r - st.r0][r - st.c0]
    return total


def _build_trie(terms) -> dict:
    """Letter trie of monomials; the key None holds a coefficient."""
    root: dict = {}
    for word, coeff in terms.items():
        node = root
        for letter in word:
            node = node.setdefault(letter, {})
        node[None] = node.get(None, Fraction(0)) + coeff
    return root


def _trace_trie(
    trie: dict,
    structure: BlockStructure,
    images: dict,
    trunc: int,
) -> dict[Word, Fraction]:
    """Sum of coeff * tr(monomial(X.., images)) over a trie of monomials."""
    m = structure.total
    out: dict[Word, Fraction] = {}

    def emit(word: Word, coeff: Fraction, trace: int) -> None:
        if trace:
            value = coeff * trace
            prev = out.get(word)
            total = value if prev is None else prev + value
            if total:
                out[word] = total
            elif prev is not None:
                del out[word]

    def walk(node: dict, st: _State) -> None:
        coeff = node.get(None)
        if coeff is not None:
            emit(st.word, coeff, _trace_state(st, m))
        for letter, child in node.items():
            if letter is None:
                continue
            action = images[letter]
            terminal = set(child) == {None}
            if action[0] == "blk":
                offset = action[1]
                if len(st.word) >= trunc:
                    continue
                for i in range(1, structure.n + 1):
                    if terminal:
                        tr = _trace_after_blk(st, structure, i)
                        emit(st.word + (offset + i,), child[None], tr)
                    else:
                        nxt = _step_blk(st, structure, i, offset)
                        if nxt is not None:
                            walk(child, nxt)
            else:
                if terminal:
                    emit(st.word, child[None], _trace_after_mat(st, action[1], m))
                else:
                    walk(child, _step_mat(st, action[1], m))

    walk(trie, _initial_state(m))
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
    images = {"x": ("blk", 0), "z": ("mat", M)}
    # words whose x-degree exceeds the requested degree cannot contribute
    terms = {w: c for w, c in f.terms.items() if genfun.xdegree(w) <= degree}
    trie = _build_trie(terms)
    raw = _trace_trie(trie, structure, images, degree)
    return NCSeries(structure.n, degree, raw)


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
    full_degree = sum(1 for ch in reduced if ch in "xy")
    z = seifert.z_matrix(A)
    images = {"x": ("blk", 0), "y": ("blk", n), "z": ("mat", z)}
    trie = _build_trie({reduced: Fraction(1)})
    raw = _trace_trie(trie, st, images, full_degree)
    powers = [f0] + [f for _, f in pairs]
    terms: dict[Word, Fraction] = {}
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
        if len(key) > degree:
            continue
        total = terms.get(key, Fraction(0)) + coeff
        if total:
            terms[key] = total
        elif key in terms:
            del terms[key]
    return NCSeries(n, degree, terms)
