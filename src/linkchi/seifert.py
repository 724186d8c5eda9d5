"""Seifert matrices: validation, derived matrices, moves and file format.

A Seifert matrix is an integer matrix A partitioned into blocks, one per
link component, subject to the Seifert axioms: its intersection form
S = A - A' is block diagonal with det-1 diagonal blocks.  A det-1 block has
even size (an odd skew-symmetric matrix is singular).

A matrix and its block structure are named tuples.  Derived data, each
cached by value: the violated axioms, read off S, and the transition matrix
Z = A S^-1, built block by block from the blocks of S (a det-1 block has an
integral inverse; one fraction-free elimination gives the determinants and
the inverses).  The half-ones diagonals H of ``half_ones``
normalize the traces.  The two matrix moves generating S-equivalence are
block congruence (s1) and the bordered two-row stabilization (s2).
"""

from __future__ import annotations

import collections
import functools
import itertools
import json
from collections.abc import Iterable, Iterator, Sequence
from operator import mul, sub

IntMatrix = tuple[tuple[int, ...], ...]


def _int_matrix(rows, size: int) -> IntMatrix:
    """``rows`` as a size x size tuple of int tuples; ValueError if they are not one.

    This is the one check of a matrix's shape and entries: an entry is an
    ``int`` and not a ``bool``.
    """
    try:
        out = tuple(map(tuple, rows))
    except TypeError:  # rows, or one of them, is not iterable
        out = None
    if (
        out is None
        or len(out) != size
        or any(len(row) != size for row in out)
        or not all(
            issubclass(t, int) and t is not bool
            for t in set(map(type, itertools.chain.from_iterable(out)))
        )
    ):
        raise ValueError("not a %dx%d integer matrix" % (size, size))
    return out


def _bareiss(work: list[list[int]], jordan: bool) -> int:
    """Fraction-free (Bareiss) elimination of ``work`` in place; det of its square part.

    Column c's pivot clears column c from the rows below it, or with
    ``jordan`` from every other row, updating only the columns right of c
    (no later step reads the others); each division by the previous pivot
    is exact.  A row swap negates one of the two rows, so the determinant
    never changes sign and the last pivot is it; a column without a pivot
    returns 0.  After a ``jordan`` pass the columns right of the square part
    hold d times the inverse of the square part, d the last pivot.
    """
    size = len(work)
    prev = 1
    for c in range(size):
        if not work[c][c]:
            swap = next((r for r in range(c + 1, size) if work[r][c]), None)
            if swap is None:
                return 0
            work[c], work[swap] = work[swap], [-v for v in work[c]]
        top = work[c]
        pivot = top[c]
        for r in range(0 if jordan else c + 1, size):
            if r != c:
                row = work[r]
                f = row[c]
                for k in range(c + 1, len(top)):
                    row[k] = (row[k] * pivot - f * top[k]) // prev
        prev = pivot
    return prev


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix."""
    return _bareiss([list(row) for row in rows], False)


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    cols = list(zip(*b)) if b else []
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def mat_transpose(a: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


class BlockStructure(collections.namedtuple("BlockStructure", "sizes")):
    """Component count and per-component block sizes."""

    __slots__ = ()

    def __new__(cls, sizes: Iterable[int]):
        sizes = tuple(sizes)
        if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in sizes):
            raise ValueError("block sizes must be non-negative integers")
        return super().__new__(cls, sizes)

    @property
    def n(self) -> int:
        return len(self.sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    def offset(self, i: int) -> int:
        """Start index of block i (1-based component index)."""
        return sum(self.sizes[: i - 1])

    def block_range(self, i: int) -> range:
        lo = self.offset(i)
        return range(lo, lo + self.sizes[i - 1])

    def genus(self, i: int) -> int:
        return self.sizes[i - 1] // 2


class SeifertMatrix(collections.namedtuple("SeifertMatrix", "structure entries")):
    """An integer matrix with a block partition; axioms checked by validate.

    The entries are checked for shape and type on construction, the axioms
    only by ``validate``, whose result is cached by value as ``z_matrix``'s
    is.  ``_make`` and ``_replace`` skip the entry check.
    """

    __slots__ = ()

    def __new__(cls, structure: BlockStructure, entries):
        return super().__new__(cls, structure, _int_matrix(entries, structure.total))

    @property
    def n(self) -> int:
        return self.structure.n

    @property
    def size(self) -> int:
        return self.structure.total

    def transpose(self) -> "SeifertMatrix":
        return SeifertMatrix(self.structure, mat_transpose(self.entries))


def seifert_matrix(block_sizes: Iterable[int], entries) -> SeifertMatrix:
    return SeifertMatrix(BlockStructure(block_sizes), entries)


def validate(A: SeifertMatrix) -> list[str]:
    """Return the list of violated Seifert axioms (empty means valid)."""
    return list(_violated_axioms(A))


def _block_slices(structure: BlockStructure) -> list[slice]:
    """The rows of each block, as slices."""
    return [slice(r.start, r.stop) for r in map(structure.block_range, range(1, structure.n + 1))]


@functools.lru_cache(maxsize=256)
def _violated_axioms(A: SeifertMatrix) -> tuple[str, ...]:
    st = A.structure
    s = intersection_form(A)
    spans = _block_slices(st)
    problems = [
        "component %d: block size %d is odd" % (i, size)
        for i, size in enumerate(st.sizes, start=1)
        if size % 2
    ]
    for i, b in enumerate(spans, start=1):
        d = int_det([row[b] for row in s[b]])
        if d != 1:
            problems.append(
                "component %d: det(A_%d%d - A_%d%d') = %d, expected 1"
                % (i, i, i, i, i, d)
            )
    for i, bi in enumerate(spans, start=1):
        for j, bj in enumerate(spans[i:], start=i + 1):
            # block (i, j) is the transpose of block (j, i): S is 0 on the
            # rows B_i and the columns B_j
            if any(any(row[bj]) for row in s[bi]):
                problems.append(
                    "blocks (%d,%d) and (%d,%d) are not transposes" % (i, j, j, i)
                )
    return tuple(problems)


def require_valid(A: SeifertMatrix) -> None:
    problems = validate(A)
    if problems:
        raise ValueError("invalid Seifert matrix: " + "; ".join(problems))


def intersection_form(A: SeifertMatrix) -> IntMatrix:
    """S = A - A': ``validate`` reads the axioms off it, ``z_matrix`` builds
    Z = A S^-1 block by block from its diagonal blocks."""
    return tuple(tuple(map(sub, row, col)) for row, col in zip(A.entries, zip(*A.entries)))


@functools.lru_cache(maxsize=256)
def z_matrix(A: SeifertMatrix) -> IntMatrix:
    """Z = A S^-1 with S = A - A', built block by block from the blocks of S.

    The columns of block i of Z are A[:, B_i] S_ii^-1, with S_ii^-1 the right
    half of [S_ii | I] after ``_bareiss``'s Gauss-Jordan pass, whose last
    pivot is det S_ii = 1.  Satisfies Z + S Z' S^-1 = I.
    """
    require_valid(A)
    s = intersection_form(A)
    parts = []
    for b in _block_slices(A.structure):
        size = b.stop - b.start
        work = [list(row[b]) + [int(r == c) for c in range(size)] for r, row in enumerate(s[b])]
        if _bareiss(work, True) != 1:
            raise ValueError("a diagonal block of A - A' does not have det 1")
        parts.append((b, list(zip(*work))[size:]))  # the columns of S_ii^-1
    return tuple(
        tuple([sum(map(mul, row[b], col)) for b, cols in parts for col in cols]) for row in A.entries
    )


def half_ones(structure: BlockStructure) -> Iterator[IntMatrix]:
    """Every balanced half-ones matrix H: diagonal, 0/1, g_i ones in block i.

    Block i puts its ones on each of the C(2 g_i, g_i) choices of its rows
    in ``itertools.combinations`` order, the last block varying fastest.
    An odd block has no H; it raises ``ValueError`` at the call, and no H
    is built before the iteration asks for it.
    """
    if any(size % 2 for size in structure.sizes):
        raise ValueError("half-ones matrix needs even block sizes")

    def each() -> Iterator[IntMatrix]:
        total = structure.total
        zero = (0,) * total
        unit = [zero[:r] + (1,) + zero[r + 1:] for r in range(total)]
        blocks = [itertools.combinations(range(b.start, b.stop), (b.stop - b.start) // 2)
                  for b in _block_slices(structure)]
        for choice in itertools.product(*blocks):
            ones = set().union(*choice)
            yield tuple(unit[r] if r in ones else zero for r in range(total))

    return each()


def move_s1(A: SeifertMatrix, P: Sequence[Sequence[int]]) -> SeifertMatrix:
    """Congruence B = P A P' for a block-diagonal unimodular integer P."""
    P = _int_matrix(P, A.size)
    spans = _block_slices(A.structure)
    rows = [(b, P[r]) for b in spans for r in range(b.start, b.stop)]
    if any(any(row[: b.start]) or any(row[b.stop :]) for b, row in rows):
        raise ValueError("P is not block diagonal")
    for i, b in enumerate(spans, start=1):
        if int_det([P[r][b] for r in range(b.start, b.stop)]) not in (1, -1):
            raise ValueError("P block %d is not unimodular" % i)
    return SeifertMatrix(A.structure, mat_mul(mat_mul(P, A.entries), mat_transpose(P)))


def move_s2(
    A: SeifertMatrix, component: int, variant: str, rho: Sequence[int]
) -> SeifertMatrix:
    """Bordered stabilization: grow one component block by two.

    The two new rows and columns are inserted at the end of the chosen
    component's index range.  The new 2x2 corner is [[0,1],[0,0]] for
    variant "a" and [[0,0],[1,0]] for variant "b"; the old rows see the
    bordering column rho and a zero column.
    """
    st = A.structure
    if isinstance(component, bool) or not isinstance(component, int) or not 1 <= component <= st.n:
        raise ValueError("component %r is not an integer in 1..%d" % (component, st.n))
    if variant not in ("a", "b"):
        raise ValueError("variant must be 'a' or 'b'")
    rho = tuple(rho)  # the new matrix's entry check rejects any entry that is not an int
    if len(rho) != A.size:
        raise ValueError("rho must have length %d" % A.size)
    corner = ((0, 1), (0, 0)) if variant == "a" else ((0, 0), (1, 0))
    k = st.offset(component) + st.sizes[component - 1]
    rows = [row[:k] + (v, 0) + row[k:] for row, v in zip(A.entries, rho)]
    rows[k:k] = [rho[:k] + corner[0] + rho[k:], (0,) * k + corner[1] + (0,) * (A.size - k)]
    sizes = st.sizes[: component - 1] + (st.sizes[component - 1] + 2,) + st.sizes[component:]
    return SeifertMatrix(BlockStructure(sizes), rows)


def reflect(A: SeifertMatrix) -> SeifertMatrix:
    """Transpose, the Seifert matrix of the link with every orientation reversed.
    The mirror image has -A' (Lickorish, ch. 6); both have Z = I - Z(A)."""
    return A.transpose()


def direct_sum(A: SeifertMatrix, B: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum on the concatenated component structure."""
    rows = [row + (0,) * B.size for row in A.entries] + [(0,) * A.size + row for row in B.entries]
    return SeifertMatrix(BlockStructure(A.structure.sizes + B.structure.sizes), rows)


def random_seifert_rng(rng: random.Random, genera: Sequence[int], bound: int) -> SeifertMatrix:
    """Random valid matrix: diagonal blocks Q + Q' + J, symmetric off-diagonal.

    J is the symplectic seed, with a 1 at (2g, 2g + 1) for each g < genus.
    """
    if bound < 0:
        raise ValueError("bound must be >= 0")
    st = BlockStructure([2 * g for g in genera])
    spans = _block_slices(st)
    entries = [[0] * st.total for _ in range(st.total)]
    for b in spans:
        s = b.stop - b.start
        q = [[rng.randint(-bound, bound) for _ in range(s)] for _ in range(s)]
        for a in range(s):
            entries[b.start + a][b] = [x + y for x, y in zip(q[a], (row[a] for row in q))]
        for a in range(b.start, b.stop, 2):
            entries[a][a + 1] += 1
    for i, bi in enumerate(spans):
        for bj in spans[i + 1 :]:
            for r in range(bi.start, bi.stop):
                for c in range(bj.start, bj.stop):
                    entries[r][c] = entries[c][r] = rng.randint(-bound, bound)
    return SeifertMatrix(st, entries)


def random_block_unimodular(rng: random.Random, structure: BlockStructure) -> IntMatrix:
    """Block-diagonal unimodular matrix from a few elementary operations."""
    total = structure.total
    P = [[int(r == c) for c in range(total)] for r in range(total)]
    for i in range(1, structure.n + 1):
        idx = list(structure.block_range(i))
        if len(idx) < 1:
            continue
        for _ in range(rng.randint(1, 3)):
            kind = rng.randrange(3)
            r = rng.choice(idx)
            if kind == 0 and len(idx) > 1:
                c = rng.choice([k for k in idx if k != r])
                coeff = rng.choice([-2, -1, 1, 2])
                for k in range(total):
                    P[r][k] += coeff * P[c][k]
            elif kind == 1:
                for k in range(total):
                    P[r][k] = -P[r][k]
            elif kind == 2 and len(idx) > 1:
                c = rng.choice([k for k in idx if k != r])
                P[r], P[c] = P[c], P[r]
    return tuple(map(tuple, P))


def random_move_rng(rng: random.Random, A: SeifertMatrix) -> SeifertMatrix:
    """One random s1 or s2 move; identity on component-free matrices."""
    if A.n == 0:
        return A
    if rng.random() < 0.5:
        return move_s1(A, random_block_unimodular(rng, A.structure))
    component = rng.randint(1, A.n)
    variant = rng.choice("ab")
    rho = [rng.randint(-2, 2) for _ in range(A.size)]
    return move_s2(A, component, variant, rho)


def apply_random_moves(A: SeifertMatrix, seed: int, count: int) -> SeifertMatrix:
    import random

    rng = random.Random(seed)
    for _ in range(count):
        A = random_move_rng(rng, A)
    return A


# -- file format ---------------------------------------------------------


class MatrixFormatError(ValueError):
    """Raised when a matrix file does not parse."""


def serialize(A: SeifertMatrix) -> str:
    doc = {
        "components": A.n,
        "block_sizes": list(A.structure.sizes),
        "entries": [list(row) for row in A.entries],
    }
    return json.dumps(doc, indent=1) + "\n"


def parse(text: str) -> SeifertMatrix:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MatrixFormatError(
            "line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg)
        ) from None
    except RecursionError:
        raise MatrixFormatError("JSON nested too deeply") from None
    except ValueError as exc:  # an integer beyond CPython's int/str digit limit
        raise MatrixFormatError("integer too long: %s" % exc) from None
    if not isinstance(doc, dict):
        raise MatrixFormatError("top level must be an object")
    for field in ("components", "block_sizes", "entries"):
        if field not in doc:
            raise MatrixFormatError("missing field %r" % field)
    components = doc["components"]
    sizes = doc["block_sizes"]
    entries = doc["entries"]
    if not isinstance(components, int) or isinstance(components, bool):
        raise MatrixFormatError("components must be an integer")
    # only a list is a matrix or a list of sizes: "" and {} would pass as empty
    try:
        structure = BlockStructure(sizes if isinstance(sizes, list) else None)
    except (TypeError, ValueError):
        raise MatrixFormatError("block_sizes must be a list of non-negative integers") from None
    if len(sizes) != components:
        raise MatrixFormatError(
            "components=%d but block_sizes has %d entries" % (components, len(sizes))
        )
    try:
        return SeifertMatrix(structure, entries if isinstance(entries, list) else None)
    except ValueError:
        total = structure.total
        raise MatrixFormatError("entries must be a %dx%d integer matrix" % (total, total)) from None
