"""Seifert matrices: validation, derived matrices, moves and file format.

A Seifert matrix is an integer matrix partitioned into blocks, one per link
component, subject to two axioms: the (i,j) and (j,i) blocks are transposes
of each other for i != j, and each diagonal block B satisfies
det(B - B') = 1.  The second axiom forces every block size to be even
(an odd skew-symmetric matrix is singular).

Derived data: the intersection form S = A - A' (block diagonal, det 1, so
its inverse is integral), the transition matrix Z = A S^-1, and the
half-ones diagonals H of ``half_ones`` that normalize the traces.  The two
matrix moves generating S-equivalence are block congruence (s1) and the
bordered two-row stabilization (s2).
"""

from __future__ import annotations

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


def int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination)."""
    size = len(rows)
    if size == 0:
        return 1
    work = [list(row) for row in rows]
    sign = 1
    prev = 1
    for c in range(size - 1):
        if work[c][c] == 0:
            for r in range(c + 1, size):
                if work[r][c]:
                    work[c], work[r] = work[r], work[c]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(c + 1, size):
            for k in range(c + 1, size):
                work[r][k] = (work[r][k] * work[c][c] - work[r][c] * work[c][k]) // prev
            work[r][c] = 0
        prev = work[c][c]
    return sign * work[size - 1][size - 1]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> IntMatrix:
    cols = list(zip(*b)) if b else []
    return tuple(tuple([sum(map(mul, row, col)) for col in cols]) for row in a)


def mat_transpose(a: Sequence[Sequence[int]]) -> IntMatrix:
    return tuple(zip(*a)) if a else ()


class _Frozen:
    """An immutable value: equal, hashed and shown by the fields ``_fields``.

    Assigning or deleting an attribute raises ``AttributeError``; a
    constructor sets its slots with ``object.__setattr__``.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__name__, fields)

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class BlockStructure(_Frozen):
    """Component count and per-component block sizes."""

    __slots__ = ("sizes",)
    _fields = __slots__

    def __init__(self, sizes: Iterable[int]):
        sizes = tuple(sizes)
        if not all(isinstance(s, int) and not isinstance(s, bool) and s >= 0 for s in sizes):
            raise ValueError("block sizes must be non-negative integers")
        object.__setattr__(self, "sizes", sizes)

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


class SeifertMatrix(_Frozen):
    """An integer matrix with a block partition; axioms checked by validate.

    ``validate`` keeps the list of violated axioms in the ``_problems``
    slot, so a matrix is checked once however often it is validated.
    """

    __slots__ = ("structure", "entries", "_problems")
    _fields = ("structure", "entries")

    def __init__(self, structure: BlockStructure, entries):
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "entries", _int_matrix(entries, structure.total))
        object.__setattr__(self, "_problems", None)

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
    if A._problems is None:
        object.__setattr__(A, "_problems", tuple(_violated_axioms(A)))
    return list(A._problems)


def _block_slices(structure: BlockStructure) -> list[slice]:
    """The rows of each block, as slices."""
    return [slice(r.start, r.stop) for r in map(structure.block_range, range(1, structure.n + 1))]


def _skew_block(e: IntMatrix, t: Sequence[Sequence[int]], b: slice) -> list[list[int]]:
    """B - B' for the diagonal block B of A on ``b``, with ``t`` the rows of A'."""
    return [list(map(sub, e[r][b], t[r][b])) for r in range(b.start, b.stop)]


def _violated_axioms(A: SeifertMatrix) -> list[str]:
    st = A.structure
    e = A.entries
    t = list(zip(*e))
    spans = _block_slices(st)
    problems = [
        "component %d: block size %d is odd" % (i, size)
        for i, size in enumerate(st.sizes, start=1)
        if size % 2
    ]
    for i, b in enumerate(spans, start=1):
        d = int_det(_skew_block(e, t, b))
        if d != 1:
            problems.append(
                "component %d: det(A_%d%d - A_%d%d') = %d, expected 1"
                % (i, i, i, i, i, d)
            )
    for i, bi in enumerate(spans, start=1):
        for j, bj in enumerate(spans[i:], start=i + 1):
            # block (i, j) is the transpose of block (j, i): rows B_i of A
            # and of A' agree on the columns B_j
            if any(e[r][bj] != t[r][bj] for r in range(bi.start, bi.stop)):
                problems.append(
                    "blocks (%d,%d) and (%d,%d) are not transposes" % (i, j, j, i)
                )
    return problems


def require_valid(A: SeifertMatrix) -> None:
    problems = validate(A)
    if problems:
        raise ValueError("invalid Seifert matrix: " + "; ".join(problems))


def intersection_form(A: SeifertMatrix) -> IntMatrix:
    """S = A - A', block diagonal with per-block determinant 1."""
    e = A.entries
    size = A.size
    return tuple(
        tuple(e[r][c] - e[c][r] for c in range(size)) for r in range(size)
    )


def _invert_unimodular_block(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Inverse of an integer matrix with determinant +-1 (exact, integral).

    Fraction-free Gauss-Jordan (Bareiss) on [A | I]: each step's division
    by the previous pivot is exact, and the last pivot d = +-det A leaves
    [d I | d A^-1], so A^-1 is integral exactly when d is a unit.
    """
    size = len(rows)
    work = [list(row) + [int(r == c) for c in range(size)] for r, row in enumerate(rows)]
    prev = d = 1
    for c in range(size):
        if not work[c][c]:
            swap = next((r for r in range(c + 1, size) if work[r][c]), None)
            if swap is None:
                raise ValueError("block is singular")
            work[c], work[swap] = work[swap], work[c]
        d, pivot_row = work[c][c], work[c]
        for r in range(size):
            if r != c:
                f = work[r][c]
                work[r] = [(d * a - f * b) // prev for a, b in zip(work[r], pivot_row)]
        prev = d
    if d not in (1, -1):
        raise ValueError("block inverse is not integral")
    return [[v * d for v in row[size:]] for row in work]


@functools.lru_cache(maxsize=256)
def z_matrix(A: SeifertMatrix) -> IntMatrix:
    """Z = A (A - A')^-1; integral because det(A - A') = 1.

    A - A' is block diagonal, so the columns of block i of Z are
    A[:, B_i] (A_ii - A_ii')^-1.  Satisfies Z + S Z' S^-1 = I with S the
    intersection form.
    """
    require_valid(A)
    e = A.entries
    t = list(zip(*e))
    parts = [
        (b, list(zip(*_invert_unimodular_block(_skew_block(e, t, b)))))
        for b in _block_slices(A.structure)
    ]
    return tuple(
        tuple([sum(map(mul, row[b], col)) for b, cols in parts for col in cols]) for row in e
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
    if not 1 <= component <= st.n:
        raise ValueError("component %d out of range 1..%d" % (component, st.n))
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
    """Transpose, the Seifert matrix of the mirror-image link."""
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


def random_move_rng(rng: random.Random, A: SeifertMatrix, bound: int = 2) -> SeifertMatrix:
    """One random s1 or s2 move; identity on component-free matrices."""
    if A.n == 0:
        return A
    if rng.random() < 0.5:
        return move_s1(A, random_block_unimodular(rng, A.structure))
    component = rng.randint(1, A.n)
    variant = rng.choice("ab")
    rho = [rng.randint(-bound, bound) for _ in range(A.size)]
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
