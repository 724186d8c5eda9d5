"""Truncated commutative power series over Q and matrices of them.

This is the abelian shadow of the noncommutative kernel: exponent-vector
monomials with exact rational coefficients, plus the matrix machinery
(determinant, trace-of-log, LU factorization) that the commutative-lemma
checks exercise and the torsion oracle uses.  All entries live in the
local ring where any element with constant term 1 is invertible, so
Gaussian elimination needs no row exchanges.  ``lu_decompose`` is the one
elimination; ``det_unit`` is the product of its pivots, the diagonal of U.

Inverse and log are ``Series.inverse`` and ``Series.log1p``, whose power
series reject a non-unit by its grade; ``inverse_unit`` and ``log_unit``
only name them for the matrix routines and the benchmark's tracer.  Exp,
behind the torsion series and ``unit_power``, is computed in one pass,
grade by grade, from the recurrence that the grading derivation gives
when the variables commute (see ``exp_positive``).  Exp and matrix
products run on the integer numerators of their operands, like series
products, through ``Series._dot``, and reduce each result once.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from fractions import Fraction

from .series import Series

Expo = tuple[int, ...]


def format_expo(expo: Expo) -> str:
    if not any(expo):
        return "1"
    return ".".join("x%d^%d" % (i + 1, e) for i, e in enumerate(expo) if e)


def _add_expos(a: Expo, b: Expo) -> Expo:
    return tuple(map(operator.add, a, b))


class CommSeries(Series):
    """Series in ``n`` commuting variables truncated at total degree ``trunc``.

    Keys are exponent vectors of length ``n``.
    """

    __slots__ = ()

    _grade = staticmethod(sum)
    _join = staticmethod(_add_expos)
    _format_key = staticmethod(format_expo)

    def _key(self, expo) -> Expo:
        expo = tuple(expo)
        if len(expo) != self.n or not all(
            isinstance(e, int) and not isinstance(e, bool) and e >= 0 for e in expo
        ):
            raise ValueError("bad exponent vector %r for n=%d" % (expo, self.n))
        return expo

    def _one_key(self) -> Expo:
        return (0,) * self.n

    @classmethod
    def variable(cls, n: int, trunc: int, i: int) -> "CommSeries":
        expo = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, trunc, {expo: Fraction(1)})

    # the benchmark's tracer patches these names on this class
    __init__, __mul__, __rmul__ = Series.__init__, Series.__mul__, Series.__rmul__


def inverse_unit(f: CommSeries) -> CommSeries:
    """Inverse of a series with constant term 1: ``Series.inverse``."""
    return f.inverse()


def log_unit(f: CommSeries) -> CommSeries:
    """log of a series with constant term 1."""
    return (f - f._unit()).log1p()


def exp_positive(u: CommSeries) -> CommSeries:
    """exp of a series with zero constant term, grade by grade.

    With the grading derivation D x^e = |e| x^e, f = exp(u) solves
    D f = f D u, so f_0 = 1 and

        |e| f_e = sum over e1 + e2 = e, |e1| >= 1, of |e1| u_e1 f_e2,

    where every f_e2 has a lower grade than e.  This holds only because
    the variables commute.  In integers, with u = U / s, F_e = f_e k! s^k is
    the sum of (k-1)!/(k-g)! s^(g-1) g U_e1 F_e2, g = |e1|; divided at the end.
    """
    if u.constant_term != 0:
        raise ValueError("exp_positive needs zero constant term")
    s, terms = u._operand()
    du = [[(e1, g, g * v) for e1, g, v in terms if g == k] for k in range(u.trunc + 1)]
    levels = [(1, [((0,) * u.n, 0, 1)])]  # (k! s^k, F_e for |e| = k)
    for k in range(1, u.trunc + 1):
        raw, scale = u._dot([((s, du[g]), levels[k - g]) for g in range(1, k + 1)], k)
        levels.append((k * scale, [(e, k, v) for e, v in raw.items() if v]))
    top = levels[-1][0]
    out = {e: v * (top // scale) for scale, level in levels for e, _, v in level}
    return u._same(out, top, u.trunc)


def unit_power(f: CommSeries, e) -> CommSeries:
    """f**e for any exact rational exponent, f a unit with constant term 1.

    Computed as exp(e * log f); for integer e this agrees with repeated
    multiplication or inversion.
    """
    e = Fraction(e)
    return exp_positive(log_unit(f).scale(e))


class CommMatrix:
    """Square matrix of commutative series sharing one n and truncation."""

    __slots__ = ("n", "trunc", "rows")

    def __init__(self, rows: Sequence[Sequence[CommSeries]]):
        rows = tuple(tuple(row) for row in rows)
        size = len(rows)
        for row in rows:
            if len(row) != size:
                raise ValueError("matrix must be square")
        if size:
            n = rows[0][0].n
            trunc = rows[0][0].trunc
            for row in rows:
                for entry in row:
                    if entry.n != n or entry.trunc != trunc:
                        raise ValueError("entries disagree on n or truncation")
        self.rows = rows
        self.n = rows[0][0].n if size else 0
        self.trunc = rows[0][0].trunc if size else 0

    @classmethod
    def identity(cls, size: int, n: int, trunc: int) -> "CommMatrix":
        one = CommSeries.one(n, trunc)
        zero = CommSeries.zero(n, trunc)
        return cls(
            [[one if r == c else zero for c in range(size)] for r in range(size)]
        )

    @property
    def size(self) -> int:
        return len(self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommMatrix):
            return NotImplemented
        return self.size == other.size and all(
            a == b for ra, rb in zip(self.rows, other.rows) for a, b in zip(ra, rb)
        )

    def __sub__(self, other: "CommMatrix") -> "CommMatrix":
        return CommMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
        )

    def __mul__(self, other: "CommMatrix") -> "CommMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        if not self.size:
            return CommMatrix([])
        zero = CommSeries.zero(self.n, min(self.trunc, other.trunc))
        zero._check_compatible(other.rows[0][0])
        left = [[a._operand() for a in row] for row in self.rows]
        cols = [[b._operand() for b in col] for col in zip(*other.rows)]
        return CommMatrix([[zero._same(*zero._dot(list(zip(row, col)), zero.trunc), zero.trunc)
                            for col in cols] for row in left])

    def trace(self) -> CommSeries:
        out = CommSeries.zero(self.n, self.trunc)
        for i, row in enumerate(self.rows):
            out = out + row[i]
        return out


def _require_unit_form(M: CommMatrix) -> None:
    """ValueError unless M is I plus positive-degree entries."""
    if any(entry.constant_term != int(r == c)
           for r, row in enumerate(M.rows) for c, entry in enumerate(row)):
        raise ValueError("matrix is not congruent to I modulo positive degree")


def det_unit(M: CommMatrix) -> CommSeries:
    """det(M), the product of the pivots of ``lu_decompose``."""
    det = CommSeries.one(M.n, M.trunc)
    for r, row in enumerate(lu_decompose(M)[1].rows):
        det = det * row[r]
    return det


def trlog(M: CommMatrix) -> CommSeries:
    """Trace of log(M) = sum over k of (-1)^(k+1) tr((M-I)^k) / k."""
    _require_unit_form(M)
    size = M.size
    if size == 0:
        return CommSeries.zero(M.n, M.trunc)
    u = M - CommMatrix.identity(size, M.n, M.trunc)
    out = CommSeries.zero(M.n, M.trunc)
    power = u
    for k in range(1, M.trunc + 1):
        out = out + power.trace().scale(Fraction((-1) ** (k + 1), k))
        if k < M.trunc:
            power = power * u
    return out


def lu_decompose(M: CommMatrix) -> tuple[CommMatrix, CommMatrix]:
    """Split M = L U with L unit lower triangular, U upper triangular.

    Gaussian elimination without row exchanges: every pivot is a unit,
    since the entries below it have positive grade.  Column c records each
    factor U[r][c] * pivot^-1 in L and subtracts factor times the pivot row
    from row r right of the pivot.  The pivots end up on the diagonal of U,
    so their product is det(M).
    """
    _require_unit_form(M)
    size = M.size
    zero = CommSeries.zero(M.n, M.trunc)
    one = CommSeries.one(M.n, M.trunc)
    low = [[one if r == c else zero for c in range(size)] for r in range(size)]
    up = [list(row) for row in M.rows]
    for c in range(size):
        inv = inverse_unit(up[c][c])
        for r in range(c + 1, size):
            factor = low[r][c] = up[r][c] * inv
            up[r][c] = zero
            up[r][c + 1:] = [a - factor * b for a, b in zip(up[r][c + 1:], up[c][c + 1:])]
    return CommMatrix(low), CommMatrix(up)
