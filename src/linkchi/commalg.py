"""Truncated commutative power series over Q and matrices of them.

This is the abelian shadow of the noncommutative kernel: exponent-vector
monomials with exact rational coefficients, plus the matrix machinery
(determinant, trace-of-log, LU factorization) that the commutative-lemma
checks exercise and the torsion oracle uses.  All entries live in the
local ring where any element with constant term 1 is invertible, so
Gaussian elimination needs no pivoting.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Expo = tuple[int, ...]


def _format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def format_expo(expo: Expo) -> str:
    if not any(expo):
        return "1"
    return ".".join("x%d^%d" % (i + 1, e) for i, e in enumerate(expo) if e)


def expo_sort_key(expo: Expo) -> tuple[int, Expo]:
    return (sum(expo), expo)


class CommSeries:
    """Series in ``n`` commuting variables truncated at total degree ``trunc``."""

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n: int, trunc: int, terms: Mapping[Expo, Fraction] | None = None):
        if n < 0 or trunc < 0:
            raise ValueError("variable count and truncation must be >= 0")
        self.n = n
        self.trunc = trunc
        clean: dict[Expo, Fraction] = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError("bad exponent vector %r for n=%d" % (expo, n))
            if sum(expo) > trunc:
                continue
            coeff = Fraction(coeff)
            if coeff:
                prev = clean.get(expo)
                coeff = coeff if prev is None else prev + coeff
                if coeff:
                    clean[expo] = coeff
                elif prev is not None:
                    del clean[expo]
        self.terms = clean

    @classmethod
    def zero(cls, n: int, trunc: int) -> "CommSeries":
        return cls(n, trunc)

    @classmethod
    def one(cls, n: int, trunc: int) -> "CommSeries":
        return cls(n, trunc, {(0,) * n: Fraction(1)})

    @classmethod
    def variable(cls, n: int, trunc: int, i: int) -> "CommSeries":
        expo = tuple(1 if j == i - 1 else 0 for j in range(n))
        return cls(n, trunc, {expo: Fraction(1)})

    def coefficient(self, expo: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def truncated(self, trunc: int) -> "CommSeries":
        return CommSeries(self.n, min(self.trunc, trunc), self.terms)

    def sorted_terms(self) -> list[tuple[Expo, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: expo_sort_key(kv[0]))

    def to_lines(self) -> list[str]:
        return [
            "%s * %s" % (_format_coeff(c), format_expo(e))
            for e, c in self.sorted_terms()
        ]

    def to_triples(self) -> list[tuple[int, int, list[int]]]:
        return [
            (c.numerator, c.denominator, list(e)) for e, c in self.sorted_terms()
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self.to_lines())

    def __repr__(self) -> str:
        return "CommSeries(n=%d, trunc=%d, <%s>)" % (self.n, self.trunc, self)

    def _check_compatible(self, other: "CommSeries") -> None:
        if self.n != other.n:
            raise ValueError(
                "variable-count mismatch: %d vs %d" % (self.n, other.n)
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CommSeries):
            return NotImplemented
        if self.n != other.n:
            return False
        t = min(self.trunc, other.trunc)
        a = {e: c for e, c in self.terms.items() if sum(e) <= t}
        b = {e: c for e, c in other.terms.items() if sum(e) <= t}
        return a == b

    def __add__(self, other: "CommSeries") -> "CommSeries":
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return CommSeries(self.n, min(self.trunc, other.trunc), terms)

    def __sub__(self, other: "CommSeries") -> "CommSeries":
        return self + (-other)

    def __neg__(self) -> "CommSeries":
        return CommSeries(self.n, self.trunc, {e: -c for e, c in self.terms.items()})

    def scale(self, scalar) -> "CommSeries":
        scalar = Fraction(scalar)
        return CommSeries(
            self.n, self.trunc, {e: c * scalar for e, c in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, CommSeries):
            return self.scale(other)
        self._check_compatible(other)
        trunc = min(self.trunc, other.trunc)
        terms: dict[Expo, Fraction] = {}
        for ea, ca in self.terms.items():
            da = sum(ea)
            if da > trunc:
                continue
            for eb, cb in other.terms.items():
                if da + sum(eb) > trunc:
                    continue
                e = tuple(a + b for a, b in zip(ea, eb))
                terms[e] = terms.get(e, Fraction(0)) + ca * cb
        return CommSeries(self.n, trunc, terms)

    def __rmul__(self, scalar) -> "CommSeries":
        return self.scale(scalar)

    def __pow__(self, k: int) -> "CommSeries":
        if k < 0:
            raise ValueError("negative powers go through inverse_unit")
        out = CommSeries.one(self.n, self.trunc)
        for _ in range(k):
            out = out * self
        return out


def inverse_unit(f: CommSeries) -> CommSeries:
    """Inverse of a series with constant term 1 (geometric series)."""
    if f.constant_term != 1:
        raise ValueError("inverse_unit needs constant term 1")
    u = CommSeries.one(f.n, f.trunc) - f
    out = CommSeries.one(f.n, f.trunc)
    power = CommSeries.one(f.n, f.trunc)
    for _ in range(f.trunc):
        power = power * u
        if power.is_zero():
            break
        out = out + power
    return out


def log_unit(f: CommSeries) -> CommSeries:
    """log of a series with constant term 1."""
    if f.constant_term != 1:
        raise ValueError("log_unit needs constant term 1")
    u = f - CommSeries.one(f.n, f.trunc)
    out = CommSeries.zero(f.n, f.trunc)
    power = CommSeries.one(f.n, f.trunc)
    for k in range(1, f.trunc + 1):
        power = power * u
        if power.is_zero():
            break
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def exp_positive(u: CommSeries) -> CommSeries:
    """exp of a series with zero constant term."""
    if u.constant_term != 0:
        raise ValueError("exp_positive needs zero constant term")
    out = CommSeries.one(u.n, u.trunc)
    power = CommSeries.one(u.n, u.trunc)
    fact = 1
    for k in range(1, u.trunc + 1):
        power = power * u
        fact *= k
        if power.is_zero():
            break
        out = out + power.scale(Fraction(1, fact))
    return out


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

    def __add__(self, other: "CommMatrix") -> "CommMatrix":
        return CommMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ]
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
        cols = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out_row = []
            for col in cols:
                acc = CommSeries.zero(self.n, self.trunc)
                for a, b in zip(row, col):
                    acc = acc + a * b
                out_row.append(acc)
            out.append(out_row)
        return CommMatrix(out)

    def trace(self) -> CommSeries:
        acc = CommSeries.zero(self.n, self.trunc)
        for i in range(self.size):
            acc = acc + self.rows[i][i]
        return acc

    def is_unit_form(self) -> bool:
        """True when the matrix is I plus positive-degree entries."""
        for r, row in enumerate(self.rows):
            for c, entry in enumerate(row):
                want = 1 if r == c else 0
                if entry.constant_term != want:
                    return False
        return True


def _require_unit_form(M: CommMatrix) -> None:
    if not M.is_unit_form():
        raise ValueError("matrix is not congruent to I modulo positive degree")


def det_unit(M: CommMatrix) -> CommSeries:
    """Determinant by Gaussian elimination; every pivot is a unit."""
    _require_unit_form(M)
    size = M.size
    work = [list(row) for row in M.rows]
    det = CommSeries.one(M.n, M.trunc)
    for c in range(size):
        pivot = work[c][c]
        if pivot.constant_term != 1:
            raise ValueError("pivot lost constant term 1 during elimination")
        det = det * pivot
        inv = inverse_unit(pivot)
        for r in range(c + 1, size):
            factor = work[r][c] * inv
            if factor.is_zero():
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[c])]
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

    Recursive pivot construction: peel off the (1,1) entry u, factor the
    Schur complement corner minus u^-1 * column * row, and reassemble.  The
    pivots end up on the diagonal of U, so their product is det(M).
    """
    _require_unit_form(M)
    n, trunc = M.n, M.trunc
    zero = CommSeries.zero(n, trunc)
    one = CommSeries.one(n, trunc)

    def rec(rows):
        size = len(rows)
        if size == 0:
            return [], []
        u = rows[0][0]
        beta = rows[0][1:]
        alpha = [rows[r][0] for r in range(1, size)]
        uinv = inverse_unit(u)
        corner = [
            [rows[r][c] - alpha[r - 1] * uinv * beta[c - 1] for c in range(1, size)]
            for r in range(1, size)
        ]
        lt, ut = rec(corner)
        lrows = [[one] + [zero] * (size - 1)]
        for r in range(1, size):
            lrows.append([alpha[r - 1] * uinv] + lt[r - 1])
        urows = [[u] + list(beta)]
        for r in range(1, size):
            urows.append([zero] + ut[r - 1])
        return lrows, urows

    lrows, urows = rec([list(row) for row in M.rows])
    return CommMatrix(lrows), CommMatrix(urows)
