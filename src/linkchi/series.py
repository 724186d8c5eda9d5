"""The truncated-series core shared by every series type of the package.

A series is a finite map from keys to nonzero rationals, cut off at a
grade ``trunc``.  The types differ only in what a key is, how it is graded
and how two keys multiply:

- ``ncalg.NCSeries``: words, graded by length, multiplied by concatenation;
- ``ncalg.CyclicSeries``: words up to rotation, graded by length, no product;
- ``commalg.CommSeries``: exponent vectors, graded by their sum, added;
- ``genfun.BiSeries``: words over ``xz``, graded by x-count, concatenated.

``Series`` holds everything else: construction and cleaning, equality at
the common truncation, ring arithmetic, formatting, and the power series
``sum_k a_k u^k`` behind the geometric inverse and log.  Truncation is
part of the value: binary operations truncate to the smaller of the two
operands.  Arithmetic is exact: products and power series run in integers
over one common denominator (``_dot``), one ``Fraction`` per result value.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Mapping, Sequence


@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Lift CPython's int/str digit limit, where there is one, inside the block."""
    old = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if old:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old:
            sys.set_int_max_str_digits(old)


def format_coeff(c: Fraction) -> str:
    try:
        if c.denominator == 1:
            return str(c.numerator)
        return "%d/%d" % (c.numerator, c.denominator)
    except ValueError:  # more digits than the int/str limit
        with unlimited_int_digits():
            return format_coeff(c)


def scaled(terms: Mapping) -> tuple[int, dict]:
    """``(scale, {key: c * scale})`` for the common denominator ``scale`` of ``terms``."""
    scale = math.lcm(*(c.denominator for c in terms.values()))
    return scale, {k: c.numerator * (scale // c.denominator) for k, c in terms.items()}


class Series:
    """A truncated series in ``n`` variables; subclasses fix the key type.

    A subclass sets ``_grade`` (the degree of a key), ``_join`` (the key of
    a product, ``None`` for a type without one; grades add under it),
    ``_key`` (check, and normalize, a key from outside), ``_format_key``
    and ``_one_key``.  Only the public constructor
    validates; results of operations on clean series are built by ``_same``.
    Instances are immutable by convention.
    """

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n: int, trunc: int, terms: Mapping | None = None):
        if n < 0:
            raise ValueError("variable count must be >= 0")
        if trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        self.n = n
        self.trunc = trunc
        clean: dict = {}
        for key, coeff in (terms or {}).items():
            key = self._key(key)
            if self._grade(key) > trunc:
                continue
            coeff = Fraction(coeff)
            if coeff:
                coeff += clean.get(key, 0)
                if coeff:
                    clean[key] = coeff
                else:
                    del clean[key]
        self.terms = clean

    def _same(self, terms: Mapping, trunc: int) -> "Series":
        """A series of this type from keys already checked: drop zeros and keys above ``trunc``."""
        out = object.__new__(type(self))
        out.n = self.n
        out.trunc = trunc
        grade = self._grade
        out.terms = {k: c for k, c in terms.items() if c and grade(k) <= trunc}
        return out

    def _unscaled(self, raw: Mapping, scale: int, trunc: int) -> "Series":
        """``_same`` of the integers ``raw`` over ``scale``, one Fraction per distinct value."""
        fractions = {v: Fraction(v, scale) for v in set(raw.values()) if v}
        return self._same({k: fractions[v] for k, v in raw.items() if v}, trunc)

    _sort_grade = None  # terms print by this grade if set, else by _grade; then by key

    # -- constructors and inspection ---------------------------------------

    @classmethod
    def zero(cls, *shape) -> "Series":
        return cls(*shape)

    @classmethod
    def one(cls, *shape) -> "Series":
        return cls(*shape)._unit()

    def _unit(self) -> "Series":
        return self._same({self._one_key(): Fraction(1)}, self.trunc)

    def coefficient(self, key) -> Fraction:
        return self.terms.get(self._key(key), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get(self._one_key(), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def truncated(self, trunc: int) -> "Series":
        if trunc >= self.trunc:  # no series keeps a key above its trunc
            return self
        return self._same(self.terms, trunc)

    def sorted_terms(self) -> list:
        keys = sorted(self.terms)
        keys.sort(key=self._sort_grade or self._grade)  # stable
        return [(k, self.terms[k]) for k in keys]

    # -- text and structured forms -------------------------------------------

    def to_lines(self) -> list[str]:
        coeffs: dict[tuple[int, int], str] = {}  # one string per distinct value
        format_key = self._format_key
        lines = []
        for k, c in self.sorted_terms():
            nd = (c.numerator, c.denominator)
            if nd not in coeffs:
                coeffs[nd] = format_coeff(c) + " * "
            lines.append(coeffs[nd] + format_key(k))
        return lines

    def to_triples(self) -> list[tuple[int, int, list]]:
        return [(c.numerator, c.denominator, list(k)) for k, c in self.sorted_terms()]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self.to_lines())

    def __repr__(self) -> str:
        return "%s(n=%d, trunc=%d, <%s>)" % (type(self).__name__, self.n, self.trunc, self)

    # -- ring structure --------------------------------------------------------

    def _check_compatible(self, other: "Series") -> None:
        if type(other) is not type(self):
            raise TypeError(
                "cannot combine %s with %s" % (type(self).__name__, type(other).__name__)
            )
        if self.n != other.n:
            raise ValueError(
                "variable-count mismatch: %d vs %d" % (self.n, other.n)
            )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n:
            return False
        t = min(self.trunc, other.trunc)
        return self.truncated(t).terms == other.truncated(t).terms

    def __add__(self, other: "Series") -> "Series":
        self._check_compatible(other)
        terms = dict(self.terms)
        for k, c in other.terms.items():
            terms[k] = terms.get(k, 0) + c
        return self._same(terms, min(self.trunc, other.trunc))

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __neg__(self) -> "Series":
        return self._same({k: -c for k, c in self.terms.items()}, self.trunc)

    def scale(self, scalar) -> "Series":
        scalar = Fraction(scalar)
        return self._same({k: c * scalar for k, c in self.terms.items()}, self.trunc)

    def _check_product(self, other: "Series") -> None:
        self._check_compatible(other)
        if self._join is None:
            raise TypeError("%s has no product" % type(self).__name__)

    def _operand(self) -> tuple[int, list]:
        """``(scale, [(key, grade, c * scale)])`` over the common denominator of the terms."""
        scale, raw = scaled(self.terms)
        grade = self._grade
        return scale, [(k, grade(k), v) for k, v in raw.items()]

    def _dot(self, pairs, trunc: int) -> tuple[dict, int]:
        """``({key: int}, scale)`` of ``sum_j a_j * b_j`` up to ``trunc``, for
        ``_operand`` pairs; ``scale`` is the lcm of the pairs' scale products."""
        scale = math.lcm(*(sa * sb for (sa, _), (sb, _) in pairs))
        join = self._join
        out: dict = {}
        get = out.get
        for (sa, left), (sb, right) in pairs:
            weight = scale // (sa * sb)
            for ka, ga, va in left:
                budget = trunc - ga
                va *= weight
                for kb, gb, vb in right:
                    if gb <= budget:
                        k = join(ka, kb)
                        out[k] = get(k, 0) + va * vb
        return out, scale

    def __mul__(self, other):
        if not isinstance(other, Series):
            return self.scale(other)
        self._check_product(other)
        trunc = min(self.trunc, other.trunc)
        return self._unscaled(*self._dot([(self._operand(), other._operand())], trunc), trunc)

    def __rmul__(self, scalar) -> "Series":
        return self.scale(scalar)

    def __pow__(self, k: int) -> "Series":
        self._check_product(self)
        if k < 0:
            raise ValueError("negative powers need a series inverse")
        out = self._unit()
        for _ in range(k):
            out = out * self
        return out

    # -- power series in a series of positive grade ----------------------------

    def power_series(self, coeffs: Sequence) -> "Series":
        """sum_k coeffs[k] * u^k for u = self, every term of positive grade.

        ``coeffs`` needs entries 0..trunc; u^k vanishes beyond ``trunc``.
        With u = U / s, the sum up to the last nonzero U^K is taken in
        integers over d s^K, d the common denominator of the coefficients.
        """
        self._check_product(self)
        grade = self._grade
        if any(grade(k) == 0 for k in self.terms):
            raise ValueError("power series need a series of positive grade")
        u = self._operand()
        powers = [(1, [(self._one_key(), 0, 1)])]  # (s^k, U^k)
        while len(powers) <= self.trunc:
            raw, scale = self._dot([(powers[-1], u)], self.trunc)
            power = [(k, grade(k), v) for k, v in raw.items() if v]
            if not power:
                break
            powers.append((scale, power))
        top = powers[-1][0]
        coeffs = [Fraction(a) for a in coeffs[: len(powers)]]
        d = math.lcm(*(a.denominator for a in coeffs))
        out: dict = {}
        for a, (scale, power) in zip(coeffs, powers):
            weight = a.numerator * (d // a.denominator) * (top // scale)
            for k, _, v in power:
                out[k] = out.get(k, 0) + weight * v
        return self._unscaled(out, d * top, self.trunc)

    def geometric(self) -> "Series":
        """1 + u + u^2 + ..., the inverse of 1 - u, for u = self of positive grade."""
        return self.power_series([1] * (self.trunc + 1))

    def log1p(self) -> "Series":
        """log(1 + u) = u - u^2/2 + u^3/3 - ... for u = self of positive grade."""
        return self.power_series(
            [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, self.trunc + 1)]
        )
