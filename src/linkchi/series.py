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
``sum_k a_k u^k`` behind the inverse of a unit and the log.  Truncation is
part of the value: binary operations truncate to the smaller of the two
operands.  Arithmetic is exact and stays in integers: a series holds
integer numerators over one denominator in lowest terms, each operation
works on the numerators and reduces its result by one gcd, and
``Fraction`` appears only in the ``terms`` view and in ``coefficient``.
Coefficients from outside must be ``int`` or ``Fraction``.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterator, Mapping, Sequence
from contextlib import contextmanager
from fractions import Fraction
from numbers import Rational


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


def format_coeff(num: int, den: int) -> str:
    """``num / den`` in lowest terms, or the integer it is."""
    g = math.gcd(num, den)
    try:
        if den == g:
            return str(num // g)
        return "%d/%d" % (num // g, den // g)
    except ValueError:  # more digits than the int/str limit
        with unlimited_int_digits():
            return format_coeff(num, den)


def _rational(c) -> Rational:
    """``c`` if it is an exact rational (``int`` or ``Fraction``), else TypeError."""
    if not isinstance(c, Rational):
        raise TypeError("coefficients are int or Fraction, not %s" % type(c).__name__)
    return c


def _lowest_terms(num: dict, den: int) -> tuple[dict, int]:
    """Integers ``num`` over ``den > 0`` without zero numerators and divided by
    their gcd with ``den``: the one form of that value."""
    if 0 in num.values():
        num = {k: v for k, v in num.items() if v}
    g = math.gcd(den, *num.values())
    if g > 1:
        den //= g
        num = {k: v // g for k, v in num.items()}
    return num, den


class Series:
    """A truncated series in ``n`` variables; subclasses fix the key type.

    The value is ``{key: num[key] / den}``: integer numerators over one
    denominator, in lowest terms (``den > 0``, no zero numerator, and
    ``gcd(den, *num.values()) == 1``), so equal series have equal
    ``(num, den)``.  ``terms`` is a ``Fraction`` view built on each access.

    A subclass sets ``_grade`` (the degree of a key), ``_join`` (the key of
    a product, ``None`` for a type without one; grades add under it),
    ``_key`` (check, and normalize, a key from outside), ``_format_key``
    and ``_one_key``.  Only the public constructor
    validates; results of operations on clean series are built by ``_same``.
    Instances are immutable by convention.
    """

    __slots__ = ("n", "trunc", "num", "den")

    def __init__(self, n: int, trunc: int, terms: Mapping | None = None):
        if n < 0:
            raise ValueError("variable count must be >= 0")
        if trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        self.n = n
        self.trunc = trunc
        kept = []
        for key, coeff in (terms or {}).items():
            key = self._key(key)
            if _rational(coeff) and self._grade(key) <= trunc:
                kept.append((key, coeff))
        den = math.lcm(*(c.denominator for _, c in kept))
        num: dict = {}
        for key, c in kept:  # keys that normalize alike add up
            num[key] = num.get(key, 0) + c.numerator * (den // c.denominator)
        self.num, self.den = _lowest_terms(num, den)

    def _same(self, num: dict, den: int, trunc: int) -> "Series":
        """A series of this type from integers ``num`` over ``den > 0``, reduced
        to lowest terms; every key is checked and of grade at most ``trunc``."""
        out = object.__new__(type(self))
        out.n = self.n
        out.trunc = trunc
        out.num, out.den = _lowest_terms(num, den)
        return out

    _sort_grade = None  # terms print by this grade if set, else by _grade; then by key

    # -- constructors and inspection ---------------------------------------

    @classmethod
    def zero(cls, *shape) -> "Series":
        return cls(*shape)

    @classmethod
    def one(cls, *shape) -> "Series":
        return cls(*shape)._unit()

    def _unit(self) -> "Series":
        return self._same({self._one_key(): 1}, 1, self.trunc)

    @property
    def terms(self) -> dict:
        """``{key: Fraction}``, built on each access, one Fraction per distinct value."""
        fractions = {v: Fraction(v, self.den) for v in set(self.num.values())}
        return {k: fractions[v] for k, v in self.num.items()}

    def coefficient(self, key) -> Fraction:
        return Fraction(self.num.get(self._key(key), 0), self.den)

    @property
    def constant_term(self) -> Fraction:
        return Fraction(self.num.get(self._one_key(), 0), self.den)

    def is_zero(self) -> bool:
        return not self.num

    def truncated(self, trunc: int) -> "Series":
        if trunc >= self.trunc:  # no series keeps a key above its trunc
            return self
        grade = self._grade
        return self._same({k: v for k, v in self.num.items() if grade(k) <= trunc}, self.den, trunc)

    def _sorted_keys(self) -> list:
        keys = sorted(self.num)
        keys.sort(key=self._sort_grade or self._grade)  # stable
        return keys

    # -- text and structured forms -------------------------------------------

    def to_lines(self) -> list[str]:
        num, den = self.num, self.den
        coeffs = {v: format_coeff(v, den) + " * " for v in set(num.values())}
        format_key = self._format_key
        return [coeffs[num[k]] + format_key(k) for k in self._sorted_keys()]

    def to_triples(self) -> list[tuple[int, int, list]]:
        num, den = self.num, self.den
        # numerator -> the numerator and denominator of numerator / den, one gcd each
        reduced = {v: (v // g, den // g) for v in set(num.values()) for g in [math.gcd(v, den)]}
        return [(*reduced[num[k]], list(k)) for k in self._sorted_keys()]

    def __str__(self) -> str:
        if not self.num:
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
        a, b = self.truncated(t), other.truncated(t)  # dropping keys can change the gcd
        return a.den == b.den and a.num == b.num

    def _combine(self, other: "Series", sign: int) -> "Series":
        """``self + sign * other`` over the lcm of the two denominators."""
        self._check_compatible(other)
        trunc = min(self.trunc, other.trunc)
        a, b = self.truncated(trunc), other.truncated(trunc)
        den = math.lcm(a.den, b.den)
        wa, wb = den // a.den, sign * (den // b.den)
        num = dict(a.num) if wa == 1 else {k: v * wa for k, v in a.num.items()}
        get = num.get
        for k, v in b.num.items():
            num[k] = get(k, 0) + v * wb
        return self._same(num, den, trunc)

    def __add__(self, other: "Series") -> "Series":
        return self._combine(other, 1)

    def __sub__(self, other: "Series") -> "Series":
        return self._combine(other, -1)

    def __neg__(self) -> "Series":
        return self._same({k: -v for k, v in self.num.items()}, self.den, self.trunc)

    def scale(self, scalar) -> "Series":
        p, q = _rational(scalar).numerator, scalar.denominator
        return self._same({k: v * p for k, v in self.num.items()}, self.den * q, self.trunc)

    def _check_product(self, other: "Series") -> None:
        self._check_compatible(other)
        if self._join is None:
            raise TypeError("%s has no product" % type(self).__name__)

    def _operand(self) -> tuple[int, list]:
        """``(den, [(key, grade, numerator)])``, the form ``_dot`` multiplies."""
        grade = self._grade
        return self.den, [(k, grade(k), v) for k, v in self.num.items()]

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
        return self._same(*self._dot([(self._operand(), other._operand())], trunc), trunc)

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
        if any(grade(k) == 0 for k in self.num):
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
        return self._same(out, d * top, self.trunc)

    def geometric(self) -> "Series":
        """1 + u + u^2 + ..., the inverse of 1 - u, for u = self of positive grade."""
        return self.power_series([1] * (self.trunc + 1))

    def inverse(self) -> "Series":
        """The inverse of a unit, a series whose grade-0 part is 1: exactly then
        1 - self has positive grade, which ``power_series`` checks.

        >>> from linkchi.ncalg import NCSeries
        >>> print((NCSeries.one(1, 3) - NCSeries.variable(1, 3, 1)).inverse())
        1 * 1 + 1 * x1 + 1 * x1.x1 + 1 * x1.x1.x1
        """
        return (self._unit() - self).geometric()

    def log1p(self) -> "Series":
        """log(1 + u) = u - u^2/2 + u^3/3 - ... for u = self of positive grade.

        >>> from linkchi.ncalg import NCSeries
        >>> print(NCSeries.variable(1, 3, 1).log1p())
        1 * x1 + -1/2 * x1.x1 + 1/3 * x1.x1.x1
        """
        return self.power_series(
            [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, self.trunc + 1)]
        )
