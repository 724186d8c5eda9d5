"""Truncated noncommutative power series over Q.

The ring is Q<<x1,...,xn>> cut off at a fixed total degree.  A series is a
finite map from words (tuples of 1-based variable indices) to nonzero
rationals.  Everything here is exact: coefficients are ``fractions.Fraction``
and no operation ever rounds.

Truncation is part of the value, not a global setting.  Binary operations
truncate to the minimum of the two operands, and two series compare equal
when their terms agree up to that common truncation.

Besides ring arithmetic the module provides the three standard involutions
(word reversal ``tilde``, the substitution ``hat`` sending each variable to
-x(1+x)^-1, and their composite ``bar``), the cyclic quotient in which words
matter only up to rotation, and the abelianization map into commutative
series.  The involutions are the only ones in the package: they act on the
generating series ``genfun.BiSeries`` as well, where ``hat`` substitutes
only the letter ``x`` (grade 1) and fixes ``z`` (grade 0).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import groupby

from . import commalg
from .series import Series

Word = tuple[int, ...]


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return ".".join("x%d" % i for i in word)


class NCSeries(Series):
    """A truncated series in ``n`` noncommuting variables.

    Keys are words; words longer than ``trunc`` are silently dropped on
    construction, so the constructor is the truncation map.
    """

    __slots__ = ()

    _grade = staticmethod(len)
    _join = staticmethod(operator.add)
    _format_key = staticmethod(format_word)

    def _key(self, word) -> Word:
        word = tuple(word)
        for letter in word:
            if not 1 <= letter <= self.n:
                raise ValueError(
                    "letter x%d outside variable range 1..%d" % (letter, self.n)
                )
        return word

    def _one_key(self) -> Word:
        return ()

    @classmethod
    def variable(cls, n: int, trunc: int, i: int) -> "NCSeries":
        return cls(n, trunc, {(i,): Fraction(1)})

    # the benchmark's tracer patches these names on this class
    __init__ = Series.__init__
    __add__, __sub__, __neg__, scale = Series.__add__, Series.__sub__, Series.__neg__, Series.scale
    __mul__, __rmul__, __pow__ = Series.__mul__, Series.__rmul__, Series.__pow__
    to_lines, to_triples = Series.to_lines, Series.to_triples


def log1p(u: NCSeries) -> NCSeries:
    """log(1 + u) for a series u with zero constant term.

    >>> x = NCSeries.variable(1, 3, 1)
    >>> print(log1p(x))
    1 * x1 + -1/2 * x1.x1 + 1/3 * x1.x1.x1
    """
    if u.constant_term != 0:
        raise ValueError("log1p needs a zero constant term")
    return u.log1p()


def inverse_special(f: NCSeries) -> NCSeries:
    """Inverse of a special series (constant term exactly 1).

    >>> x = NCSeries.variable(1, 3, 1)
    >>> print(inverse_special(NCSeries.one(1, 3) - x))
    1 * 1 + 1 * x1 + 1 * x1.x1 + 1 * x1.x1.x1
    """
    if f.constant_term != 1:
        raise ValueError("inverse_special needs constant term 1")
    return (NCSeries.one(f.n, f.trunc) - f).geometric()


def substitute(f: NCSeries, images: list[NCSeries]) -> NCSeries:
    """Ring homomorphism determined by x_i -> images[i-1].

    Every image must have zero constant term, so that substitution cannot
    push low-degree information past the truncation.
    """
    if len(images) != f.n:
        raise ValueError("need exactly %d images" % f.n)
    trunc = f.trunc
    target_n = images[0].n if images else 0
    for img in images:
        if img.constant_term != 0:
            raise ValueError("substitution image has nonzero constant term")
        if img.n != target_n:
            raise ValueError("variable-count mismatch among images")
        trunc = min(trunc, img.trunc)
    out: dict[Word, Fraction] = {}
    for word, coeff in f.terms.items():
        part = NCSeries.one(target_n, trunc)
        for letter in word:
            part = part * images[letter - 1]
            if part.is_zero():
                break
        for w, c in part.terms.items():
            out[w] = out.get(w, 0) + coeff * c
    return NCSeries.zero(target_n, trunc)._same(out, trunc)


def bar_variable(n: int, trunc: int, i: int) -> NCSeries:
    """Expansion of -x_i (1 + x_i)^-1, the image of x_i under bar/hat."""
    terms = {(i,) * j: Fraction((-1) ** j) for j in range(1, trunc + 1)}
    return NCSeries(n, trunc, terms)


def tilde(f: Series) -> Series:
    """Anti-automorphism fixing the variables: reverse every word."""
    return f._same({w[::-1]: c for w, c in f.terms.items()}, f.trunc)


def hat(f: Series) -> Series:
    """Automorphism substituting x -> -x (1 + x)^-1 for each letter x of grade 1.

    Letters of grade 0 (``z`` in a ``genfun.BiSeries``) are fixed; every
    letter of an ``NCSeries`` has grade 1.  Each run x^r of a word maps to
    (sum_j (-1)^j x^j)^r, which is sum_{s >= r} (-1)^s C(s-1, r-1) x^s.
    Neighbouring runs have different letters, so the images of one word are
    distinct words.

    >>> print(hat(NCSeries(2, 3, {(1, 1, 2): 1})))
    -1 * x1.x1.x2
    """
    trunc, grade = f.trunc, f._grade
    # integer arithmetic: coefficients times their common denominator
    scale = math.lcm(*(c.denominator for c in f.terms.values()))
    out: dict = {}
    for word, coeff in f.terms.items():
        # room: grade the runs still to come need at least
        room = grade(word)
        images = {word[:0]: coeff.numerator * (scale // coeff.denominator)}
        start = 0
        for _, group in groupby(word):
            r = sum(1 for _ in group)
            run = word[start : start + r]
            start += r
            if not grade(run):
                images = {w + run: c for w, c in images.items()}
                continue
            room -= r
            letter = run[:1]
            images = {
                w + letter * s: c * (-1) ** s * math.comb(s - 1, r - 1)
                for w, c in images.items()
                for s in range(r, trunc - room - grade(w) + 1)
            }
        for w, c in images.items():
            out[w] = out.get(w, 0) + c
    return f._same({w: Fraction(v, scale) for w, v in out.items()}, trunc)


def bar(f: Series) -> Series:
    """Anti-automorphism x -> -x (1 + x)^-1 with word reversal: tilde(hat(f))."""
    return tilde(hat(f))


def involution(f: Series, kind: str) -> Series:
    """``tilde``, ``hat`` or ``bar`` of an ``NCSeries`` or a ``genfun.BiSeries``."""
    # names looked up per call, so the benchmark tracer's wrappers see it
    ops = {"tilde": tilde, "hat": hat, "bar": bar}
    if kind not in ops:
        raise ValueError("unknown involution %r" % kind)
    return ops[kind](f)


def minimal_rotation(word: Word) -> Word:
    """Lexicographically least cyclic rotation of a word (Booth's algorithm).

    >>> minimal_rotation((2, 1, 1))
    (1, 1, 2)
    >>> minimal_rotation(())
    ()
    """
    if not word:
        return word
    doubled = word + word
    k = 0
    fail = [-1] * (2 * len(word))
    for j in range(1, 2 * len(word)):
        i = fail[j - k - 1]
        while i != -1 and doubled[j] != doubled[k + i + 1]:
            if doubled[j] < doubled[k + i + 1]:
                k = j - i - 1
            i = fail[i]
        if doubled[j] != doubled[k + i + 1]:
            if doubled[j] < doubled[k + i + 1]:
                k = j
            fail[j - k] = -1
        else:
            fail[j - k] = i + 1
    return doubled[k : k + len(word)]


class CyclicSeries(Series):
    """A series in the quotient where words are read up to cyclic rotation.

    Stored words are in minimal-rotation normal form.  Two series are equal
    in the quotient iff their normal forms agree at the common truncation.
    The quotient is a vector space, not a ring: it has no product.
    """

    __slots__ = ()

    _grade = staticmethod(len)
    _format_key = staticmethod(format_word)
    _one_key = NCSeries._one_key

    def _key(self, word) -> Word:
        return minimal_rotation(NCSeries._key(self, word))

    @staticmethod
    def _join(a: Word, b: Word) -> Word:
        raise TypeError("words up to rotation have no product")

    # the benchmark's tracer patches this name on this class
    __eq__ = Series.__eq__


def cyclic_reduce(f: NCSeries) -> CyclicSeries:
    """Image of a series in the cyclic quotient."""
    return CyclicSeries(f.n, f.trunc, f.terms)


def abelianize(f: NCSeries) -> "commalg.CommSeries":
    """Send each word to its exponent vector, summing coefficients."""
    terms: dict[tuple[int, ...], Fraction] = {}
    for word, coeff in f.terms.items():
        expo = [0] * f.n
        for letter in word:
            expo[letter - 1] += 1
        key = tuple(expo)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return commalg.CommSeries(f.n, f.trunc, terms)


def shift_variables(f: NCSeries, offset: int, n_total: int) -> NCSeries:
    """Reindex x_i -> x_{i+offset} inside a ring with ``n_total`` variables."""
    if f.n + offset > n_total:
        raise ValueError("shifted letters exceed the target variable count")
    return NCSeries(
        n_total,
        f.trunc,
        {tuple(i + offset for i in w): c for w, c in f.terms.items()},
    )
