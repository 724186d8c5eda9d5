"""Truncated noncommutative power series over Q.

The ring is Q<<x1,...,xn>> cut off at a fixed total degree.  A series is a
finite map from words (tuples of 1-based variable indices) to nonzero
rationals.  Everything here is exact: a series holds integer numerators
over one denominator (``series.Series``), its ``terms`` read as
``fractions.Fraction``, and no operation ever rounds.

Truncation is part of the value, not a global setting.  Binary operations
truncate to the minimum of the two operands, and two series compare equal
when their terms agree up to that common truncation.

Besides ring arithmetic the module provides the three standard involutions
(word reversal ``tilde``, the substitution ``hat`` sending each variable to
-x(1+x)^-1, and their composite ``bar``), the cyclic quotient in which words
matter only up to rotation (each rotation's least one is kept across calls, up
to 2^16 rotations), and the abelianization map into commutative series.  The
involutions are the only ones in the package: they act on the generating
series ``genfun.BiSeries`` as well, where ``hat`` substitutes only the letter
``x`` (grade 1) and fixes ``z`` (grade 0), and on no other series type.
``hat`` is one recursion for both types: it doubles grade-1 letters, one dict
of words per word length and prefix length.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from . import commalg
from .series import Series

Word = tuple[int, ...]


def format_word(word: Word) -> str:
    return ".".join(["x%d"] * len(word)) % word if word else "1"


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
        for letter in word:  # an int and not a bool, the package's rule for integer input
            if isinstance(letter, bool) or not isinstance(letter, int) or not 1 <= letter <= self.n:
                raise ValueError("letter %r is not an integer in 1..%d" % (letter, self.n))
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
    out = NCSeries.zero(target_n, trunc)
    for word, v in f.num.items():
        part = NCSeries.one(target_n, trunc).scale(v)
        for letter in word:
            part = part * images[letter - 1]
            if part.is_zero():
                break
        out = out + part
    return out.scale(Fraction(1, f.den))


def _check_word_series(f: Series, name: str) -> None:
    if getattr(f, "_join", None) is not operator.add:  # a word series: products concatenate
        raise TypeError("%s acts on NCSeries and BiSeries, not %s" % (name, type(f).__name__))


def tilde(f: Series) -> Series:
    """Anti-automorphism fixing the variables: reverse every word."""
    _check_word_series(f, "tilde")
    return f._same({w[::-1]: v for w, v in f.num.items()}, f.den, f.trunc)


def hat(f: Series) -> Series:
    """Automorphism substituting x -> -x (1 + x)^-1 for each letter x of grade 1.

    Letters of grade 0 (``z`` in a ``genfun.BiSeries``) are fixed; every
    letter of an ``NCSeries`` has grade 1.  hat = sigma(E): sigma negates odd
    grades and E is x -> x (1 - x)^-1 = x (1 + E(x)), so E(f_p)[x.u] =
    E(f_(p.x))[u] + [u starts with x] E(f_p)[u] for f_p[u] = f[p.u] (a grade-0
    letter has the first term only).  Over all p of length d, E(f_p) at the
    words p.u of length s is a dict X_d(s): X_(d+1)(s) plus X_d(s - 1) with the
    grade-1 letter at position d doubled, where that stays within the
    truncation.  X_(s-1)(s) = X_s(s) is f at length s, and E(f) = X_0.

    >>> print(hat(NCSeries(2, 3, {(1, 1, 2): 1})))
    -1 * x1.x1.x2
    """
    _check_word_series(f, "hat")
    trunc, grade = f.trunc, f._grade
    nc = isinstance(f, NCSeries)  # every letter doubles and no length passes trunc
    stores: dict = {}  # f by word length
    for w, v in f.num.items():
        stores.setdefault(len(w), {})[w] = v
    # the longest word of the result: each word gains at most trunc - grade letters
    top = trunc if nc else max([len(w) + trunc - grade(w) for w in f.num], default=0)
    out, prev = {}, []  # prev[d] = X_d(s - 1)
    for s in range(top + 1):
        acc = stores.get(s, {})
        cur = [acc] * (s + 1)
        for d in reversed(range(s - 1)):
            if prev[d]:
                acc = dict(acc)
                for w, v in prev[d].items():
                    if nc or grade(w[d : d + 1]) and grade(w) < trunc:
                        w = w[: d + 1] + w[d:]
                        acc[w] = acc.get(w, 0) + v
            cur[d] = acc
        prev = cur
        if nc:
            out.update(zip(acc, map(operator.neg, acc.values())) if s % 2 else acc)
        else:
            out.update((w, -v if grade(w) % 2 else v) for w, v in acc.items())
    return f._same(out, f.den, trunc)


def bar(f: Series) -> Series:
    """Anti-automorphism x -> -x (1 + x)^-1 with word reversal: tilde(hat(f))."""
    _check_word_series(f, "bar")
    return tilde(hat(f))


def minimal_rotation(word: Word) -> Word:
    """Lexicographically least cyclic rotation of a word.

    Every rotation is a window of the doubled word.

    >>> minimal_rotation((2, 1, 1))
    (1, 1, 2)
    >>> minimal_rotation(())
    ()
    """
    return min(_rotations(word), default=word)


def _rotations(word: Word) -> list[Word]:
    doubled = word + word
    return [doubled[r : r + len(word)] for r in range(len(word))]


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

    _join = None  # no product: ``*`` with a series, ``**`` and power series raise TypeError

    # the benchmark's tracer patches this name on this class
    __eq__ = Series.__eq__


def _check_nc_series(f: Series, name: str) -> None:
    if not isinstance(f, NCSeries):
        raise TypeError("%s acts on NCSeries, not %s" % (name, type(f).__name__))


_LEAST: dict[Word, Word] = {}  # every rotation met so far -> the least one
_LEAST_CAP = 1 << 16  # entries; about 9 MB at length 8


def cyclic_reduce(f: NCSeries) -> CyclicSeries:
    """Image of a series in the cyclic quotient: integer sums under least rotations.

    The map from each rotation to its least one is kept between calls, one rotation
    class at a time, and emptied after a call that leaves it above ``_LEAST_CAP``."""
    _check_nc_series(f, "cyclic_reduce")
    least, out = _LEAST, {}
    for word, v in f.num.items():
        key = least.get(word)
        if key is None:  # a new rotation class
            rotations = _rotations(word)
            key = min(rotations, default=word)
            least.update(dict.fromkeys(rotations, key))
        out[key] = out.get(key, 0) + v
    if len(least) > _LEAST_CAP:
        least.clear()
    return CyclicSeries(f.n, f.trunc)._same(out, f.den, f.trunc)


def abelianize(f: NCSeries) -> "commalg.CommSeries":
    """Send each word to its exponent vector, summing coefficients in integers."""
    _check_nc_series(f, "abelianize")
    out: dict[tuple[int, ...], int] = {}
    for word, v in f.num.items():
        key = tuple(map(word.count, range(1, f.n + 1)))
        out[key] = out.get(key, 0) + v
    return commalg.CommSeries(f.n, f.trunc)._same(out, f.den, f.trunc)
