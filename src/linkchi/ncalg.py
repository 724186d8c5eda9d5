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
matter only up to rotation, and the abelianization map into commutative
series.  The involutions are the only ones in the package: they act on the
generating series ``genfun.BiSeries`` as well, where ``hat`` substitutes
only the letter ``x`` (grade 1) and fixes ``z`` (grade 0), and on no other
series type.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from fractions import Fraction
from itertools import groupby, product

from . import commalg, genfun
from .series import Series, format_coeff

Word = tuple[int, ...]


_WORD_FORMATS = {0: "1"}  # by word length: 2 -> "x%d.x%d"


def format_word(word: Word) -> str:
    try:
        fmt = _WORD_FORMATS[len(word)]
    except KeyError:
        fmt = _WORD_FORMATS[len(word)] = ".".join(["x%d"] * len(word))
    return fmt % word


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
    to_triples = Series.to_triples

    def to_lines(self) -> list[str]:
        """``Series.to_lines``.  A length L > 0 holding at least a quarter of its
        n^L words walks them in canonical order, ``product(range(1, n + 1),
        repeat=L)``, against a table of their texts, each the previous length's
        text plus one letter; any other length sorts and formats its own words.
        """
        num, n = self.num, self.n
        coeffs = {v: format_coeff(v, self.den) + " * " for v in set(num.values())}
        counts = sorted(Counter(map(len, num)).items())
        dense = {length for length, count in counts if length and 4 * count >= n**length}
        sparse = sorted(w for w in num if len(w) not in dense) if len(dense) < len(counts) else []
        sparse.sort(key=len)
        names = ["x%d" % i for i in range(1, n + 1)]
        dotted = ["." + name for name in names]
        lines, at, texts = [], 0, {}  # texts: {L: the texts of all words of length L}, one L
        for length, count in counts:
            if length not in dense:
                lines += [coeffs[num[w]] + format_word(w) for w in sparse[at : at + count]]
                at += count
                continue
            if length - 1 in texts:
                texts = {length: [p + d for p in texts[length - 1] for d in dotted]}
            else:
                texts = {length: [".".join(w) for w in product(names, repeat=length)]}
            words = product(range(1, n + 1), repeat=length)
            lines += [coeffs[v] + t for t, v in zip(texts[length], map(num.get, words)) if v]
        return lines


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
    if not isinstance(f, (NCSeries, genfun.BiSeries)):
        raise TypeError("%s acts on NCSeries and BiSeries, not %s" % (name, type(f).__name__))


def tilde(f: Series) -> Series:
    """Anti-automorphism fixing the variables: reverse every word."""
    _check_word_series(f, "tilde")
    return f._same({w[::-1]: v for w, v in f.num.items()}, f.den, f.trunc)


def hat(f: Series) -> Series:
    """Automorphism substituting x -> -x (1 + x)^-1 for each letter x of grade 1.

    Letters of grade 0 (``z`` in a ``genfun.BiSeries``) are fixed; every
    letter of an ``NCSeries`` has grade 1.  A run x^r maps to
    (sum_j (-1)^j x^j)^r = sum_{s >= r} (-1)^s C(s-1, r-1) x^s.  Terms are
    keyed ``(done, rest)``, in integers over one common denominator; each
    pass replaces the first run of every ``rest`` by its images within the
    truncation, and words that then share a key merge before the next pass.

    >>> print(hat(NCSeries(2, 3, {(1, 1, 2): 1})))
    -1 * x1.x1.x2
    """
    _check_word_series(f, "hat")
    trunc, grade = f.trunc, f._grade
    weight = [[(-1) ** s * math.comb(s - 1, r - 1) if s >= r > 0 else 0 for s in range(trunc + 1)]
              for r in range(trunc + 1)]  # weight[r][s]: coefficient of x^s in the image of x^r
    pending = {(word[:0], word): v for word, v in f.num.items()}
    out: dict = {}
    runs: dict = {}  # rest -> its first letter, that run's length, the rest after it, its grade
    while pending:
        after: dict = {}
        for (done, rest), v in pending.items():
            if not rest:
                out[done] = out.get(done, 0) + v
                continue
            if rest not in runs:
                r = sum(1 for _ in next(groupby(rest))[1])
                runs[rest] = (rest[:1], r, rest[r:], grade(rest[r:]))
            letter, r, tail, tail_grade = runs[rest]
            if not grade(letter):
                key = (done + rest[:r], tail)
                after[key] = after.get(key, 0) + v
                continue
            for s in range(r, trunc - grade(done) - tail_grade + 1):
                key = (done + letter * s, tail)
                after[key] = after.get(key, 0) + v * weight[r][s]
        pending = after
    return f._same(out, f.den, trunc)


def bar(f: Series) -> Series:
    """Anti-automorphism x -> -x (1 + x)^-1 with word reversal: tilde(hat(f))."""
    _check_word_series(f, "bar")
    return tilde(hat(f))


def involution(f: Series, kind: str) -> Series:
    """``tilde``, ``hat`` or ``bar`` of an ``NCSeries`` or a ``genfun.BiSeries``."""
    # names looked up per call, so the benchmark tracer's wrappers see it
    ops = {"tilde": tilde, "hat": hat, "bar": bar}
    if kind not in ops:
        raise ValueError("unknown involution %r" % kind)
    return ops[kind](f)


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


def cyclic_reduce(f: NCSeries) -> CyclicSeries:
    """Image of a series in the cyclic quotient: integer sums under least rotations."""
    least: dict[Word, Word] = {}  # every rotation met so far -> the least one
    out: dict[Word, int] = {}
    for word, v in f.num.items():
        key = least.get(word)
        if key is None:  # a new rotation class
            rotations = _rotations(word)
            key = min(rotations, default=word)
            least.update(dict.fromkeys(rotations, key))
        out[key] = out.get(key, 0) + v
    return CyclicSeries(f.n, f.trunc)._same(out, f.den, f.trunc)


def abelianize(f: NCSeries) -> "commalg.CommSeries":
    """Send each word to its exponent vector, summing coefficients in integers."""
    out: dict[tuple[int, ...], int] = {}
    for word, v in f.num.items():
        key = tuple(map(word.count, range(1, f.n + 1)))
        out[key] = out.get(key, 0) + v
    return commalg.CommSeries(f.n, f.trunc)._same(out, f.den, f.trunc)
