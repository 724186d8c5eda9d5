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
series.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from . import commalg

Word = tuple[int, ...]


def word_sort_key(word: Word) -> tuple[int, Word]:
    """Canonical term order: by degree, then lexicographically."""
    return (len(word), word)


def format_coeff(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    return "%d/%d" % (c.numerator, c.denominator)


def format_word(word: Word) -> str:
    if not word:
        return "1"
    return ".".join("x%d" % i for i in word)


def _clean_terms(n: int, trunc: int, terms) -> dict[Word, Fraction]:
    clean: dict[Word, Fraction] = {}
    for word, coeff in terms.items():
        word = tuple(word)
        if len(word) > trunc:
            continue
        for letter in word:
            if not 1 <= letter <= n:
                raise ValueError(
                    "letter x%d outside variable range 1..%d" % (letter, n)
                )
        coeff = Fraction(coeff)
        if coeff:
            acc = clean.get(word)
            coeff = coeff if acc is None else acc + coeff
            if coeff:
                clean[word] = coeff
            elif acc is not None:
                del clean[word]
    return clean


class NCSeries:
    """A truncated series in ``n`` noncommuting variables.

    Words longer than ``trunc`` are silently dropped on construction; the
    constructor is the truncation map.  Instances are immutable by
    convention: no method mutates ``terms`` after ``__init__``.
    """

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n: int, trunc: int, terms: Mapping[Word, Fraction] | None = None):
        if n < 0:
            raise ValueError("variable count must be >= 0")
        if trunc < 0:
            raise ValueError("truncation degree must be >= 0")
        self.n = n
        self.trunc = trunc
        self.terms = _clean_terms(n, trunc, terms or {})

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, n: int, trunc: int) -> "NCSeries":
        return cls(n, trunc)

    @classmethod
    def one(cls, n: int, trunc: int) -> "NCSeries":
        return cls(n, trunc, {(): Fraction(1)})

    @classmethod
    def variable(cls, n: int, trunc: int, i: int) -> "NCSeries":
        return cls(n, trunc, {(i,): Fraction(1)})

    # -- inspection ------------------------------------------------------

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    @property
    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def truncated(self, trunc: int) -> "NCSeries":
        return NCSeries(self.n, min(self.trunc, trunc), self.terms)

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: word_sort_key(kv[0]))

    # -- text and structured forms ---------------------------------------

    def to_lines(self) -> list[str]:
        return [
            "%s * %s" % (format_coeff(c), format_word(w))
            for w, c in self.sorted_terms()
        ]

    def to_triples(self) -> list[tuple[int, int, list[int]]]:
        return [
            (c.numerator, c.denominator, list(w)) for w, c in self.sorted_terms()
        ]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(self.to_lines())

    def __repr__(self) -> str:
        return "NCSeries(n=%d, trunc=%d, <%s>)" % (self.n, self.trunc, self)

    # -- ring structure ----------------------------------------------------

    def _check_compatible(self, other: "NCSeries") -> None:
        if self.n != other.n:
            raise ValueError(
                "variable-count mismatch: %d vs %d" % (self.n, other.n)
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCSeries):
            return NotImplemented
        if self.n != other.n:
            return False
        t = min(self.trunc, other.trunc)
        a = {w: c for w, c in self.terms.items() if len(w) <= t}
        b = {w: c for w, c in other.terms.items() if len(w) <= t}
        return a == b

    def __add__(self, other: "NCSeries") -> "NCSeries":
        self._check_compatible(other)
        trunc = min(self.trunc, other.trunc)
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, Fraction(0)) + c
        return NCSeries(self.n, trunc, terms)

    def __sub__(self, other: "NCSeries") -> "NCSeries":
        return self + (-other)

    def __neg__(self) -> "NCSeries":
        return NCSeries(self.n, self.trunc, {w: -c for w, c in self.terms.items()})

    def scale(self, scalar) -> "NCSeries":
        scalar = Fraction(scalar)
        return NCSeries(
            self.n, self.trunc, {w: c * scalar for w, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, NCSeries):
            self._check_compatible(other)
            trunc = min(self.trunc, other.trunc)
            terms: dict[Word, Fraction] = {}
            for wa, ca in self.terms.items():
                if len(wa) > trunc:
                    continue
                budget = trunc - len(wa)
                for wb, cb in other.terms.items():
                    if len(wb) > budget:
                        continue
                    w = wa + wb
                    terms[w] = terms.get(w, Fraction(0)) + ca * cb
            return NCSeries(self.n, trunc, terms)
        return self.scale(other)

    def __rmul__(self, scalar) -> "NCSeries":
        return self.scale(scalar)

    def __pow__(self, k: int) -> "NCSeries":
        if k < 0:
            raise ValueError("negative powers need inverse_special")
        out = NCSeries.one(self.n, self.trunc)
        for _ in range(k):
            out = out * self
        return out


def log1p(u: NCSeries) -> NCSeries:
    """log(1 + u) for a series u with zero constant term.

    >>> x = NCSeries.variable(1, 3, 1)
    >>> print(log1p(x))
    1 * x1 + -1/2 * x1.x1 + 1/3 * x1.x1.x1
    """
    if u.constant_term != 0:
        raise ValueError("log1p needs a zero constant term")
    out = NCSeries.zero(u.n, u.trunc)
    power = NCSeries.one(u.n, u.trunc)
    for k in range(1, u.trunc + 1):
        power = power * u
        if power.is_zero():
            break
        out = out + power.scale(Fraction((-1) ** (k + 1), k))
    return out


def inverse_special(f: NCSeries) -> NCSeries:
    """Inverse of a special series (constant term exactly 1).

    >>> x = NCSeries.variable(1, 3, 1)
    >>> print(inverse_special(NCSeries.one(1, 3) - x))
    1 * 1 + 1 * x1 + 1 * x1.x1 + 1 * x1.x1.x1
    """
    if f.constant_term != 1:
        raise ValueError("inverse_special needs constant term 1")
    u = NCSeries.one(f.n, f.trunc) - f
    out = NCSeries.one(f.n, f.trunc)
    power = NCSeries.one(f.n, f.trunc)
    for _ in range(f.trunc):
        power = power * u
        if power.is_zero():
            break
        out = out + power
    return out


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
    for word, coeff in f.terms.items():
        part = NCSeries.one(target_n, trunc)
        for letter in word:
            part = part * images[letter - 1]
            if part.is_zero():
                break
        out = out + part.scale(coeff)
    return out


def bar_variable(n: int, trunc: int, i: int) -> NCSeries:
    """Expansion of -x_i (1 + x_i)^-1, the image of x_i under bar/hat."""
    terms = {(i,) * j: Fraction((-1) ** j) for j in range(1, trunc + 1)}
    return NCSeries(n, trunc, terms)


def tilde(f: NCSeries) -> NCSeries:
    """Anti-automorphism fixing the variables: reverse every word."""
    return NCSeries(f.n, f.trunc, {w[::-1]: c for w, c in f.terms.items()})


def hat(f: NCSeries) -> NCSeries:
    """Automorphism substituting x_i -> -x_i (1 + x_i)^-1, no reversal."""
    images = [bar_variable(f.n, f.trunc, i) for i in range(1, f.n + 1)]
    return substitute(f, images)


def bar(f: NCSeries) -> NCSeries:
    """Anti-automorphism x_i -> -x_i (1 + x_i)^-1 with word reversal."""
    return tilde(hat(f))


_INVOLUTIONS = {"tilde": tilde, "hat": hat, "bar": bar}


def involution(f: NCSeries, kind: str) -> NCSeries:
    try:
        op = _INVOLUTIONS[kind]
    except KeyError:
        raise ValueError("unknown involution %r" % kind) from None
    return op(f)


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


class CyclicSeries:
    """A series in the quotient where words are read up to cyclic rotation.

    Stored words are in minimal-rotation normal form.  Two series are equal
    in the quotient iff their normal forms agree at the common truncation.
    """

    __slots__ = ("n", "trunc", "terms")

    def __init__(self, n: int, trunc: int, terms: Mapping[Word, Fraction] | None = None):
        rotated: dict[Word, Fraction] = {}
        for word, coeff in (terms or {}).items():
            word = minimal_rotation(tuple(word))
            rotated[word] = rotated.get(word, Fraction(0)) + Fraction(coeff)
        self.n = n
        self.trunc = trunc
        self.terms = _clean_terms(n, trunc, rotated)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, CyclicSeries):
            return NotImplemented
        if self.n != other.n:
            return False
        t = min(self.trunc, other.trunc)
        a = {w: c for w, c in self.terms.items() if len(w) <= t}
        b = {w: c for w, c in other.terms.items() if len(w) <= t}
        return a == b

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(
            "%s * %s" % (format_coeff(c), format_word(w))
            for w, c in sorted(self.terms.items(), key=lambda kv: word_sort_key(kv[0]))
        )

    def __repr__(self) -> str:
        return "CyclicSeries(n=%d, trunc=%d, <%s>)" % (self.n, self.trunc, self)


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
