"""Admissible generating series in the two noncommuting letters x and z.

These bivariate series are the recipe parameter of the trace invariants:
each one is stored as a finite map from words over {x, z} to rationals,
together with a declared bound ``xtrunc`` on the x-degree.  Admissibility
(finitely many terms of each x-degree) is enforced structurally: a series
is always a finite object and the caller asserts per-degree completeness
up to ``xtrunc``.  ``check_word`` is the one check of a word, and
``word_runs`` the one reader of its x- and z-runs for the trace routes.

Built-ins: ``delta_series`` is log(xz + 1) and ``phi_series`` is
(xz + 1)^-1 x.  Transforms: word reversal (tilde), the substitution
x -> -x(1+x)^-1 (hat) and their composite (bar) are ``ncalg``'s
involutions; z -> 1 - z deletes z's here, one position at a time.
"""

from __future__ import annotations

import operator
import re
from collections.abc import Mapping
from fractions import Fraction

from . import ncalg
from .series import Series

BiWord = str  # a word over the alphabet "xz", e.g. "xzzx"

_Z_RUNS = re.compile("(z+)")


def xdegree(word: BiWord) -> int:
    return word.count("x")


def parse_word(text: str) -> BiWord:
    """Parse the dotted CLI syntax, e.g. ``x.z.z.x`` -> ``xzzx``.

    The single token ``1`` denotes the empty word.
    """
    text = text.strip()
    if text == "1":
        return ""
    letters = text.split(".")
    for tok in letters:
        if tok not in ("x", "z"):
            raise ValueError("bad monomial token %r (expected x or z)" % tok)
    return "".join(letters)


def check_word(word) -> BiWord:
    """``word`` if it is a str over x and z, else ValueError: the one check of a word."""
    if not isinstance(word, str) or set(word) - {"x", "z"}:
        raise ValueError("bad word %r: a str over x and z" % (word,))
    return word


def format_bi_word(word: BiWord) -> str:
    return ".".join(word) if word else "1"


def word_runs(word: BiWord) -> tuple[list[int], list[int]]:
    """([j1, ..., j(k+1)], [e1, ..., ek]) for the word x^j1 z^e1 x^j2 ... z^ek x^j(k+1).

    Every e and every inner j is positive; j1 and j(k+1) may be 0.

    >>> word_runs("xzzxxzx"), word_runs("zxz")
    (([1, 2, 1], [2, 1]), ([0, 1, 0], [1, 1]))
    """
    pieces = _Z_RUNS.split(word)
    return list(map(len, pieces[::2])), list(map(len, pieces[1::2]))


class BiSeries(Series):
    """Finite truncated series in the noncommuting letters x and z.

    Keys are words over ``xz``, graded by x-degree; ``xtrunc`` is the
    truncation.  Terms sort by word length, then alphabetically.
    """

    __slots__ = ()

    _grade = staticmethod(xdegree)
    _join = staticmethod(operator.add)
    _format_key = staticmethod(format_bi_word)

    def __init__(self, xtrunc: int, terms: Mapping[BiWord, Fraction] | None = None):
        super().__init__(2, xtrunc, terms)

    @property
    def xtrunc(self) -> int:
        return self.trunc

    _key = staticmethod(check_word)

    def _one_key(self) -> BiWord:
        return ""

    _sort_grade = staticmethod(len)

    def __repr__(self) -> str:
        return "BiSeries(xtrunc=%d, <%s>)" % (self.xtrunc, self)


def monomial(word: BiWord, xtrunc: int, coeff=1) -> BiSeries:
    return BiSeries(xtrunc, {word: coeff})


def delta_series(xtrunc: int) -> BiSeries:
    """log(xz + 1) up to x-degree xtrunc."""
    terms = {
        "xz" * k: Fraction((-1) ** (k + 1), k) for k in range(1, xtrunc + 1)
    }
    return BiSeries(xtrunc, terms)


def phi_series(xtrunc: int) -> BiSeries:
    """(xz + 1)^-1 x up to x-degree xtrunc."""
    terms = {"xz" * k + "x": Fraction((-1) ** k) for k in range(xtrunc)}
    return BiSeries(xtrunc, terms)


def builtin_series(name: str, xtrunc: int) -> BiSeries:
    if name == "delta":
        return delta_series(xtrunc)
    if name == "phi":
        return phi_series(xtrunc)
    raise ValueError("unknown builtin series %r" % name)


def transform(f: BiSeries, kind: str) -> BiSeries:
    """Apply ``ncalg``'s tilde, hat or bar, or z_to_one_minus_z, to a series.

    z -> 1 - z sends a.z.b to a.b - a.z.b, one position at a time from the right.

    >>> print(transform(monomial("zxzz", 1), "z_to_one_minus_z"))
    1 * x + -2 * x.z + -1 * z.x + 1 * x.z.z + 2 * z.x.z + -1 * z.x.z.z
    """
    if kind in ("tilde", "hat", "bar"):  # looked up per call: the benchmark tracer wraps them
        return getattr(ncalg, kind)(f)
    if kind != "z_to_one_minus_z":
        raise ValueError("unknown involution %r" % kind)
    if not isinstance(f, BiSeries):
        raise TypeError("z_to_one_minus_z acts on BiSeries, not %s" % type(f).__name__)
    num = f.num
    for p in reversed(range(max(map(len, num), default=0))):
        out: dict = {}
        for w, v in num.items():
            if w[p : p + 1] == "z":
                cut = w[:p] + w[p + 1 :]
                out[cut] = out.get(cut, 0) + v
                v = -v
            out[w] = out.get(w, 0) + v
        num = out
    return f._same(num, f.den, f.trunc)

