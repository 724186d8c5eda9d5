"""Admissible generating series in the two noncommuting letters x and z.

These bivariate series are the recipe parameter of the trace invariants:
each one is stored as a finite map from words over {x, z} to rationals,
together with a declared bound ``xtrunc`` on the x-degree.  Admissibility
(finitely many terms of each x-degree) is enforced structurally: a series
is always a finite object and the caller asserts per-degree completeness
up to ``xtrunc``.

Built-ins: ``delta_series`` is log(xz + 1) and ``phi_series`` is
(xz + 1)^-1 x.  Transforms: z -> 1 - z is computed here; word reversal
(tilde), the substitution x -> -x(1+x)^-1 (hat) and their composite (bar)
are ``ncalg``'s involutions, which act on these series too.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import groupby
from typing import Iterable, Mapping

from . import ncalg
from .series import Series

BiWord = str  # a word over the alphabet "xz", e.g. "xzzx"
TriWord = str  # a word over "xyz", used by the monomial reduction


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


def format_bi_word(word: BiWord) -> str:
    return ".".join(word) if word else "1"


def word_runs(word: BiWord) -> tuple[int, list[tuple[int, int]]]:
    """Split a word into x^f0 z^e1 x^f1 ... z^ek x^fk run lengths.

    Returns (f0, [(e1, f1), ..., (ek, fk)]); inner z-runs have e > 0 and the
    trailing f may be zero.
    """
    runs = [(ch, sum(1 for _ in grp)) for ch, grp in groupby(word)]
    f0 = 0
    start = 0
    if runs and runs[0][0] == "x":
        f0 = runs[0][1]
        start = 1
    pairs = []
    for idx in range(start, len(runs), 2):
        e = runs[idx][1]
        f = runs[idx + 1][1] if idx + 1 < len(runs) else 0
        pairs.append((e, f))
    return f0, pairs


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

    def _key(self, word: BiWord) -> BiWord:
        if set(word) - {"x", "z"}:
            raise ValueError("bad letters in word %r" % word)
        return word

    def _one_key(self) -> BiWord:
        return ""

    @staticmethod
    def _sort_key(word: BiWord) -> tuple[int, BiWord]:
        return (len(word), word)

    def x_degree_part(self, d: int) -> dict[BiWord, Fraction]:
        return {w: c for w, c in self.terms.items() if xdegree(w) == d}

    def __repr__(self) -> str:
        return "BiSeries(xtrunc=%d, <%s>)" % (self.xtrunc, self)


def monomial(word: BiWord, xtrunc: int, coeff=1) -> BiSeries:
    return BiSeries(xtrunc, {word: Fraction(coeff)})


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


def from_univariate(coeffs: Iterable, xtrunc: int) -> BiSeries:
    """Series G(xz) for G given by its coefficient list [G0, G1, ...]."""
    terms = {}
    for k, c in enumerate(coeffs):
        if k > xtrunc:
            break
        c = Fraction(c)
        if c:
            terms["xz" * k] = c
    return BiSeries(xtrunc, terms)


def _one_minus_z_word(word: BiWord) -> dict[BiWord, Fraction]:
    """Expand each maximal z-run z^e into (1 - z)^e binomially."""
    out = {"": Fraction(1)}
    for ch, grp in groupby(word):
        run = sum(1 for _ in grp)
        if ch == "x":
            out = {frag + "x" * run: c for frag, c in out.items()}
            continue
        binom = 1
        expanded: dict[BiWord, Fraction] = {}
        for j in range(run + 1):
            sign = (-1) ** j
            for frag, c in out.items():
                w = frag + "z" * j
                expanded[w] = expanded.get(w, Fraction(0)) + c * sign * binom
            binom = binom * (run - j) // (j + 1)
        out = expanded
    return out


def transform(f: BiSeries, kind: str) -> BiSeries:
    """Apply tilde, hat or bar (by ``ncalg.involution``) or z_to_one_minus_z to a series."""
    if kind != "z_to_one_minus_z":
        return ncalg.involution(f, kind)
    terms: dict[BiWord, Fraction] = {}
    for word, coeff in f.terms.items():
        for w, c in _one_minus_z_word(word).items():
            terms[w] = terms.get(w, Fraction(0)) + coeff * c
    return BiSeries(f.xtrunc, terms)


def inverse_extra_special(f: BiSeries) -> BiSeries:
    """Inverse of an extra-special series: x-degree-0 part exactly 1.

    Since 1 - f has positive x-degree everywhere, the geometric series
    terminates at xtrunc and the inverse is again admissible.
    """
    zero_part = f.x_degree_part(0)
    if zero_part != {"": Fraction(1)}:
        raise ValueError("series is not extra-special (x-degree-0 part != 1)")
    return (BiSeries.one(f.xtrunc) - f).geometric()


def prime_word(word: BiWord) -> TriWord:
    """Monomial reduction into three letters.

    Each z-run z^e becomes (zy)^(e-1) z and every x-run collapses to a
    single x, including the possibly empty runs at the two ends.  A pure-x
    word therefore maps to the single letter x.
    """
    _, pairs = word_runs(word)
    pieces = ["x"]
    for e, _ in pairs:
        pieces.append("zy" * (e - 1) + "z")
        pieces.append("x")
    return "".join(pieces)
