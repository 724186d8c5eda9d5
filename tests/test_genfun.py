from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import from_univariate, one_minus_z_by_ring_products
from linkchi.genfun import (
    BiSeries,
    builtin_series,
    delta_series,
    format_bi_word,
    monomial,
    parse_word,
    phi_series,
    prime_word,
    transform,
    word_runs,
    xdegree,
)


def B(xtrunc, terms):
    return BiSeries(xtrunc, {w: Fraction(c) for w, c in terms.items()})


# -- built-ins -----------------------------------------------------------------


def test_delta_expansion():
    assert delta_series(2) == B(2, {"xz": 1, "xzxz": Fraction(-1, 2)})


def test_phi_expansion():
    assert phi_series(2) == B(2, {"x": 1, "xzx": -1})


def test_delta_at_zero_truncation_is_zero():
    assert delta_series(0).is_zero()


def test_builtin_rejects_unknown_name():
    with pytest.raises(ValueError):
        builtin_series("gamma", 2)


def test_from_univariate_square():
    assert from_univariate([0, 0, 1], 4) == B(4, {"xzxz": 1})


def test_from_univariate_log_matches_delta():
    coeffs = [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, 7)]
    assert from_univariate(coeffs, 6) == delta_series(6)


def test_from_univariate_constant():
    assert from_univariate([1], 3) == BiSeries.one(3)


# -- transforms ------------------------------------------------------------------


def test_tilde_reverses():
    assert transform(B(4, {"xzxx": 1}), "tilde") == B(4, {"xxzx": 1})


def test_tilde_of_g_type_series_is_literal_reversal():
    f = from_univariate([0, 1, Fraction(1, 2), -3], 3)
    out = transform(f, "tilde")
    assert out == B(3, {"zx": 1, "zxzx": Fraction(1, 2), "zxzxzx": -3})


def test_one_minus_z_on_xz():
    out = transform(B(2, {"xz": 1}), "z_to_one_minus_z")
    assert out == B(2, {"x": 1, "xz": -1})


def test_one_minus_z_cancels_across_words():
    # (1 - z)^3 x - x and -(3z - 3z^2 + z^3) x are one series
    out = transform(B(2, {"zzzx": 1, "x": -1}), "z_to_one_minus_z")
    assert out == B(2, {"zx": -3, "zzx": 3, "zzzx": -1})
    assert out.coefficient("x") == 0


@st.composite
def z_run_series(draw):
    """A BiSeries whose words have z-runs of length 1 to 4, also at either end.

    Beside some words it holds, with the opposite coefficient, the same word
    less one z-run: that word's images are images of the first, so their
    coefficients cancel across words.
    """
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        zruns = draw(st.lists(st.integers(1, 4), max_size=3))
        xruns = [draw(st.integers(0, 2))] + [draw(st.integers(1, 2)) for _ in zruns[1:]]
        xruns.append(draw(st.integers(0, 2)) if zruns else 0)
        pieces = ["x" * xruns[0]]
        for e, j in zip(zruns, xruns[1:]):
            pieces += ["z" * e, "x" * j]
        coeff = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 4)))
        words = ["".join(pieces)]
        if zruns and draw(st.booleans()):
            t = 2 * draw(st.integers(0, len(zruns) - 1)) + 1
            words.append("".join(pieces[:t] + pieces[t + 1 :]))
        for word, c in zip(words, (coeff, -coeff)):
            terms[word] = terms.get(word, 0) + c
    return BiSeries(draw(st.integers(0, 5)), terms)


@settings(max_examples=150, deadline=None)
@given(z_run_series())
def test_one_minus_z_matches_ring_products(f):
    out = transform(f, "z_to_one_minus_z")
    want = one_minus_z_by_ring_products(f)
    assert (out.num, out.den, out.trunc) == (want.num, want.den, want.trunc)
    back = transform(out, "z_to_one_minus_z")
    assert (back.num, back.den, back.trunc) == (f.num, f.den, f.trunc)


def test_phi_reflection_identity():
    # reversing phi then substituting z -> 1-z equals -hat(phi)
    phi = phi_series(3)
    lhs = transform(transform(phi, "tilde"), "z_to_one_minus_z")
    rhs = -transform(phi, "hat")
    assert lhs == rhs


def test_transform_involutivity_and_composition():
    f = B(4, {"xz": 2, "xzzx": Fraction(1, 3), "zzx": -1, "x": 1})
    for kind in ("tilde", "hat", "bar"):
        assert transform(transform(f, kind), kind) == f
    assert transform(transform(f, "tilde"), "hat") == transform(f, "bar")
    assert transform(transform(f, "bar"), "tilde") == transform(f, "hat")
    assert transform(transform(f, "hat"), "bar") == transform(f, "tilde")


def test_transform_outputs_respect_xtrunc():
    f = B(3, {"xzx": 1})
    out = transform(f, "hat")
    assert all(xdegree(w) <= 3 for w in out.terms)
    assert not out.is_zero()


def test_unknown_transform_raises():
    with pytest.raises(ValueError):
        transform(B(2, {"x": 1}), "flip")


# -- extra-special inversion ------------------------------------------------------


def test_inverse_of_one_plus_xz():
    out = B(2, {"": 1, "xz": 1}).inverse()
    assert out == B(2, {"": 1, "xz": -1, "xzxz": 1})


def test_inverse_with_two_terms():
    out = B(2, {"": 1, "xz": 1, "xx": 1}).inverse()
    assert out == B(2, {"": 1, "xz": -1, "xx": -1, "xzxz": 1})


def test_inverse_round_trip_random():
    import random

    rng = random.Random(3)
    for _ in range(12):
        terms = {"": Fraction(1)}
        for _ in range(rng.randint(1, 4)):
            word = "".join(
                rng.choice("xz") for _ in range(rng.randint(1, 4))
            )
            if "x" not in word:
                continue
            terms[word] = terms.get(word, Fraction(0)) + rng.randint(-2, 2)
        f = BiSeries(4, terms)
        g = f.inverse()
        assert f * g == BiSeries.one(4)
        assert g * f == BiSeries.one(4)


def test_inverse_rejects_pure_z_content():
    with pytest.raises(ValueError):
        B(3, {"": 1, "z": 1}).inverse()
    with pytest.raises(ValueError):
        B(3, {"x": 1}).inverse()


# -- monomial reduction ------------------------------------------------------------


def test_prime_word_single_z():
    assert prime_word("z") == "xzx"


def test_prime_word_double_z_run():
    assert prime_word("xzzx") == "xzyzx"


def test_prime_word_pure_x():
    assert prime_word("xx") == "x"


def test_word_runs():
    assert word_runs("xzzxxzx") == ([1, 2, 1], [2, 1])
    assert word_runs("zz") == ([0, 0], [2])
    assert word_runs("xxx") == ([3], [])
    assert word_runs("") == ([0], [])
    assert word_runs("z") == ([0, 0], [1])
    assert word_runs("zxz") == ([0, 1, 0], [1, 1])


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="xz", max_size=20))
def test_word_runs_round_trip(word):
    xruns, zruns = word_runs(word)
    assert len(xruns) == len(zruns) + 1
    assert all(e >= 1 for e in zruns)
    assert all(j >= 1 for j in xruns[1:-1])
    rebuilt = "x" * xruns[0] + "".join("z" * e + "x" * j for e, j in zip(zruns, xruns[1:]))
    assert rebuilt == word


# -- parsing and equality ------------------------------------------------------------


def test_parse_word_round_trip():
    assert parse_word("x.z.z.x") == "xzzx"
    assert format_bi_word("xzzx") == "x.z.z.x"
    assert parse_word("1") == ""


def test_parse_word_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_word("x.y")


def test_equality_at_common_x_truncation():
    a = B(3, {"x": 1, "xxx": 7})
    b = B(1, {"x": 1})
    assert a == b
    assert a != B(1, {"x": 1, "z": 1})


def test_monomial_constructor():
    f = monomial("xzx", 5, Fraction(2, 3))
    assert f.coefficient("xzx") == Fraction(2, 3)
    assert f.xtrunc == 5
