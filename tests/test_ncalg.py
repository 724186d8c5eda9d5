import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import bar_variable, hat_by_ring_products, shift_variables
from linkchi.commalg import CommSeries
from linkchi.genfun import BiSeries
from linkchi.ncalg import (
    CyclicSeries,
    NCSeries,
    abelianize,
    bar,
    cyclic_reduce,
    hat,
    involution,
    minimal_rotation,
    substitute,
    tilde,
)
from linkchi.series import Series


def S(n, trunc, terms):
    return NCSeries(n, trunc, {w: Fraction(c) for w, c in terms.items()})


def var(n, trunc, i):
    return NCSeries.variable(n, trunc, i)


# -- ring operations --------------------------------------------------------


def test_product_concatenates_words():
    x1 = var(2, 4, 1)
    x2 = var(2, 4, 2)
    assert x1 * x2 == S(2, 4, {(1, 2): 1})


def test_square_expands_noncommutatively():
    x1 = var(2, 4, 1)
    x2 = var(2, 4, 2)
    expected = S(2, 4, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
    assert (x1 + x2) ** 2 == expected


def test_geometric_identity_truncates_to_one():
    one = NCSeries.one(1, 3)
    x = var(1, 3, 1)
    alt = S(1, 3, {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1})
    assert (one + x) * alt == one


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError, match="variable-count"):
        var(1, 3, 1) * var(2, 3, 1)


def test_equality_at_common_truncation():
    a = S(1, 3, {(1,): 1, (1, 1, 1): 5})
    b = S(1, 2, {(1,): 1})
    assert a == b
    assert S(1, 2, {(1,): 1, (1, 1): 1}) != b


# -- log --------------------------------------------------------------------


def test_log1p_single_variable():
    x = var(1, 3, 1)
    expected = S(1, 3, {(1,): 1, (1, 1): Fraction(-1, 2), (1, 1, 1): Fraction(1, 3)})
    assert x.log1p() == expected


def test_log1p_degree_two_word():
    u = S(2, 5, {(1, 2): 1})
    expected = S(2, 5, {(1, 2): 1, (1, 2, 1, 2): Fraction(-1, 2)})
    assert u.log1p() == expected


def test_log1p_mixed_input_matches_short_expansion():
    u = S(2, 2, {(1,): 1, (2,): 1, (1, 2): 1})
    # at truncation 2 the series is u - u^2/2, expanded by hand
    expected = S(
        2,
        2,
        {
            (1,): 1,
            (2,): 1,
            (1, 1): Fraction(-1, 2),
            (2, 2): Fraction(-1, 2),
            (1, 2): Fraction(1, 2),
            (2, 1): Fraction(-1, 2),
        },
    )
    assert u.log1p() == expected
    assert u.log1p() == u - (u * u).scale(Fraction(1, 2))


def test_log1p_rejects_constant_term():
    with pytest.raises(ValueError):
        NCSeries.one(1, 3).log1p()


# -- special inverses --------------------------------------------------------


def test_inverse_geometric():
    one = NCSeries.one(1, 3)
    x = var(1, 3, 1)
    inv = (one - x).inverse()
    assert inv == S(1, 3, {(): 1, (1,): 1, (1, 1): 1, (1, 1, 1): 1})


def test_inverse_of_one_plus_word():
    f = S(2, 4, {(): 1, (1, 2): 1})
    assert f.inverse() == S(2, 4, {(): 1, (1, 2): -1, (1, 2, 1, 2): 1})


def test_inverse_two_variables():
    f = S(2, 2, {(): 1, (1,): 1, (2,): 1})
    expected = S(
        2, 2, {(): 1, (1,): -1, (2,): -1, (1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1}
    )
    assert f.inverse() == expected


def test_inverse_needs_unit_constant():
    with pytest.raises(ValueError):
        var(1, 3, 1).inverse()


# -- substitution and involutions --------------------------------------------


def test_substitute_is_homomorphic():
    f = S(2, 3, {(1, 1): 1})
    image = var(2, 3, 1) + var(2, 3, 2)
    out = substitute(f, [image, var(2, 3, 2)])
    assert out == image * image


def test_substitute_bar_image():
    f = var(1, 3, 1)
    out = substitute(f, [bar_variable(1, 3, 1)])
    assert out == S(1, 3, {(1,): -1, (1, 1): 1, (1, 1, 1): -1})


def test_substitute_bar_twice_is_identity():
    f = var(1, 4, 1)
    once = substitute(f, [bar_variable(1, 4, 1)])
    twice = substitute(once, [bar_variable(1, 4, 1)])
    assert twice == f


def test_substitute_rejects_constant_image():
    with pytest.raises(ValueError):
        substitute(var(1, 3, 1), [NCSeries.one(1, 3)])


def test_tilde_reverses_words():
    assert tilde(S(2, 3, {(1, 2): 1})) == S(2, 3, {(2, 1): 1})


def test_hat_of_variable():
    assert hat(var(1, 3, 1)) == S(1, 3, {(1,): -1, (1, 1): 1, (1, 1, 1): -1})


def test_bar_of_two_letter_word():
    out = bar(S(2, 3, {(1, 2): 1}))
    expected = S(2, 3, {(2, 1): 1, (2, 1, 1): -1, (2, 2, 1): -1})
    assert out == expected


def test_involution_dispatch_rejects_unknown():
    with pytest.raises(ValueError):
        involution(var(1, 2, 1), "conj")


@pytest.mark.parametrize(
    "f",
    [CyclicSeries(2, 3, {(1, 1, 2): 1}), CommSeries(2, 3, {(1, 0): 1, (0, 2): 3})],
    ids=["cyclic", "comm"],
)
@pytest.mark.parametrize("kind", ["tilde", "hat", "bar"])
def test_involutions_reject_other_series_types(f, kind):
    with pytest.raises(TypeError, match=kind):
        involution(f, kind)


def random_runs_series(rng, n, trunc):
    """Seeded words made of runs of length 1-3 (so most have a run >= 2),
    the empty word, and coefficients with different denominators."""
    terms = {(): Fraction(rng.randint(-3, 3), rng.randint(1, 4))}
    for _ in range(rng.randint(0, 12)):
        word = ()
        for _ in range(rng.randint(1, 4)):
            word += (rng.randint(1, n),) * rng.randint(1, 3)
        terms[word[:trunc]] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return NCSeries(n, trunc, terms)


def random_bi_series(rng, xtrunc):
    terms = {"": Fraction(rng.randint(-3, 3), rng.randint(1, 4))}
    for _ in range(rng.randint(0, 12)):
        letters = rng.sample("xz", 2)
        word = "".join(letters[i % 2] * rng.randint(1, 3) for i in range(rng.randint(1, 5)))
        terms[word] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    return BiSeries(xtrunc, terms)


@pytest.mark.parametrize("trunc", range(9))
def test_hat_matches_substitution_on_random_series(trunc):
    rng = random.Random(700 + trunc)
    for n in (1, 2, 3):
        images = [bar_variable(n, trunc, i) for i in range(1, n + 1)]
        for f in [NCSeries(n, trunc)] + [random_runs_series(rng, n, trunc) for _ in range(8)]:
            assert hat(f) == substitute(f, images)
            assert hat(hat(f)) == f


@pytest.mark.parametrize("xtrunc", range(8))
def test_hat_of_random_bi_series_matches_letter_images(xtrunc):
    rng = random.Random(800 + xtrunc)
    for f in [BiSeries(xtrunc)] + [random_bi_series(rng, xtrunc) for _ in range(8)]:
        assert hat(f) == hat_by_ring_products(f)
        assert hat(hat(f)) == f


# -- cyclic quotient and abelianization --------------------------------------


def test_cyclic_kills_commutators():
    f = S(2, 3, {(1, 2): 1, (2, 1): -1})
    assert cyclic_reduce(f).is_zero()


def test_cyclic_minimal_rotation():
    assert minimal_rotation((2, 1, 1)) == (1, 1, 2)
    f = S(2, 3, {(2, 1, 1): 1})
    assert cyclic_reduce(f) == CyclicSeries(2, 3, {(1, 1, 2): 1})


def test_cyclic_fixed_point_on_letters():
    f = S(2, 3, {(1,): 1, (2,): 1})
    assert cyclic_reduce(f) == CyclicSeries(2, 3, {(1,): 1, (2,): 1})


def test_cyclic_reduce_matches_the_constructor():
    rng = random.Random(900)
    cases = [S(2, 3, {(1, 2): 1, (2, 1): -1, (): Fraction(2, 3)}),
             S(3, 4, {(3, 1, 2): Fraction(1, 2), (2, 3, 1): Fraction(1, 3), (1, 1): 5}),
             NCSeries(2, 2)]
    for trunc in range(7):
        for n in (1, 2, 3):
            cases.append(random_runs_series(rng, n, trunc))
    for f in cases:
        assert cyclic_reduce(f).terms == CyclicSeries(f.n, f.trunc, f.terms).terms
    assert cyclic_reduce(cases[0]).terms == {(): Fraction(2, 3)}


CYCLIC = CyclicSeries(2, 3, {(1, 2): 1})


@pytest.mark.parametrize(
    "product",
    [
        lambda: CYCLIC * CYCLIC,
        lambda: CYCLIC * CyclicSeries(2, 3),
        lambda: CyclicSeries(2, 3) * CyclicSeries(2, 3),
        lambda: CyclicSeries(2, 0, {(): 1}) * CyclicSeries(2, 0, {(): 1}),
        lambda: CYCLIC * S(2, 3, {(1,): 1}),
        lambda: S(2, 3, {(1,): 1}) * CYCLIC,
        lambda: CYCLIC ** 0,
        lambda: CYCLIC ** 2,
        lambda: CYCLIC.geometric(),
        lambda: CYCLIC.log1p(),
        lambda: CyclicSeries(2, 3).geometric(),
        lambda: CyclicSeries(2, 3, {(): 1}).inverse(),
    ],
    ids=["square", "zero-operand", "zeros", "constants", "with-nc", "nc-with",
         "pow-0", "pow-2", "geometric", "log1p", "zero-geometric", "inverse"],
)
def test_cyclic_series_have_no_product(product):
    with pytest.raises(TypeError):
        product()


def test_cyclic_series_scale_by_scalars():
    assert CYCLIC * 2 == 2 * CYCLIC == CYCLIC.scale(2) == CyclicSeries(2, 3, {(2, 1): 2})


def test_abelianize_kills_commutators():
    f = S(2, 3, {(1, 2): 1, (2, 1): -1})
    assert abelianize(f).is_zero()


def test_abelianize_counts_exponents():
    f = S(2, 3, {(1, 2, 1): 1})
    out = abelianize(f)
    assert out.coefficient((2, 1)) == 1
    assert len(out.terms) == 1


def test_shift_variables():
    f = S(2, 3, {(1, 2): 1})
    out = shift_variables(f, 2, 4)
    assert out == S(4, 3, {(3, 4): 1})
    with pytest.raises(ValueError):
        shift_variables(f, 3, 4)


# -- randomized properties ----------------------------------------------------


def nc_series_strategy(max_n=3, max_trunc=5):
    @st.composite
    def build(draw):
        n = draw(st.integers(1, max_n))
        trunc = draw(st.integers(1, max_trunc))
        count = draw(st.integers(0, 5))
        terms = {}
        for _ in range(count):
            length = draw(st.integers(0, trunc))
            word = tuple(draw(st.integers(1, n)) for _ in range(length))
            coeff = Fraction(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))
            terms[word] = terms.get(word, Fraction(0)) + coeff
        return NCSeries(n, trunc, terms)

    return build()


def aligned_triple():
    @st.composite
    def build(draw):
        n = draw(st.integers(1, 3))
        trunc = draw(st.integers(1, 5))

        def one(draw):
            terms = {}
            for _ in range(draw(st.integers(0, 4))):
                length = draw(st.integers(0, trunc))
                word = tuple(draw(st.integers(1, n)) for _ in range(length))
                terms[word] = terms.get(word, Fraction(0)) + draw(st.integers(-4, 4))
            return NCSeries(n, trunc, terms)

        return one(draw), one(draw), one(draw)

    return build()


@settings(max_examples=100, deadline=None)
@given(aligned_triple())
def test_ring_axioms(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    one = NCSeries.one(a.n, a.trunc)
    assert one * a == a and a * one == a


@settings(max_examples=60, deadline=None)
@given(nc_series_strategy())
def test_special_inverse_round_trip(f):
    unit = NCSeries.one(f.n, f.trunc)
    g = unit + f - NCSeries(f.n, f.trunc, {(): f.constant_term})
    inv = g.inverse()
    assert g * inv == unit
    assert inv * g == unit


@settings(max_examples=60, deadline=None)
@given(aligned_triple())
def test_involution_algebra(triple):
    f, g, _ = triple
    for kind in ("tilde", "bar", "hat"):
        assert involution(involution(f, kind), kind) == f
    assert tilde(f * g) == tilde(g) * tilde(f)
    assert bar(f * g) == bar(g) * bar(f)
    assert hat(f * g) == hat(f) * hat(g)
    assert hat(tilde(f)) == bar(f)
    assert tilde(bar(f)) == hat(f)
    assert bar(hat(f)) == tilde(f)


@settings(max_examples=60, deadline=None)
@given(aligned_triple())
def test_quotient_maps(triple):
    f, g, _ = triple
    assert cyclic_reduce(f * g - g * f).is_zero()
    assert abelianize(f * g) == abelianize(f) * abelianize(g)
    assert abelianize(f + g) == abelianize(f) + abelianize(g)


# -- text output ---------------------------------------------------------------


@st.composite
def dense_and_sparse_series(draw):
    """Series with n up to 11 whose lengths hold all, a quarter, just under a
    quarter, a few or none of their n^L words; the empty word and the empty
    series among them."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 11))
    trunc = draw(st.integers(0, 5))
    terms = {}
    for length in range(trunc + 1):
        total = n**length
        kinds = ["few", "none"] + (["all", "quarter", "under"] if total <= 1500 else [])
        kind = draw(st.sampled_from(kinds))
        quarter = -(-total // 4)
        count = {"all": total, "quarter": quarter, "under": quarter - 1,
                 "few": min(total, 3), "none": 0}[kind]
        if kind in ("all", "quarter", "under"):
            words = rng.sample(list(itertools.product(range(1, n + 1), repeat=length)), count)
        else:
            words = [tuple(rng.randint(1, n) for _ in range(length)) for _ in range(count)]
        for word in words:
            terms[word] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 2, 6]))
    return NCSeries(n, trunc, terms)


@settings(max_examples=150, deadline=None)
@given(dense_and_sparse_series())
def test_ordered_text_matches_the_sorted_text(f):
    assert NCSeries.to_lines(f) == Series.to_lines(f)
    assert NCSeries.to_lines(NCSeries(f.n, f.trunc)) == []


def test_letters_from_x10_up_print_in_integer_order():
    # length 1 holds 4 of its 11 words and walks them; length 2, 3 of 121, sorts them
    f = S(11, 3, {(10,): 1, (9,): 2, (11,): -1, (1,): 5, (2, 10): Fraction(1, 2),
                  (10, 2): 3, (9, 11): 1, (): 7})
    assert f.to_lines() == [
        "7 * 1", "5 * x1", "2 * x9", "1 * x10", "-1 * x11",
        "1/2 * x2.x10", "1 * x9.x11", "3 * x10.x2",
    ]
    every = S(11, 2, {(i, j): i - j or 1 for i in range(1, 12) for j in range(1, 12)})
    lines = every.to_lines()
    assert lines[:3] == ["1 * x1.x1", "-1 * x1.x2", "-2 * x1.x3"]
    assert lines[9:12] == ["-9 * x1.x10", "-10 * x1.x11", "1 * x2.x1"]
    assert lines[-2:] == ["1 * x11.x10", "1 * x11.x11"]
    assert lines == Series.to_lines(every)
