import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    bar_variable,
    hat_by_ring_products,
    one_minus_z_by_ring_products,
    random_seifert,
    shift_variables,
)
from linkchi import ncalg
from linkchi.commalg import CommSeries
from linkchi.genfun import BiSeries, transform
from linkchi.invariants import chi_delta, chi_phi
from linkchi.ncalg import (
    CyclicSeries,
    NCSeries,
    abelianize,
    bar,
    cyclic_reduce,
    hat,
    minimal_rotation,
    substitute,
    tilde,
)
from linkchi.selfcheck import random_nc_series
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


def test_substitute_drops_a_word_whose_image_passes_the_truncation():
    # x1.x1.x1 -> x1^6 is zero after its second letter; x1 -> x1.x1 stays
    f = S(1, 3, {(1, 1, 1): 1, (1,): 2})
    assert substitute(f, [var(1, 3, 1) * var(1, 3, 1)]) == S(1, 3, {(1, 1): 2})


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
    with pytest.raises(ValueError, match="unknown involution 'conj'"):
        transform(var(1, 2, 1), "conj")


@pytest.mark.parametrize(
    "f",
    [CyclicSeries(2, 3, {(1, 1, 2): 1}), CommSeries(2, 3, {(1, 0): 1, (0, 2): 3})],
    ids=["cyclic", "comm"],
)
@pytest.mark.parametrize("kind", ["tilde", "hat", "bar"])
def test_involutions_reject_other_series_types(f, kind):
    with pytest.raises(TypeError, match=kind):
        transform(f, kind)


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
    for n in (1, 2, 3, 4, 11):
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


def dense_series(rng, n, trunc, share):
    """The empty word and a seeded ``share`` of the other words, with no word of one
    length from trunc 3 up, words with a doubled letter at both ends among the first
    chosen, and Fraction coefficients near 10^12."""
    empty = rng.randint(1, trunc - 1) if trunc >= 3 else None
    words = [w for L in range(1, trunc + 1) if L != empty
             for w in itertools.product(range(1, n + 1), repeat=L)]
    count = round(share * len(words))
    ends = [w for w in words if len(w) >= 3 and w[0] == w[1] and w[-2] == w[-1]]
    chosen = set(rng.sample(ends, min(len(ends), count // 4)))
    chosen |= set(rng.sample([w for w in words if w not in chosen], count - len(chosen)))
    return NCSeries(n, trunc, {w: Fraction(rng.choice([-1, 1]) * (10**12 + rng.randint(-999, 999)),
                                           rng.choice([1, 2, 3, 7, 12])) for w in chosen | {()}})


@pytest.mark.parametrize("n, trunc", [(2, t) for t in range(2, 10)] + [(3, t) for t in range(2, 7)]
                         + [(4, t) for t in range(2, 6)] + [(11, 2), (11, 3)])
def test_hat_matches_substitution_from_empty_to_full(n, trunc):
    rng = random.Random(1000 * n + trunc)
    images = [bar_variable(n, trunc, i) for i in range(1, n + 1)]
    shares = (0, 0.05, 0.2, 0.5, 0.8, 1)
    for f in [NCSeries(n, trunc)] + [dense_series(rng, n, trunc, share) for share in shares]:
        out = hat(f)
        assert out == substitute(f, images)
        assert hat(out) == f
        assert bar(f) == tilde(out)


def test_hat_of_a_sparse_series_past_the_float_range_of_n_to_the_truncation():
    # one word per length up to 1030: past length 1, every X_d(s) but X_0(s) is empty
    assert hat(var(2, 1030, 1)) == S(2, 1030, {(1,) * s: (-1) ** s for s in range(1, 1031)})


@pytest.mark.parametrize("genera, degree, seed", [([1, 1], 7, 1), ([1, 1], 7, 2),
                                                  ([1, 1, 1], 5, 1), ([1, 1, 1], 5, 2)],
                         ids=["11-d7-s1", "11-d7-s2", "111-d5-s1", "111-d5-s2"])
def test_hat_of_chi_at_the_duality_shapes(genera, degree, seed):
    A = random_seifert(seed, genera, 2)
    images = [bar_variable(A.n, degree, i) for i in range(1, A.n + 1)]
    cphi, cdelta = chi_phi(A, degree), chi_delta(A, degree)
    for f in (cphi, cdelta):
        out = hat(f)
        assert out == substitute(f, images)
        assert hat(out) == f
    assert cphi == -bar(cphi)
    assert cyclic_reduce(cdelta) == cyclic_reduce(bar(cdelta))


def assert_hat_and_one_minus_z_match_ring_products(f):
    for mine, oracle in ((hat(f), hat_by_ring_products(f)),
                         (transform(f, "z_to_one_minus_z"), one_minus_z_by_ring_products(f))):
        assert (mine.num, mine.den, mine.trunc) == (oracle.num, oracle.den, oracle.trunc)


@pytest.mark.parametrize("f", [
    # z-heavy words longer than xtrunc: z never doubles, x doubles up to xtrunc
    BiSeries(2, {"zzzzxzzzz": 1, "zxzzzzzzzx": Fraction(-3, 7), "zzzzzzz": 2, "xzzzzzx": 5}),
    BiSeries(3, {"zzxzzzzzxzzzz": Fraction(1, 2), "xzzzzzzzz": -1, "zzzzzzzzzzzx": 4}),
    # xtrunc 0: only words without x, which hat fixes
    BiSeries(0, {"": 3, "z": -1, "zzz": Fraction(2, 5), "zxz": 7}),
], ids=["z-heavy-xtrunc-2", "z-heavy-xtrunc-3", "xtrunc-0"])
def test_hat_and_one_minus_z_of_long_z_words_match_ring_products(f):
    assert_hat_and_one_minus_z_match_ring_products(f)
    assert hat(hat(f)) == f
    assert transform(transform(f, "z_to_one_minus_z"), "z_to_one_minus_z") == f


def test_hat_and_one_minus_z_of_random_bi_series_match_ring_products():
    rng = random.Random(1200)
    most_z = 0
    for _ in range(400):
        xtrunc = rng.randint(0, 4)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            letters = ["x"] * rng.randint(0, xtrunc) + ["z"] * rng.randint(0, 4)
            rng.shuffle(letters)
            terms["".join(letters)] = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
        f = BiSeries(xtrunc, terms)
        most_z = max([most_z] + [w.count("z") for w in f.num])
        assert_hat_and_one_minus_z_match_ring_products(f)
    assert most_z >= 3


def z_heavy_bi_series(rng, xtrunc):
    """Words with xtrunc or xtrunc - 1 x's, after a run of 0-4 z's and each
    before a run of 0-2 z's."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        word = "z" * rng.randint(0, 4)
        for _ in range(max(0, xtrunc - rng.randint(0, 1))):
            word += "x" + "z" * rng.randint(0, 2)
        terms[word] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 12))
    return BiSeries(xtrunc, terms)


@pytest.mark.parametrize("trunc", range(8))
def test_maps_return_no_key_past_the_truncation(trunc):
    # Series._same trusts its caller to drop keys of grade above trunc
    rng = random.Random(1300 + trunc)
    kinds = ("tilde", "hat", "bar")
    nc = [random_runs_series(rng, n, trunc) for n in (1, 2, 3, 4) for _ in range(4)]
    bi = [random_bi_series(rng, trunc)] + [z_heavy_bi_series(rng, trunc) for _ in range(6)]
    outs = [op(f) for f in nc + bi for op in (hat, bar, tilde)]
    outs += [op(f) for f in nc for op in (cyclic_reduce, abelianize)]
    outs += [transform(f, kind) for f in nc for kind in kinds]
    outs += [transform(f, kind) for f in bi for kind in kinds + ("z_to_one_minus_z",)]
    for out in outs:
        assert max(map(out._grade, out.num), default=0) <= out.trunc == trunc


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


@pytest.fixture
def cold_rotations():
    """An empty rotation table before and after the test."""
    ncalg._LEAST.clear()
    yield ncalg._LEAST
    ncalg._LEAST.clear()


def test_cyclic_reduce_with_a_kept_rotation_table_in_any_call_order(cold_rotations):
    rng = random.Random(31)
    cases = [random_nc_series(rng, rng.randint(1, 3), rng.randint(0, 8)) for _ in range(200)]
    for order in (cases, cases[::-1]):
        cold_rotations.clear()
        for f in order:
            assert cyclic_reduce(f).terms == CyclicSeries(f.n, f.trunc, f.terms).terms
    assert cold_rotations and all(minimal_rotation(w) == k for w, k in cold_rotations.items())


def test_rotation_table_is_emptied_above_its_cap(cold_rotations, monkeypatch):
    monkeypatch.setattr(ncalg, "_LEAST_CAP", 10)
    small = S(2, 3, {(1, 2): 1, (2, 1): 3})  # 2 rotations of one class
    wide = S(2, 4, {w: i + 1 for i, w in enumerate(itertools.product((1, 2), repeat=4))})
    assert cyclic_reduce(small) == CyclicSeries(2, 3, {(1, 2): 4})
    assert len(cold_rotations) == 2
    for _ in range(2):
        assert cyclic_reduce(wide).terms == CyclicSeries(2, 4, wide.terms).terms
        assert len(cold_rotations) <= 10
    assert cyclic_reduce(small) == CyclicSeries(2, 3, {(1, 2): 4})


@pytest.mark.parametrize(
    "f",
    [CommSeries(2, 3, {(2, 0): 1, (0, 2): 1, (1, 1): 3}), BiSeries(3, {"xzx": 1, "zxx": 2})],
    ids=["comm", "bi"],
)
@pytest.mark.parametrize("op", [cyclic_reduce, abelianize], ids=["cyclic_reduce", "abelianize"])
def test_cyclic_reduce_and_abelianize_reject_other_series_types(f, op, cold_rotations):
    with pytest.raises(TypeError, match="%s acts on NCSeries, not %s" % (
            op.__name__, type(f).__name__)):
        op(f)
    assert not cold_rotations


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
        assert transform(transform(f, kind), kind) == f
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


def _stores(f):
    """f's numerators by length: a list over all n^L words in ``product`` order
    where the length holds at least a quarter of them, else a dict by word
    index (the word's letters minus 1 as base-n digits, the first letter the
    most significant), in the order of ``f.num``."""
    by_length = {}
    for w, v in f.num.items():
        by_length.setdefault(len(w), {})[w] = v
    return {L: [words.get(w, 0) for w in itertools.product(range(1, f.n + 1), repeat=L)]
            if 4 * len(words) >= f.n**L
            else {sum((a - 1) * f.n ** (L - 1 - p) for p, a in enumerate(w)): v
                  for w, v in words.items()}
            for L, words in by_length.items()}


@settings(max_examples=150, deadline=None)
@given(dense_and_sparse_series())
def test_ordered_text_matches_the_sorted_text(f):
    assert ncalg.store_lines(f.n, f.den, _stores(f)) == Series.to_lines(f)
    assert ncalg.store_lines(f.n, 1, {}) == []


def test_letters_from_x10_up_print_in_integer_order():
    # stored, length 1 holds 4 of its 11 words and is a list; length 2, 3 of 121, a dict
    f = S(11, 3, {(10,): 1, (9,): 2, (11,): -1, (1,): 5, (2, 10): Fraction(1, 2),
                  (10, 2): 3, (9, 11): 1, (): 7})
    assert f.to_lines() == [
        "7 * 1", "5 * x1", "2 * x9", "1 * x10", "-1 * x11",
        "1/2 * x2.x10", "1 * x9.x11", "3 * x10.x2",
    ]
    assert ncalg.store_lines(11, f.den, _stores(f)) == f.to_lines()
    every = S(11, 2, {(i, j): i - j or 1 for i in range(1, 12) for j in range(1, 12)})
    lines = every.to_lines()
    assert lines[:3] == ["1 * x1.x1", "-1 * x1.x2", "-2 * x1.x3"]
    assert lines[9:12] == ["-9 * x1.x10", "-10 * x1.x11", "1 * x2.x1"]
    assert lines[-2:] == ["1 * x11.x10", "1 * x11.x11"]
    assert lines == Series.to_lines(every) == ncalg.store_lines(11, 1, _stores(every))
    # a store by index prints nothing for a zero value, which a trace store can hold
    assert ncalg.store_lines(11, 2, {2: {14: 0, 3: 1}, 0: {0: 4}}) == ["2 * 1", "1/2 * x1.x4"]
