"""Every map beyond ring arithmetic returns integer numerators over one
denominator in lowest terms, and its ``terms`` view equals a reference
computed coefficient by coefficient in ``Fraction``s."""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from helpers import assert_lowest_terms, exp_by_fractions, mul_by_fractions, trefoil
from linkchi import invariants, ncalg, seifert
from linkchi.commalg import CommMatrix, CommSeries, unit_power
from linkchi.genfun import BiSeries
from linkchi.ncalg import NCSeries

# small values and coprime denominators far beyond them
COEFF = st.one_of(st.fractions(min_value=-3, max_value=3, max_denominator=4),
                  st.sampled_from([Fraction(1, 7919), Fraction(-2, 7907), Fraction(5, 6)]))


@st.composite
def nc_series(draw):
    n, trunc = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    word = st.lists(st.integers(1, n), max_size=5).map(tuple)
    return NCSeries(n, trunc, draw(st.dictionaries(word, COEFF, max_size=6)))


@st.composite
def bi_series(draw, xtrunc=None):
    xtrunc = draw(st.integers(0, 4)) if xtrunc is None else xtrunc
    return BiSeries(xtrunc, draw(st.dictionaries(st.text("xz", max_size=6), COEFF, max_size=6)))


@st.composite
def comm_series(draw, n, trunc, positive=False):
    expo = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    terms = draw(st.dictionaries(expo, COEFF, max_size=4))
    return CommSeries(n, trunc, {e: c for e, c in terms.items() if sum(e) or not positive})


def add_into(out, key, c):
    out[key] = out.get(key, 0) + c


def hat_by_fractions(f):
    """hat(f) letter by letter: a letter x of grade 1 becomes sum_j (-1)^j x^j."""
    grade, out = f._grade, {}
    for word, c in f.terms.items():
        parts = {word[:0]: c}
        for t in range(len(word)):
            letter, rest = word[t : t + 1], grade(word[t + 1 :])
            images = [(letter * j, (-1) ** j) for j in range(1, f.trunc + 1)] if grade(letter) \
                else [(letter, 1)]
            step = {}
            for w, v in parts.items():
                for image, sign in images:
                    if grade(w) + grade(image) + rest <= f.trunc:
                        add_into(step, w + image, v * sign)
            parts = step
        for w, v in parts.items():
            add_into(out, w, v)
    return out


@settings(max_examples=150, deadline=None)
@given(st.one_of(nc_series(), bi_series()))
def test_involutions_match_fractions(f):
    assert_lowest_terms(ncalg.tilde(f), {w[::-1]: c for w, c in f.terms.items()})
    hat = ncalg.hat(f)
    assert_lowest_terms(hat, hat_by_fractions(f))
    assert ncalg.hat(hat) == f
    assert_lowest_terms(ncalg.bar(f), {w[::-1]: c for w, c in hat.terms.items()})


@settings(max_examples=150, deadline=None)
@given(nc_series())
def test_cyclic_and_abelian_maps_match_fractions(f):
    cyclic, abelian = {}, {}
    for w, c in f.terms.items():
        add_into(cyclic, min((w + w)[r : r + len(w)] for r in range(len(w))) if w else w, c)
        add_into(abelian, tuple(w.count(i) for i in range(1, f.n + 1)), c)
    assert_lowest_terms(ncalg.cyclic_reduce(f), cyclic)
    assert ncalg.cyclic_reduce(f) == ncalg.CyclicSeries(f.n, f.trunc, f.terms)
    assert_lowest_terms(ncalg.abelianize(f), abelian)


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(
    st.just(n), comm_series(n, 4, positive=True),
    st.lists(comm_series(n, 4), min_size=4, max_size=4),
    st.lists(comm_series(n, 3), min_size=4, max_size=4))))
def test_exp_and_matrix_maps_match_fractions(args):
    _, u, left, right = args
    assert_lowest_terms(unit_power(exp_by_fractions(u), 2), exp_by_fractions(u.scale(2)).terms)
    A = CommMatrix([left[:2], left[2:]])
    B = CommMatrix([right[:2], right[2:]])
    product = A * B
    for r in range(2):
        for c in range(2):
            want = {}
            for j in range(2):
                for e, v in mul_by_fractions(A.rows[r][j], B.rows[j][c]).terms.items():
                    add_into(want, e, v)
            assert_lowest_terms(product.rows[r][c], want)
    trace = {}
    for entry in left[0], left[3]:
        for e, v in entry.terms.items():
            add_into(trace, e, v)
    assert_lowest_terms(A.trace(), trace)


MATRICES = [trefoil(), seifert.random_seifert_rng(random.Random(5), [1, 1], 2),
            seifert.random_seifert_rng(random.Random(7), [1, 0, 1], 2)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(MATRICES), st.integers(1, 4).flatmap(
    lambda d: st.tuples(st.just(d), bi_series(d))))
def test_trace_at_matches_fraction_weighted_monomial_traces(A, args):
    degree, f = args
    want = {}
    for word, c in f.terms.items():
        for w, v in invariants.tr_monomial(word, A, degree).terms.items():
            add_into(want, w, c * v)
    got = invariants.trace_at(f, A.structure, seifert.z_matrix(A), degree)
    assert_lowest_terms(got, want)
    assert got == invariants.tr_series(f, A, degree)
