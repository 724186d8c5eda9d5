"""Results of series operations are clean without passing the public constructor:
integer numerators over one denominator in lowest terms, equal to the
Fraction reference."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    assert_lowest_terms,
    from_univariate,
    mul_by_fractions,
    power_series_by_fractions,
    sorted_terms,
)
from linkchi import genfun
from linkchi.commalg import CommSeries
from linkchi.genfun import BiSeries
from linkchi.ncalg import CyclicSeries, NCSeries

GRADE = {NCSeries: len, CommSeries: sum, BiSeries: lambda w: w.count("x")}


def make(s, terms):
    """A series of the type and shape of ``s`` through the public constructor."""
    if isinstance(s, BiSeries):
        return BiSeries(s.trunc, terms)
    return type(s)(s.n, s.trunc, terms)


def assert_clean(s, want=None):
    assert_lowest_terms(s, want)
    again = make(s, s.terms)
    assert again.terms == s.terms and again.trunc == s.trunc


SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=3)
# coprime denominators far beyond the small ones, and their product
WIDE = st.one_of(SMALL, st.sampled_from(
    [Fraction(1, 7919), Fraction(-2, 7907), Fraction(7907, 7919), Fraction(3, 7919 * 7907)]))


@st.composite
def operands(draw, coeff=SMALL):
    """Two series of one type and n, each with its own truncation, the second
    cancelling some terms of the first; a scalar and an exponent."""
    kind = draw(st.sampled_from([NCSeries, CommSeries, BiSeries]))
    n = 2 if kind is BiSeries else draw(st.integers(1, 3))
    if kind is NCSeries:
        key = st.lists(st.integers(1, n), max_size=5).map(tuple)
    elif kind is CommSeries:
        key = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    else:
        key = st.text("xz", max_size=5)

    def build(trunc, terms):
        return BiSeries(trunc, terms) if kind is BiSeries else kind(n, trunc, terms)

    a_terms = draw(st.dictionaries(key, coeff, max_size=5))
    b_terms = draw(st.dictionaries(key, coeff, max_size=5))
    for k, c in a_terms.items():
        if draw(st.booleans()):
            b_terms[k] = -c
    a = build(draw(st.integers(0, 4)), a_terms)
    b = build(draw(st.integers(0, 4)), b_terms)
    return a, b, draw(coeff), draw(st.integers(0, 3))


def positive_part(a):
    grade = GRADE[type(a)]
    return make(a, {key: c for key, c in a.terms.items() if grade(key) > 0})


def log_coeffs(trunc):
    return [0] + [Fraction((-1) ** (k + 1), k) for k in range(1, trunc + 1)]


def assert_same(s, t):
    assert_clean(s)
    assert type(s) is type(t) and s.trunc == t.trunc and s.terms == t.terms


@settings(max_examples=150, deadline=None)
@given(operands())
def test_operation_results_are_clean(ops):
    a, b, q, k = ops
    u = positive_part(a)
    results = [a * b, b * a, a ** k, u.geometric(), u.log1p()]
    for r in results:
        assert_clean(r)
    t = min(a.trunc, b.trunc)
    low = {key: c for key, c in a.terms.items() if GRADE[type(a)](key) <= t}
    plus, minus = dict(low), dict(low)
    for key, c in b.terms.items():
        if GRADE[type(b)](key) <= t:
            plus[key] = plus.get(key, 0) + c
            minus[key] = minus.get(key, 0) - c
    assert_clean(a.truncated(t), low)
    assert_clean(a + b, plus)
    assert_clean(a - b, minus)
    assert_clean(b - a, {key: -c for key, c in minus.items()})
    assert_clean(-a, {key: -c for key, c in a.terms.items()})
    for r in a.scale(q), q * a, a * q:
        assert_clean(r, {key: c * q for key, c in a.terms.items()})
    assert (a + b).trunc == (a * b).trunc == min(a.trunc, b.trunc)
    one = a ** 0
    assert u.geometric() * (one - u) == one
    assert (one - u).inverse() == u.geometric()
    assert (one + u).inverse() * (one + u) == one == (one + u) * (one + u).inverse()


def test_terms_print_by_grade_then_key():
    nc = NCSeries(12, 3, {(2, 1): 1, (1,): Fraction(1, 2), (10,): -1, (1, 1, 1): 3, (): 2})
    assert nc.to_lines() == ["2 * 1", "1/2 * x1", "-1 * x10", "1 * x2.x1", "3 * x1.x1.x1"]
    # words over xz print by length, not by x-degree
    bi = BiSeries(3, {"zzx": 1, "xx": 2, "x": 3, "zxz": 4, "": 5})
    assert bi.to_lines() == ["5 * 1", "3 * x", "2 * x.x", "4 * z.x.z", "1 * z.z.x"]
    comm = CommSeries(2, 3, {(0, 2): 1, (1, 0): 2, (2, 1): 3, (0, 1): 4, (1, 1): 5})
    assert [k for k, _ in sorted_terms(comm)] == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 1)]
    assert comm.to_triples()[0] == (4, 1, [0, 1])


@given(operands())
@settings(max_examples=100, deadline=None)
def test_terms_sort_by_grade_then_key(ops):
    a = ops[0]
    order = len if isinstance(a, BiSeries) else GRADE[type(a)]
    expected = sorted(a.terms.items(), key=lambda kv: (order(kv[0]), kv[0]))
    assert sorted_terms(a) == expected


@settings(max_examples=200, deadline=None)
@given(operands(WIDE))
def test_integer_products_match_fraction_loops(ops):
    a, b, _, _ = ops
    assert_same(a * b, mul_by_fractions(a, b))
    assert_same(b * a, mul_by_fractions(b, a))
    for u in positive_part(a), positive_part(b):
        assert_same(u.geometric(), power_series_by_fractions(u, [1] * (u.trunc + 1)))
        assert_same(u.log1p(), power_series_by_fractions(u, log_coeffs(u.trunc)))


P, Q = Fraction(1, 7919), Fraction(1, 7907)


def test_products_over_coprime_denominators():
    x = NCSeries(1, 3, {(): Q, (1,): P})
    y = NCSeries(1, 2, {(1,): Q, (1, 1): P})
    assert_same(x * y, NCSeries(1, 2, {(1,): Q * Q, (1, 1): 2 * P * Q}))
    u = CommSeries(2, 3, {(1, 0): P, (0, 1): Q})
    assert u.log1p().terms == {
        (1, 0): P, (0, 1): Q, (2, 0): -P * P / 2, (1, 1): -P * Q, (0, 2): -Q * Q / 2,
        (3, 0): P ** 3 / 3, (2, 1): P * P * Q, (1, 2): P * Q * Q, (0, 3): Q ** 3 / 3}
    # z runs are of grade 0 inside words of positive x-degree
    v = BiSeries(2, {"zzx": P, "xz": Q})
    assert v.geometric().terms == {
        "": 1, "zzx": P, "xz": Q, "zzxzzx": P * P, "zzxxz": P * Q, "xzzzx": Q * P, "xzxz": Q * Q}
    for s in x, y, u, v, positive_part(x):
        for t in s, s.truncated(1), s.truncated(0):
            assert_same(s * t, mul_by_fractions(s, t))


@pytest.mark.parametrize("kind, shape", [(NCSeries, (2,)), (CommSeries, (2,)), (BiSeries, ())])
def test_products_at_trunc_zero_and_of_empty_series(kind, shape):
    one = kind.one(*shape, 3)
    empty = kind.zero(*shape, 4)
    assert_same(one.scale(P) * kind.one(*shape, 0).scale(Q), kind.one(*shape, 0).scale(P * Q))
    assert_same(one * empty, kind.zero(*shape, 3))
    assert_same(empty * empty, empty)
    assert_same(empty.geometric(), kind.one(*shape, 4))
    assert_same(empty.log1p(), empty)
    assert_same(kind.zero(*shape, 0).geometric(), kind.one(*shape, 0))


@pytest.mark.parametrize("u", [
    NCSeries(1, 3, {(): Fraction(1, 2)}),
    NCSeries(2, 3, {(): 1, (1,): 1}),
    CommSeries(1, 2, {(0,): 3, (1,): 1}),
    BiSeries(2, {"z": 1}),
    BiSeries(2, {"zz": Fraction(1, 3), "x": 1}),
])
def test_power_series_reject_a_term_of_grade_zero(u):
    with pytest.raises(ValueError):
        u.geometric()
    with pytest.raises(ValueError):
        u.log1p()


@pytest.mark.parametrize("f", [
    NCSeries(2, 3, {(1,): 1}),
    NCSeries(1, 3, {(): 2, (1,): 1}),
    CommSeries(1, 2, {(0,): Fraction(1, 2), (1,): 1}),
    BiSeries(3, {"": 1, "z": 1}),
    BiSeries(3, {"x": 1}),
])
def test_inverse_needs_a_grade_zero_part_of_one(f):
    with pytest.raises(ValueError):
        f.inverse()


@pytest.mark.parametrize("build", [
    lambda: NCSeries(2, 3, {(1.5,): 1, (1,): 2}),
    lambda: NCSeries(2, 3, {(1.0, 2): 1}),
    lambda: NCSeries(2, 3, {(True,): 1}),
    lambda: NCSeries(2, 3, {((1,),): 1}),
    lambda: NCSeries(2, 3).coefficient((2.0,)),
    lambda: CyclicSeries(2, 3, {(1, 2.0): 1}),
    lambda: CyclicSeries(2, 3, {(False, 1): 1}),
    lambda: CommSeries(2, 3, {(0.5, 0.5): 1}),
    lambda: CommSeries(2, 3, {(True, 0): 1}),
    lambda: CommSeries(2, 3, {((1,), 0): 1}),
    lambda: BiSeries(3, {("x", "z"): 1}),
    lambda: BiSeries(3, {("xz",): 1}),
], ids=["nc-float", "nc-float-int", "nc-bool", "nc-tuple", "nc-coefficient", "cyclic-float",
        "cyclic-bool", "comm-float", "comm-bool", "comm-tuple", "bi-tuple", "bi-tuple-word"])
def test_keys_of_the_wrong_type_are_rejected(build):
    # a float letter used to be kept but not printed; a tuple word was unequal to its str
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("bad", [0.1, "1/3", Decimal("0.1"), 1j, None])
def test_scalars_and_coefficients_are_int_or_fraction(bad):
    x = NCSeries.variable(1, 2, 1)
    calls = [lambda: x * bad, lambda: bad * x, lambda: x.scale(bad),
             lambda: NCSeries(1, 2, {(1,): bad}), lambda: CyclicSeries(1, 2, {(1,): bad}),
             lambda: CommSeries(1, 2, {(1,): bad}), lambda: BiSeries(2, {"x": bad}),
             lambda: genfun.monomial("xz", 2, bad), lambda: from_univariate([1, bad], 2)]
    for call in calls:
        with pytest.raises(TypeError):
            call()
    assert (x * True).terms == (x * Fraction(3, 3)).terms == {(1,): 1}


def test_constructor_sums_mixed_denominators_to_lowest_terms():
    f = NCSeries(2, 3, {(1,): Fraction(1, 6), (2,): Fraction(-3, 4), (1, 2): 2, (2, 2, 2): 0})
    assert (f.num, f.den) == ({(1,): 2, (2,): -9, (1, 2): 24}, 12)
    # rotations of one word are one key of a CyclicSeries: 1/6 + 1/3 = 1/2
    g = CyclicSeries(2, 3, {(1, 2): Fraction(1, 6), (2, 1): Fraction(1, 3), (1, 1, 2): Fraction(3, 2)})
    assert (g.num, g.den) == ({(1, 2): 1, (1, 1, 2): 3}, 2)
    # terms that cancel leave no key, and take their denominator with them
    h = CyclicSeries(2, 3, {(1, 2): Fraction(1, 6), (2, 1): Fraction(-1, 6), (1,): Fraction(5, 3)})
    assert (h.num, h.den) == ({(1,): 5}, 3)
    c = CommSeries(2, 2, {(1, 0): Fraction(1, 4), (0, 1): Fraction(1, 9), (2, 1): Fraction(1, 7)})
    assert (c.num, c.den) == ({(1, 0): 9, (0, 1): 4}, 36)
    assert CyclicSeries(2, 3, {(1, 2): Fraction(2, 5), (2, 1): Fraction(-2, 5)}).den == 1
    for s in (f, g, h, c):
        assert_clean(s)


def test_truncation_that_changes_the_gcd():
    f = NCSeries(2, 2, {(1,): Fraction(1, 2), (1, 2): Fraction(1, 3)})
    half = NCSeries(2, 1, {(1,): Fraction(1, 2)})
    assert (f.num, f.den) == ({(1,): 3, (1, 2): 2}, 6)
    assert_clean(f.truncated(1), half.terms)
    assert f.truncated(1) == half and f == half and half == f
    assert f != NCSeries(2, 2, {(1,): Fraction(1, 2)})
    assert f - half == NCSeries(2, 1)
    assert f + NCSeries(2, 1, {(1,): Fraction(-1, 2)}) == NCSeries.zero(2, 5)


@settings(max_examples=100, deadline=None)
@given(operands(WIDE))
def test_equal_values_along_different_routes(ops):
    a, b, q, _ = ops
    assert (a + b) - b == a == b + (a - b)
    assert -(-a) == a == a.scale(2).scale(Fraction(1, 2))
    if q:
        assert a.scale(q).scale(1 / q) == a
    assert make(a, {key: 3 * c for key, c in a.terms.items()}) == a + a + a
    assert a * a ** 0 == a == a ** 0 * a
