"""Results of series operations are clean without passing the public constructor."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from linkchi.commalg import CommSeries
from linkchi.genfun import BiSeries
from linkchi.ncalg import NCSeries

GRADE = {NCSeries: len, CommSeries: sum, BiSeries: lambda w: w.count("x")}


def make(s, terms):
    """A series of the type and shape of ``s`` through the public constructor."""
    if isinstance(s, BiSeries):
        return BiSeries(s.trunc, terms)
    return type(s)(s.n, s.trunc, terms)


def assert_clean(s):
    grade = GRADE[type(s)]
    for key, coeff in s.terms.items():
        assert type(coeff) is Fraction and coeff != 0, (key, coeff)
        assert grade(key) <= s.trunc, key
    again = make(s, s.terms)
    assert again.terms == s.terms and again.trunc == s.trunc


@st.composite
def operands(draw):
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
    coeff = st.fractions(min_value=-3, max_value=3, max_denominator=3)

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


@settings(max_examples=150, deadline=None)
@given(operands())
def test_operation_results_are_clean(ops):
    a, b, q, k = ops
    grade = GRADE[type(a)]
    u = make(a, {key: c for key, c in a.terms.items() if grade(key) > 0})
    results = [a + b, a - b, b - a, -a, a.scale(q), q * a, a * b, b * a, a ** k,
               u.geometric(), u.log1p()]
    for r in results:
        assert_clean(r)
    assert (a + b).trunc == (a * b).trunc == min(a.trunc, b.trunc)
    one = a ** 0
    assert u.geometric() * (one - u) == one


def test_terms_print_by_grade_then_key():
    nc = NCSeries(12, 3, {(2, 1): 1, (1,): Fraction(1, 2), (10,): -1, (1, 1, 1): 3, (): 2})
    assert nc.to_lines() == ["2 * 1", "1/2 * x1", "-1 * x10", "1 * x2.x1", "3 * x1.x1.x1"]
    # words over xz print by length, not by x-degree
    bi = BiSeries(3, {"zzx": 1, "xx": 2, "x": 3, "zxz": 4, "": 5})
    assert bi.to_lines() == ["5 * 1", "3 * x", "2 * x.x", "4 * z.x.z", "1 * z.z.x"]
    comm = CommSeries(2, 3, {(0, 2): 1, (1, 0): 2, (2, 1): 3, (0, 1): 4, (1, 1): 5})
    assert [k for k, _ in comm.sorted_terms()] == [(0, 1), (1, 0), (0, 2), (1, 1), (2, 1)]
    assert comm.to_triples()[0] == (4, 1, [0, 1])


@given(operands())
@settings(max_examples=100, deadline=None)
def test_terms_sort_by_grade_then_key(ops):
    a = ops[0]
    order = len if isinstance(a, BiSeries) else GRADE[type(a)]
    expected = sorted(a.terms.items(), key=lambda kv: (order(kv[0]), kv[0]))
    assert a.sorted_terms() == expected
