import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import exp_by_fractions, matmul_by_fractions, u_log, u_trim
from linkchi.commalg import (
    CommMatrix,
    CommSeries,
    det_unit,
    log_unit,
    lu_decompose,
    trlog,
    unit_power,
)


def C(n, trunc, terms):
    return CommSeries(n, trunc, {e: Fraction(c) for e, c in terms.items()})


def one_var(trunc):
    return CommSeries.one(1, trunc), CommSeries.variable(1, trunc, 1)


def random_unit_matrix(rng, size, n, trunc):
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            entry = CommSeries.one(n, trunc) if r == c else CommSeries.zero(n, trunc)
            for _ in range(rng.randint(1, 3)):
                expo = [0] * n
                for _ in range(rng.randint(1, trunc)):
                    expo[rng.randrange(n)] += 1
                entry = entry + CommSeries(
                    n, trunc, {tuple(expo): Fraction(rng.randint(-3, 3))}
                )
            row.append(entry)
        rows.append(row)
    return CommMatrix(rows)


def det_by_permutations(M):
    """Independent oracle: Leibniz expansion over all permutations."""
    size = M.size
    total = CommSeries.zero(M.n, M.trunc)
    for perm in itertools.permutations(range(size)):
        sign = 1
        seen = [False] * size
        for start in range(size):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = CommSeries.one(M.n, M.trunc)
        for r in range(size):
            prod = prod * M.rows[r][perm[r]]
        total = total + prod.scale(sign)
    return total


# -- unit powers ---------------------------------------------------------------


def test_inverse_square_root_binomial():
    one, x = one_var(2)
    out = unit_power(one + x, Fraction(-1, 2))
    assert out == C(1, 2, {(0,): 1, (1,): Fraction(-1, 2), (2,): Fraction(3, 8)})


def test_integer_power_matches_multiplication():
    one, x = one_var(2)
    assert unit_power(one + x, 2) == (one + x) * (one + x)


def test_half_power_squares_back():
    rng = random.Random(5)
    for _ in range(10):
        f = CommSeries.one(2, 4)
        for _ in range(4):
            expo = (rng.randint(0, 2), rng.randint(0, 2))
            if sum(expo) == 0:
                continue
            f = f + C(2, 4, {expo: rng.randint(-3, 3)})
        root = unit_power(f, Fraction(1, 2))
        assert root * root == f


def test_unit_power_requires_unit():
    _, x = one_var(3)
    with pytest.raises(ValueError):
        unit_power(x, Fraction(1, 2))


def test_log_exp_round_trip():
    one, x = one_var(4)
    f = one + x + x * x
    assert unit_power(f, 1) == f
    assert unit_power(unit_power(f, Fraction(1, 3)), 3) == f


def random_positive_series(rng, n, trunc):
    """Up to 6 terms of grade 1..trunc with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(0, 6) if trunc else 0):
        expo = [0] * n
        for _ in range(rng.randint(1, trunc)):
            expo[rng.randrange(n)] += 1
        terms[tuple(expo)] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return CommSeries(n, trunc, terms)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_exp_recurrence_matches_power_series(n):
    """unit_power's exp, a power series, against the grading recurrence in Fractions:
    (exp u)^e = exp(e u)."""
    rng = random.Random(300 + n)
    for trunc in range(9):
        cases = [CommSeries.zero(n, trunc)] + [random_positive_series(rng, n, trunc) for _ in range(3)]
        for u in cases:
            f = exp_by_fractions(u)
            assert log_unit(f) == u
            for e in (1, -2, Fraction(1, 2)):
                power = unit_power(f, e)
                assert (power.n, power.trunc) == (n, trunc)
                assert power == exp_by_fractions(u.scale(e))
    assert unit_power(CommSeries.one(n, 4), Fraction(-1, 2)) == CommSeries.one(n, 4)


# -- determinants ---------------------------------------------------------------


def test_det_diagonal():
    one = CommSeries.one(2, 3)
    x1 = CommSeries.variable(2, 3, 1)
    x2 = CommSeries.variable(2, 3, 2)
    zero = CommSeries.zero(2, 3)
    M = CommMatrix([[one + x1, zero], [zero, one + x2]])
    assert det_unit(M) == C(2, 3, {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1})


def test_det_two_by_two():
    one, x = one_var(4)
    zero = CommSeries.zero(1, 4)
    M = CommMatrix([[one + x, x], [zero - x, one]])
    assert det_unit(M) == C(1, 4, {(0,): 1, (1,): 1, (2,): 1})


def test_det_multiplicative_against_permutation_oracle():
    rng = random.Random(11)
    for _ in range(8):
        size = rng.randint(1, 3)
        m1 = random_unit_matrix(rng, size, 2, 4)
        m2 = random_unit_matrix(rng, size, 2, 4)
        d1 = det_unit(m1)
        assert d1 == det_by_permutations(m1)
        assert det_unit(m1 * m2) == d1 * det_unit(m2)


def test_det_requires_unit_form():
    one, x = one_var(3)
    with pytest.raises(ValueError):
        det_unit(CommMatrix([[x]]))


# -- trace of log ---------------------------------------------------------------


def test_trlog_diagonal_is_scalar_log():
    one, x = one_var(4)
    M = CommMatrix([[one + x]])
    expected = u_log(u_trim([1, 1], 4), 4)
    out = trlog(M)
    assert [out.coefficient((d,)) for d in range(5)] == expected


def test_trlog_of_the_empty_matrix_is_zero():
    assert trlog(CommMatrix([])) == CommSeries.zero(0, 0)


def test_trlog_matches_log_of_determinant():
    one, x = one_var(4)
    zero = CommSeries.zero(1, 4)
    M = CommMatrix([[one + x, x], [zero - x, one]])
    out = trlog(M)
    # log(1 + x + x^2) = x + x^2/2 - 2x^3/3 + x^4/4
    assert out == C(
        1,
        4,
        {(1,): 1, (2,): Fraction(1, 2), (3,): Fraction(-2, 3), (4,): Fraction(1, 4)},
    )
    assert out == log_unit(det_unit(M))


def test_trlog_additive_under_product():
    rng = random.Random(23)
    for _ in range(8):
        size = rng.randint(1, 3)
        m1 = random_unit_matrix(rng, size, 2, 4)
        m2 = random_unit_matrix(rng, size, 2, 4)
        assert trlog(m1 * m2) == trlog(m1) + trlog(m2)


# -- LU -------------------------------------------------------------------------


def test_lu_of_identity():
    I = CommMatrix.identity(3, 1, 3)
    low, up = lu_decompose(I)
    assert low == I and up == I


def test_lu_single_step():
    one, x = one_var(4)
    zero = CommSeries.zero(1, 4)
    M = CommMatrix([[one, x], [x, one]])
    low, up = lu_decompose(M)
    assert low == CommMatrix([[one, zero], [x, one]])
    assert up == CommMatrix([[one, x], [zero, one - x * x]])


def test_lu_recombines_and_tracks_det():
    rng = random.Random(37)
    for _ in range(8):
        size = rng.randint(1, 4)
        M = random_unit_matrix(rng, size, 1, 4)
        low, up = lu_decompose(M)
        assert low * up == M
        for r in range(size):
            assert low.rows[r][r] == CommSeries.one(M.n, M.trunc)
            for c in range(r + 1, size):
                assert low.rows[r][c].is_zero()
                assert up.rows[c][r].is_zero()
        # det_unit is the product of U's diagonal; check it by Leibniz
        diag = CommSeries.one(M.n, M.trunc)
        for r in range(size):
            diag = diag * up.rows[r][r]
        assert diag == det_unit(M) == det_by_permutations(M)


# -- integer loops against their Fraction references -----------------------------

COEFF = st.one_of(
    st.fractions(min_value=-3, max_value=3, max_denominator=4),
    st.sampled_from([Fraction(1, 7919), Fraction(-1, 7907), Fraction(7919, 7907)]),
)


def comm_series(n, trunc, positive=False):
    expo = st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple)
    if positive:
        expo = expo.filter(any)
    return st.dictionaries(expo, COEFF, max_size=4).map(lambda t: CommSeries(n, trunc, t))


@st.composite
def matrix_pairs(draw):
    """Two square matrices of one size and n, each with its own truncation."""
    size, n = draw(st.integers(0, 3)), draw(st.integers(1, 2))

    def matrix(trunc):
        entry = comm_series(n, trunc)
        return CommMatrix([[draw(entry) for _ in range(size)] for _ in range(size)])

    return matrix(draw(st.integers(0, 4))), matrix(draw(st.integers(0, 4)))


@settings(max_examples=100, deadline=None)
@given(matrix_pairs())
def test_matrix_product_matches_fraction_loop(pair):
    A, B = pair
    for P, Q in (A, B), (B, A), (A, A):
        got, want = P * Q, matmul_by_fractions(P, Q)
        assert got.size == want.size and got.trunc == want.trunc
        for ra, rb in zip(got.rows, want.rows):
            assert [(a.trunc, a.terms) for a in ra] == [(b.trunc, b.terms) for b in rb]


def test_matrix_product_over_coprime_denominators():
    p, q = Fraction(1, 7919), Fraction(1, 7907)
    x = CommSeries.variable(1, 3, 1)
    M = CommMatrix([[x.scale(p), x.scale(q)], [CommSeries.one(1, 3), x.scale(p * q)]])
    square = M * M
    assert square.rows[0][1].terms == {(2,): p * q * (1 + q)}
    assert square.rows[1][0].terms == {(1,): p + p * q}
    assert (M * CommMatrix.identity(2, 1, 2)).rows == tuple(
        tuple(e.truncated(2) for e in row) for row in M.rows)


def test_matrix_product_checks_size_and_n():
    with pytest.raises(ValueError, match="size"):
        CommMatrix.identity(2, 1, 3) * CommMatrix.identity(3, 1, 3)
    with pytest.raises(ValueError, match="variable-count"):
        CommMatrix.identity(2, 1, 3) * CommMatrix.identity(2, 2, 3)
    empty = CommMatrix([])
    assert (empty * empty).size == 0


def test_matrix_difference_checks_size():
    # zip would truncate to the smaller matrix; the product raises the same error
    with pytest.raises(ValueError, match="size mismatch"):
        CommMatrix.identity(2, 1, 3) - CommMatrix.identity(1, 1, 3)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.integers(0, 6).flatmap(lambda t: comm_series(n, t, positive=True))))
def test_exp_matches_fraction_recurrence(u):
    e = Fraction(-3, 2)
    got, want = unit_power(exp_by_fractions(u), e), exp_by_fractions(u.scale(e))
    assert got.trunc == want.trunc and got.terms == want.terms


def test_exp_over_coprime_denominators():
    """exp(u) squared is exp(2 u), through log and exp over coprime denominators."""
    p, q = Fraction(1, 7919), Fraction(1, 7907)
    f = CommSeries(2, 3, {(0, 0): 1, (1, 0): p, (2, 0): p * p / 2, (3, 0): p ** 3 / 6,
                          (0, 2): q, (1, 2): p * q})
    assert unit_power(f, 2).terms == {
        (0, 0): 1, (1, 0): 2 * p, (2, 0): 2 * p * p, (3, 0): 4 * p ** 3 / 3,
        (0, 2): 2 * q, (1, 2): 4 * p * q}
