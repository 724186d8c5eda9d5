"""Acceptance suite: one test per criterion, exact equality throughout.

The two timed criteria assert their wall-clock budgets.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion pass lines.
"""

import random
import time
from fractions import Fraction

from helpers import (
    comm_coeffs_1var,
    figure_eight,
    reflection_example,
    shift_variables,
    stabilized_unknot,
    trefoil,
    u_log,
)
from linkchi import commalg, invariants, ncalg
from linkchi.commalg import CommMatrix, CommSeries
from linkchi.genfun import delta_series, monomial, transform
from linkchi.invariants import (
    chi,
    chi_delta,
    chi_phi,
    torsion_polynomial,
    tr_monomial,
    tr_series,
    trace_at,
    reconstruct_trace,
)
from linkchi.seifert import (
    balanced_patterns,
    direct_sum,
    i_half,
    random_move_rng,
    random_seifert_rng,
    reflect,
)


def report(number, label, started):
    print("criterion %d (%s): PASS in %.2fs" % (number, label, time.monotonic() - started))


def random_matrix(rng, max_n=3, max_genus=2, bound=3):
    n = rng.randint(1, max_n)
    genera = [rng.randint(0, max_genus) for _ in range(n)]
    if not any(genera):
        genera[rng.randrange(n)] = 1
    return random_seifert_rng(rng, genera, bound)


def random_word(rng, max_xdeg, max_zdeg=4):
    xdeg = rng.randint(1, max_xdeg)
    letters = ["x"] * xdeg + ["z"] * rng.randint(0, max_zdeg)
    rng.shuffle(letters)
    return "".join(letters)


def test_criterion_1_reflection_golden_coefficients():
    started = time.monotonic()
    A = reflection_example()
    out = tr_monomial("xzxzxzx", A, 4)
    assert out.coefficient((1, 2, 3, 1)) == 2
    assert out.coefficient((1, 3, 2, 1)) == -2
    # the independent matrix-substitution route agrees
    assert tr_series(monomial("xzxzxzx", 4), A, 4) == out
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, "took %.2fs, budget 1s" % elapsed
    report(1, "reflection example coefficients +2/-2", started)


def test_criterion_2_s_equivalence_invariance():
    started = time.monotonic()
    rng = random.Random(20211019)
    for _ in range(50):
        A = random_matrix(rng)
        B = A
        for _ in range(5):
            B = random_move_rng(rng, B)
        assert chi_delta(A, 5) == chi_delta(B, 5)
        assert chi_phi(A, 5) == chi_phi(B, 5)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, "took %.2fs, budget 60s" % elapsed
    report(2, "chi invariant under 50x5 random moves", started)


def test_criterion_3_abelianization_identity():
    started = time.monotonic()
    degree = 6

    def check(A):
        lhs = ncalg.abelianize(chi_delta(A, degree))
        rhs = commalg.log_unit(torsion_polynomial(A, degree))
        assert lhs == rhs
        return lhs

    tref = check(trefoil())
    # frozen oracle: log((1 + x + x^2) / (1 + x)) to degree 6
    expected = [
        a - b
        for a, b in zip(u_log([1, 1, 1], degree), u_log([1, 1], degree))
    ]
    assert comm_coeffs_1var(tref, degree) == expected
    assert expected[2:5] == [Fraction(1), Fraction(-1), Fraction(1, 2)]
    check(figure_eight())
    rng = random.Random(321)
    for _ in range(20):
        check(random_matrix(rng, max_genus=1, bound=2))
    report(3, "abelianized chi_delta equals log of torsion", started)


def test_criterion_4_duality_suite():
    started = time.monotonic()
    degree = 5
    rng = random.Random(4242)
    for _ in range(20):
        A = random_matrix(rng, max_genus=1, bound=2)
        cphi = chi_phi(A, degree)
        assert cphi == -ncalg.bar(cphi)
        cdelta = chi_delta(A, degree)
        assert ncalg.cyclic_reduce(cdelta) == ncalg.cyclic_reduce(ncalg.bar(cdelta))
        f = monomial(random_word(rng, degree), degree)
        dual = transform(transform(f, "tilde"), "z_to_one_minus_z")
        assert ncalg.tilde(chi(f, A, degree)) == chi(dual, A, degree)
    report(4, "phi self-duality, cyclic duality, tilde duality", started)


def test_criterion_5_oracle_equivalence():
    started = time.monotonic()
    degree = 5
    rng = random.Random(555)
    matrices = [random_matrix(rng, max_genus=1, bound=2) for _ in range(10)]
    words = [random_word(rng, degree) for _ in range(30)]
    for word in words:
        f = monomial(word, degree)
        for A in matrices:
            symbolic = tr_series(f, A, degree)
            assert symbolic == tr_monomial(word, A, degree)
            assert symbolic == reconstruct_trace(word, A, degree)
    report(5, "symbolic = block formula = reconstruction, 30x10", started)


def test_criterion_6_commutative_lemma_suite():
    started = time.monotonic()
    trunc = 5
    rng = random.Random(666)

    def random_unit(size):
        rows = []
        for r in range(size):
            row = []
            for c in range(size):
                entry = (
                    CommSeries.one(2, trunc) if r == c else CommSeries.zero(2, trunc)
                )
                for _ in range(rng.randint(1, 3)):
                    expo = [0, 0]
                    for _ in range(rng.randint(1, trunc)):
                        expo[rng.randrange(2)] += 1
                    entry = entry + CommSeries(
                        2, trunc, {tuple(expo): Fraction(rng.randint(-3, 3))}
                    )
                row.append(entry)
            rows.append(row)
        return CommMatrix(rows)

    matrices = [random_unit(rng.randint(1, 4)) for _ in range(50)]
    for M in matrices:
        assert commalg.log_unit(commalg.det_unit(M)) == commalg.trlog(M)
        low, up = commalg.lu_decompose(M)
        assert low * up == M
    for a, b in zip(matrices[::2], matrices[1::2]):
        if a.size != b.size:
            continue
        assert commalg.trlog(a * b) == commalg.trlog(a) + commalg.trlog(b)
    paired = sum(1 for a, b in zip(matrices[::2], matrices[1::2]) if a.size == b.size)
    assert paired >= 5
    report(6, "tr log additivity, log det = tr log, LU on 50 matrices", started)


def test_criterion_7_edge_cases():
    started = time.monotonic()
    degree = 5
    unknot = stabilized_unknot()
    assert chi_delta(unknot, degree).is_zero()
    assert chi_phi(unknot, degree).is_zero()
    rng = random.Random(777)
    for d in range(1, degree + 1):
        A = random_matrix(rng, max_genus=2, bound=2)
        assert chi(monomial("x" * d, degree), A, degree).is_zero()
    for _ in range(5):
        A = random_matrix(rng, max_genus=2, bound=2)
        f, st = delta_series(degree), A.structure
        base = chi(f, A, degree)
        count = 0
        for pattern in balanced_patterns(st):
            # tr f(X, H) straight from the explicit H of this pattern
            assert tr_series(f, A, degree) - trace_at(f, st, i_half(st, pattern), degree) == base
            count += 1
        assert count >= 1
    refl = reflection_example()
    for _ in range(5):
        word = random_word(rng, degree)
        f = monomial(word, degree)
        lhs = chi(f, reflect(refl), degree)
        rhs = ncalg.tilde(chi(transform(f, "tilde"), refl, degree))
        assert lhs == rhs
    assert chi_phi(reflect(refl), 4) != chi_phi(refl, 4)
    report(7, "unknot/pure-x vanishing, patterns, reflection", started)


def test_criterion_8_direct_sum_additivity():
    started = time.monotonic()
    degree = 5
    rng = random.Random(888)
    for _ in range(8):
        A = random_matrix(rng, max_genus=1, bound=2)
        B = random_matrix(rng, max_genus=1, bound=2)
        total = direct_sum(A, B)
        lhs = chi_delta(total, degree)
        rhs = shift_variables(
            chi_delta(A, degree), 0, total.n
        ) + shift_variables(chi_delta(B, degree), A.n, total.n)
        assert lhs == rhs
    report(8, "chi_delta additive over direct sums", started)
