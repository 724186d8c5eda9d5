"""Identities between the invariants of related Seifert matrices.

Sublinks.  For a set C of components, let ``A_C`` be the principal
submatrix on C's blocks.  The intersection form ``S = A - A^T`` is
block-diagonal, so ``Z(A_C)`` is the restriction of ``Z(A)`` to those
blocks.  Hence ``chi_f(A)`` restricted to words over the letters of C, and
renumbered, is ``chi_f(A_C)``; and ``torsion(A)`` at ``x_j = 0`` for every
j outside C is ``torsion(A_C)``.

The transpose.  ``Z(A^T) = S Z^T S^-1`` and S commutes with every block
projection, so ``tr(P_v1 Z ... P_vk Z)`` of ``A^T`` is that of ``A`` on the
reversed block tuple: ``chi_delta(A^T)`` is ``tilde(chi_delta(A))``, and
``det(I + X Z)`` is the same for both, so their torsion series agree at
every degree.  ``chi_delta`` tells ``A`` from ``A^T`` exactly when it is
not invariant under word reversal.

Knots.  At n = 1 the matrix X = x I commutes with Z, so a word w of f
contributes ``x^|w|_x (tr Z^|w|_z - tr H^|w|_z)``, with ``tr H^0 = 2g`` and
``tr H^e = g`` for e >= 1.  The power sums ``tr Z^e`` follow from
``det(I + x Z) = (1 + x)^g torsion`` by Newton's identities: for a knot
every ``chi_f`` is a function of the torsion.

One table behind every f.  ``chi_delta`` gives ``T(v) = tr(P_v1 Z ... P_vk Z)``
for every block word v, and a word of f meets Z only through its letters
``P_j Z^e = P_j Z (sum_i P_i Z)^(e-1)``: so ``chi_delta`` to degree D fixes
every ``chi_f`` whose words have at most D z's (``helpers.chi_from_chi_delta``).

What chi cannot see.  ``S(-A) = -S(A)``, so ``Z(-A) = Z(A)``: no ``chi_f``
and no torsion tells ``A`` from ``-A``.  A rational block-diagonal P with
``det P_ii = +-1`` and an integral ``B = P A P^T`` give ``S_B = P S P^T``
and ``Z_B = P Z P^-1``; P commutes with every block projection, so every
trace ``tr(P_v1 Z ... P_vk Z)`` of B is that of A.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from helpers import chi_from_chi_delta, torus_knot
from linkchi import ncalg, seifert
from linkchi.commalg import CommSeries
from linkchi.genfun import BiSeries, delta_series, monomial, phi_series
from linkchi.invariants import chi, chi_delta, chi_phi, torsion_polynomial
from linkchi.ncalg import NCSeries


def sublink(A, comps):
    """The principal submatrix of ``A`` on the blocks of ``comps`` (1-based, increasing)."""
    st = A.structure
    rows = [r for i in comps for r in st.block_range(i)]
    return seifert.seifert_matrix(
        [st.sizes[i - 1] for i in comps], [[A.entries[r][c] for c in rows] for r in rows])


def restrict_words(s, comps):
    """The terms of an ``NCSeries`` over the letters ``comps``, renumbered 1, 2, ..."""
    new = {c: k for k, c in enumerate(comps, 1)}
    kept = {tuple(new[x] for x in w): v for w, v in s.num.items() if all(x in new for x in w)}
    return NCSeries(len(comps), s.trunc)._same(kept, s.den, s.trunc)


def restrict_expos(s, comps):
    """A ``CommSeries`` at ``x_j = 0`` for every j outside ``comps``, in their variables."""
    keep = [i - 1 for i in comps]
    kept = {tuple(e[i] for i in keep): v for e, v in s.num.items()
            if sum(e) == sum(e[i] for i in keep)}
    return CommSeries(len(comps), s.trunc)._same(kept, s.den, s.trunc)


@pytest.mark.parametrize("genera", [[1, 1, 1], [2, 1, 2], [1, 0, 2, 1]])
@pytest.mark.parametrize("seed", range(4))
def test_invariants_of_a_sublink_are_restrictions(genera, seed):
    A = seifert.random_seifert_rng(random.Random(seed), genera, 2)
    degree = 5
    full = [chi_delta(A, degree), chi_phi(A, degree), torsion_polynomial(A, degree)]
    nonzero = 0
    for k in range(1, len(genera)):
        for comps in itertools.combinations(range(1, len(genera) + 1), k):
            B = sublink(A, comps)
            assert not seifert.validate(B)
            sub = [chi_delta(B, degree), chi_phi(B, degree), torsion_polynomial(B, degree)]
            assert restrict_words(full[0], comps) == sub[0], comps
            assert restrict_words(full[1], comps) == sub[1], comps
            assert restrict_expos(full[2], comps) == sub[2], comps
            nonzero += not sub[0].is_zero()
    assert nonzero  # the comparisons are not all between zeros


def test_restrictions_keep_only_the_sublink_letters():
    s = NCSeries(3, 3, {(1,): 1, (1, 3): Fraction(1, 2), (2, 3): 5, (3, 3, 1): -1})
    want = NCSeries(2, 3, {(1,): 1, (1, 2): Fraction(1, 2), (2, 2, 1): -1})
    assert restrict_words(s, (1, 3)) == want
    c = CommSeries(3, 3, {(1, 0, 0): 1, (1, 0, 2): 3, (0, 1, 1): 7, (0, 0, 0): 1})
    assert restrict_expos(c, (1, 3)) == CommSeries(2, 3, {(1, 0): 1, (1, 2): 3, (0, 0): 1})


@pytest.mark.parametrize("genera", [[1, 1, 1], [1, 0, 2, 1], [2, 2], [3]])
def test_torsion_of_the_transpose_is_the_same(genera):
    A = seifert.random_seifert_rng(random.Random(0), genera, 2)
    assert torsion_polynomial(A.transpose(), 12) == torsion_polynomial(A, 12)


@pytest.mark.parametrize("genera, degree",
                         [([1, 1, 1], 6), ([2, 1], 8), ([1, 0, 2, 1], 5), ([2, 2], 7)])
@pytest.mark.parametrize("seed", range(2))
def test_chi_delta_of_the_transpose_reverses_words(genera, degree, seed):
    A = seifert.random_seifert_rng(random.Random(seed), genera, 2)
    assert chi_delta(A.transpose(), degree) == ncalg.tilde(chi_delta(A, degree))


def test_chi_delta_separates_a_three_component_matrix_from_its_transpose():
    word = (1, 2, 3)
    coeffs = []
    for seed in range(20):
        A = seifert.random_seifert_rng(random.Random(seed), [1, 1, 1], 2)
        coeffs.append((chi_delta(A, 3).coefficient(word),
                       chi_delta(A.transpose(), 3).coefficient(word)))
    assert coeffs[0] == (Fraction(2, 3), Fraction(-2, 3))
    assert [seed for seed, (a, b) in enumerate(coeffs) if a == b] == [14, 16, 17]


def test_chi_delta_of_a_two_component_matrix_and_its_transpose_first_differ_at_length_9():
    A = seifert.random_seifert_rng(random.Random(0), [2, 1], 2)
    a, b = chi_delta(A, 9), chi_delta(A.transpose(), 9)
    assert a.truncated(8) == b.truncated(8)
    differ = [w for w in sorted(set(a.num) | set(b.num), key=lambda w: (len(w), w))
              if a.coefficient(w) != b.coefficient(w)]
    assert differ[0] == (1, 1, 1, 1, 2, 1, 1, 2, 2)
    assert torsion_polynomial(A, 9) == torsion_polynomial(A.transpose(), 9)


@pytest.mark.parametrize("genera", [[1, 1, 1], [2, 1], [1, 0, 2]])
def test_minus_a_has_the_invariants_of_a(genera):
    for seed in range(10):
        A = seifert.random_seifert_rng(random.Random(seed), genera, 2)
        B = seifert.seifert_matrix(A.structure.sizes, [[-v for v in row] for row in A.entries])
        assert not seifert.validate(B)
        assert chi_delta(B, 5) == chi_delta(A, 5) and not chi_delta(A, 5).is_zero()
        assert chi_phi(B, 5) == chi_phi(A, 5)
        assert torsion_polynomial(B, 8) == torsion_polynomial(A, 8)


def test_a_rational_block_congruence_keeps_chi_and_the_torsion():
    A = seifert.random_seifert_rng(random.Random(15), [1, 1], 3)
    p = [2, Fraction(1, 2), 1, 1]  # P = diag(p), det P_11 = det P_22 = 1
    rows = [[p[r] * v * p[c] for c, v in enumerate(row)] for r, row in enumerate(A.entries)]
    assert all(v.denominator == 1 for row in rows for v in row)
    B = seifert.seifert_matrix([2, 2], [[int(v) for v in row] for row in rows])
    assert B != A and not seifert.validate(B)
    assert chi_delta(B, 6) == chi_delta(A, 6) and not chi_delta(A, 6).is_zero()
    assert chi_phi(B, 6) == chi_phi(A, 6)
    assert torsion_polynomial(B, 8) == torsion_polynomial(A, 8)


def test_chi_is_rebuilt_from_chi_delta():
    # every f holds a z-run of length 2 and one of length 3, so each reads Z^2 and Z^3
    rng = random.Random(73)
    nonzero = 0
    for _ in range(24):
        n, degree = rng.randint(2, 3), rng.randint(2, 5)
        genera = [rng.randint(0, 2) for _ in range(n - 1)] + [rng.randint(1, 2)]
        rng.shuffle(genera)
        A = seifert.random_seifert_rng(rng, genera, 2)
        terms = {}
        for e in (2, 3, rng.randint(1, 3)):
            xs = ["x" * rng.randint(0, 2), "x" * rng.randint(1, 2), "x" * rng.randint(0, 2)]
            zs = ["z" * e, "z" * rng.randint(0, 2)]
            word = xs[0] + zs[0] + xs[1] + zs[1] + xs[2]
            terms[word] = terms.get(word, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        f = BiSeries(degree, terms)
        out = chi(f, A, degree)
        assert out == chi_from_chi_delta(f, A, degree)
        nonzero += not out.is_zero()
    assert nonzero >= 18


def knot_formula(f, traces, g, degree):
    """sum_w c_w x1^|w|_x (tr Z^|w|_z - tr H^|w|_z) over the words w of f, for a
    knot of genus g with tr Z^e = traces[e]."""
    terms = {}
    for w, c in f.terms.items():
        e, key = w.count("z"), (1,) * w.count("x")
        terms[key] = terms.get(key, 0) + c * (traces[e] - (2 * g if e == 0 else g))
    return NCSeries(1, degree, terms)


def test_chi_of_a_knot_is_the_knot_formula():
    rng = random.Random(43)
    nonzero = 0
    for _ in range(40):
        g, degree = rng.randint(1, 4), rng.randint(1, 8)
        A = seifert.random_seifert_rng(rng, [g], 2)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            letters = ["x"] * rng.randint(0, degree) + ["z"] * rng.randint(0, 4)
            rng.shuffle(letters)
            word = "".join(letters)
            terms[word] = terms.get(word, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        f = BiSeries(degree, terms)
        z = seifert.z_matrix(A)
        powers = [tuple(tuple(int(r == c) for c in range(2 * g)) for r in range(2 * g))]
        for _ in range(4):
            powers.append(seifert.mat_mul(powers[-1], z))
        traces = [sum(p[r][r] for r in range(2 * g)) for p in powers]
        out = chi(f, A, degree)
        assert out == knot_formula(f, traces, g, degree)
        nonzero += not out.is_zero()
    assert nonzero >= 30


def torus_knot_power_sums(g, top):
    """tr Z^e for e <= top at T(2, 2g+1), with no Z: by Newton's identities
    p_e = (-1)^(e-1) (e c_e - sum_{i<e} (-1)^(i-1) c_(e-i) p_i) from the coefficients
    c_j of det(I + x Z) = sum_{k=0}^{2g} (-(1 + x))^k."""
    c = [sum((-1) ** k * math.comb(k, j) for k in range(2 * g + 1)) for j in range(top + 1)]
    p = [2 * g]
    for e in range(1, top + 1):
        rest = sum((-1) ** (i - 1) * c[e - i] * p[i] for i in range(1, e))
        p.append((-1) ** (e - 1) * (e * c[e] - rest))
    return p


@pytest.mark.parametrize("g", [10, 25, 50])
def test_chi_of_torus_knots_follows_from_their_torsion(g):
    A, traces = torus_knot(g), torus_knot_power_sums(g, 10)
    f = monomial("xzzxzx", 10)
    for out, series in ((chi_delta(A, 10), delta_series(10)), (chi_phi(A, 10), phi_series(10)),
                        (chi(f, A, 10), f)):
        assert out == knot_formula(series, traces, g, 10) and not out.is_zero()
