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
"""

import itertools
import random
from fractions import Fraction

import pytest

from linkchi import ncalg, seifert
from linkchi.commalg import CommSeries
from linkchi.invariants import chi_delta, chi_phi, torsion_polynomial
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
