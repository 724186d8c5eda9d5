"""Shared fixtures and independent oracle helpers for the test suite.

The univariate helpers implement dense truncated series over Fraction as
plain coefficient lists.  They deliberately share no code with the package
so they can serve as independent oracles for single-variable values.  The
``*_by_fractions`` helpers are the product, power-series, matrix-product
and exp loops with one ``Fraction`` product and sum per pair of terms: the
references for the package's integer loops.  ``invert_by_fractions`` is
Gauss-Jordan elimination in ``Fraction``s, the reference for the
fraction-free ``seifert._invert_unimodular_block``.  The constructors at
the end (a seeded random matrix, the presentation matrix, ``G(xz)``
series, the letter images of bar and variable shifts) build test inputs
and expected values; no command runs them, so they live here, not in
``linkchi``.
"""

import math
import random
from fractions import Fraction

from linkchi import commalg, seifert, seifert_matrix
from linkchi.commalg import CommMatrix, CommSeries
from linkchi.genfun import BiSeries
from linkchi.ncalg import NCSeries


def u_trim(a, t):
    out = list(a[: t + 1])
    out += [Fraction(0)] * (t + 1 - len(out))
    return [Fraction(v) for v in out]


def u_mul(a, b, t):
    a = u_trim(a, t)
    b = u_trim(b, t)
    out = [Fraction(0)] * (t + 1)
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j in range(0, t + 1 - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def u_inv(a, t):
    a = u_trim(a, t)
    assert a[0] == 1
    out = [Fraction(0)] * (t + 1)
    out[0] = Fraction(1)
    for d in range(1, t + 1):
        acc = Fraction(0)
        for k in range(1, d + 1):
            acc += a[k] * out[d - k]
        out[d] = -acc
    return out


def u_div(a, b, t):
    return u_mul(a, u_inv(b, t), t)


def u_log(a, t):
    # log of a unit series, via  log(1+u) = sum (-1)^(k+1) u^k / k
    a = u_trim(a, t)
    assert a[0] == 1
    u = [Fraction(0)] + a[1:]
    out = [Fraction(0)] * (t + 1)
    power = [Fraction(1)] + [Fraction(0)] * t
    for k in range(1, t + 1):
        power = u_mul(power, u, t)
        sign = Fraction((-1) ** (k + 1), k)
        for d in range(t + 1):
            out[d] += sign * power[d]
    return out


def series_coeffs_1var(s, t):
    """Extract the coefficient list of a one-variable NCSeries."""
    assert s.n == 1
    return [s.coefficient((1,) * d) for d in range(t + 1)]


def comm_coeffs_1var(s, t):
    assert s.n == 1
    return [s.coefficient((d,)) for d in range(t + 1)]


def torsion_by_det(A, degree):
    """Torsion series as det((I + X)^(-1/2) (I + X Z)) by Gaussian elimination.

    The oracle for ``invariants.torsion_polynomial``: it builds the matrix of
    commutative series, with the half powers taken by ``unit_power``, and
    takes its determinant with ``det_unit``.
    """
    seifert.require_valid(A)
    st = A.structure
    n = st.n
    size = st.total
    if size == 0:
        return CommSeries.one(n, degree)
    z = seifert.z_matrix(A)
    one = CommSeries.one(n, degree)
    zero = CommSeries.zero(n, degree)
    halves = {}
    for i in range(1, n + 1):
        base = one + CommSeries.variable(n, degree, i)
        halves[i] = commalg.unit_power(base, Fraction(-1, 2))
    rows = []
    for r in range(size):
        comp = component_of(st, r)
        x_r = CommSeries.variable(n, degree, comp)
        scale = halves[comp]
        row = []
        for c in range(size):
            entry = zero
            if z[r][c]:
                entry = x_r.scale(z[r][c])
            if r == c:
                entry = entry + one
            row.append(scale * entry)
        rows.append(row)
    return commalg.det_unit(CommMatrix(rows))


def trefoil():
    return seifert_matrix([2], [[-1, 1], [0, -1]])


def figure_eight():
    return seifert_matrix([2], [[1, 1], [0, -1]])


def stabilized_unknot():
    return seifert_matrix([2], [[0, 1], [0, 0]])


def reflection_example():
    """Three-component 6x6 matrix with asymmetric degree-4 coefficients."""
    m = ((0, 1), (0, 0))
    s = ((0, 1), (-1, 0))
    ms = ((0, -1), (1, 0))
    blocks = ((m, ms, ms), (s, m, ms), (s, s, m))
    rows = []
    for br in blocks:
        for r in range(2):
            row = []
            for b in br:
                row.extend(b[r])
            rows.append(row)
    return seifert_matrix([2, 2, 2], rows)


def by_letter_images(f, image):
    """f with each letter replaced by its image: every word's images multiplied
    through ``BiSeries.__mul__`` and summed by ``+``."""
    out = BiSeries.zero(f.xtrunc)
    for word, coeff in f.terms.items():
        part = BiSeries.one(f.xtrunc)
        for letter in word:
            part = part * image[letter]
        out = out + part.scale(coeff)
    return out


def hat_by_ring_products(f):
    """hat(f) by multiplying letter images: x -> sum_j (-1)^j x^j, z -> z."""
    t = f.xtrunc
    return by_letter_images(f, {"x": BiSeries(t, {"x" * j: (-1) ** j for j in range(1, t + 1)}),
                                "z": BiSeries(t, {"z": 1})})


def one_minus_z_by_ring_products(f):
    """f(x, 1 - z) by multiplying letter images: x -> x, z -> 1 - z."""
    t = f.xtrunc
    return by_letter_images(f, {"x": BiSeries(t, {"x": 1}), "z": BiSeries(t, {"": 1, "z": -1})})


def assert_lowest_terms(s, want=None):
    """``s`` holds nonzero integer numerators over ``den > 0`` with no common
    factor, of grade at most ``trunc``; its ``terms`` view reads them as
    Fractions, and equals the Fraction map ``want`` when one is given."""
    assert type(s.den) is int and s.den > 0, s.den
    assert all(type(v) is int and v for v in s.num.values()), s.num
    assert math.gcd(s.den, *s.num.values()) == 1, (s.num, s.den)
    assert all(s._grade(k) <= s.trunc for k in s.num), (s.trunc, s.num)
    terms = s.terms
    assert all(type(c) is Fraction for c in terms.values())
    assert terms == {k: Fraction(v, s.den) for k, v in s.num.items()}
    if want is not None:
        assert terms == {k: c for k, c in want.items() if c}


def same_from_fractions(s, terms, trunc):
    """A series of the type and n of ``s`` from the Fraction ``terms``, through ``_same``."""
    terms = {k: Fraction(c) for k, c in terms.items()}
    den = math.lcm(*(c.denominator for c in terms.values()))
    return s._same({k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den, trunc)


def mul_by_fractions(a, b):
    """a * b of two series of one type, one Fraction product per pair of terms."""
    trunc = min(a.trunc, b.trunc)
    terms = {}
    for ka, ca in a.terms.items():
        for kb, cb in b.terms.items():
            if a._grade(ka) + a._grade(kb) <= trunc:
                k = a._join(ka, kb)
                terms[k] = terms.get(k, 0) + ca * cb
    return same_from_fractions(a, terms, trunc)


def power_series_by_fractions(u, coeffs):
    """sum_k coeffs[k] u^k, each power a ``mul_by_fractions`` of the last."""
    out = {u._one_key(): Fraction(coeffs[0])}
    power = u._unit()
    for k in range(1, u.trunc + 1):
        power = mul_by_fractions(power, u)
        for key, c in power.terms.items():
            out[key] = out.get(key, 0) + coeffs[k] * c
    return same_from_fractions(u, out, u.trunc)


def matmul_by_fractions(A, B):
    """A B entry by entry as sums of ``mul_by_fractions`` products."""
    trunc = min(A.trunc, B.trunc)
    rows = []
    for row in A.rows:
        out_row = []
        for col in zip(*B.rows):
            acc = CommSeries.zero(A.n, trunc)
            for a, b in zip(row, col):
                acc = acc + mul_by_fractions(a, b)
            out_row.append(acc)
        rows.append(out_row)
    return CommMatrix(rows)


def exp_by_fractions(u):
    """exp(u) for zero constant term: |e| f_e = sum |e1| u_e1 f_(e - e1), in Fractions."""
    du = [[] for _ in range(u.trunc + 1)]
    for e1, c in u.terms.items():
        du[sum(e1)].append((e1, sum(e1) * c))
    f = [[((0,) * u.n, Fraction(1))]]
    for k in range(1, u.trunc + 1):
        acc = {}
        for g in range(1, k + 1):
            for e2, c2 in f[k - g]:
                for e1, c1 in du[g]:
                    e = tuple(x + y for x, y in zip(e1, e2))
                    acc[e] = acc.get(e, 0) + c1 * c2
        f.append([(e, c / k) for e, c in acc.items() if c])
    return same_from_fractions(u, {e: c for level in f for e, c in level}, u.trunc)


def invert_by_fractions(rows):
    """Inverse of an integer matrix by Gauss-Jordan in Fractions; ValueError
    when it is singular or its inverse is not integral."""
    size = len(rows)
    work = [[Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(size)]
            for r, row in enumerate(rows)]
    for c in range(size):
        if work[c][c] == 0:
            for r in range(c + 1, size):
                if work[r][c]:
                    work[c], work[r] = work[r], work[c]
                    break
            else:
                raise ValueError("singular")
        piv = work[c][c]
        work[c] = [v / piv for v in work[c]]
        for r in range(size):
            if r != c and work[r][c]:
                factor = work[r][c]
                work[r] = [a - factor * b for a, b in zip(work[r], work[c])]
    inv = [row[size:] for row in work]
    if any(v.denominator != 1 for row in inv for v in row):
        raise ValueError("inverse is not integral")
    return [[int(v) for v in row] for row in inv]


# -- test-only constructors ----------------------------------------------------


def random_seifert(seed, genera, bound):
    """``seifert.random_seifert_rng`` from a fresh ``random.Random(seed)``."""
    return seifert.random_seifert_rng(random.Random(seed), genera, bound)


def component_of(structure, index):
    """Component (1-based) owning a 0-based row/column index."""
    upto = 0
    for i, s in enumerate(structure.sizes, start=1):
        upto += s
        if index < upto:
            return i
    raise IndexError(index)


def block(A, i, j):
    """Block (i, j) of a Seifert matrix, components 1-based."""
    rows, cols = A.structure.block_range(i), A.structure.block_range(j)
    return tuple(tuple(A.entries[r][c] for c in cols) for r in rows)


def sorted_terms(s):
    """``(key, Fraction)`` pairs of a series in its print order."""
    terms = s.terms
    return [(k, terms[k]) for k in s._sorted_keys()]


def presentation_matrix(A, trunc):
    """The matrix X Z + I over noncommutative series.

    X is block scalar (variable x_i on block i), so row r of X Z is row r
    of Z scaled on the left by the variable of r's component.
    """
    z = seifert.z_matrix(A)
    st = A.structure
    out = []
    for r in range(A.size):
        var = component_of(st, r)
        row = []
        for c in range(A.size):
            terms = {}
            if z[r][c]:
                terms[(var,)] = Fraction(z[r][c])
            if r == c:
                terms[()] = Fraction(1)
            row.append(NCSeries(st.n, trunc, terms))
        out.append(row)
    return out


def from_univariate(coeffs, xtrunc):
    """Series G(xz) for G given by its coefficient list [G0, G1, ...]."""
    return BiSeries(xtrunc, {"xz" * k: c for k, c in enumerate(coeffs) if k <= xtrunc})


def bar_variable(n, trunc, i):
    """Expansion of -x_i (1 + x_i)^-1, the image of x_i under bar/hat."""
    return NCSeries(n, trunc, {(i,) * j: Fraction((-1) ** j) for j in range(1, trunc + 1)})


def shift_variables(f, offset, n_total):
    """Reindex x_i -> x_{i+offset} inside a ring with ``n_total`` variables."""
    if f.n + offset > n_total:
        raise ValueError("shifted letters exceed the target variable count")
    return NCSeries(n_total, f.trunc)._same(
        {tuple(i + offset for i in w): v for w, v in f.num.items()}, f.den, f.trunc)
