"""Shared fixtures and independent oracle helpers for the test suite.

The univariate helpers implement dense truncated series over Fraction as
plain coefficient lists.  They deliberately share no code with the package
so they can serve as independent oracles for single-variable values.
"""

from fractions import Fraction

from linkchi import commalg, seifert, seifert_matrix
from linkchi.commalg import CommMatrix, CommSeries
from linkchi.genfun import BiSeries


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
        comp = st.component_of(r)
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


def hat_by_ring_products(f):
    """hat(f) by multiplying letter images: x -> sum_j (-1)^j x^j, z -> z."""
    t = f.xtrunc
    image = {"x": BiSeries(t, {"x" * j: (-1) ** j for j in range(1, t + 1)}),
             "z": BiSeries(t, {"z": 1})}
    out = BiSeries.zero(t)
    for word, coeff in f.terms.items():
        part = BiSeries.one(t)
        for letter in word:
            part = part * image[letter]
        out = out + part.scale(coeff)
    return out
