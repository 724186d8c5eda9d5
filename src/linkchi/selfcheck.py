"""Randomized property suites runnable from the command line.

A suite is a function ``suite_<name>(rng, degree)`` in ``SUITES``; it draws
its cases from ``rng`` and returns one ``(ok, message)`` pair per
exact-equality check.  ``run_selfcheck`` is the one runner: it names each
suite after its function (``suite_edge_cases`` is ``edge-cases``, the name
the benchmark reads too), seeds its generator with ``"<seed>:<name>"``, and
counts its checks and failures.  The CLI ``selfcheck`` command prints the
results and exits nonzero when any check fails.
"""

from __future__ import annotations

import collections
import math
import random
from fractions import Fraction

from . import commalg, genfun, invariants, ncalg, seifert
from .commalg import CommMatrix, CommSeries
from .ncalg import NCSeries

# a suite's name, its count of checks and the messages of those that failed, in order
SuiteResult = collections.namedtuple("SuiteResult", "name checks failures")


def random_nc_series(rng: random.Random, n: int, trunc: int) -> NCSeries:
    data = {}
    for _ in range(5):
        length = rng.randint(0, trunc)
        word = tuple(rng.randint(1, n) for _ in range(length))
        data[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return NCSeries(n, trunc, data)


def random_matrices(rng: random.Random, count: int, max_genus=2, bound=3):
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        genera = [rng.randint(0, max_genus) for _ in range(n)]
        if not any(genera):
            genera[rng.randrange(n)] = 1
        out.append(seifert.random_seifert_rng(rng, genera, bound))
    return out


def random_bi_word(rng: random.Random, degree: int) -> str:
    xdeg = rng.randint(1, degree)
    zcount = rng.randint(0, 3)
    letters = ["x"] * xdeg + ["z"] * zcount
    rng.shuffle(letters)
    return "".join(letters)


def suite_nc_ring_axioms(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    trunc = min(degree, 4)
    for case in range(25):
        n = rng.randint(1, 3)
        a = random_nc_series(rng, n, trunc)
        b = random_nc_series(rng, n, trunc)
        c = random_nc_series(rng, n, trunc)
        checks.append(((a * b) * c == a * (b * c), "associativity case %d" % case))
        checks.append((a * (b + c) == a * b + a * c, "distributivity case %d" % case))
        one = NCSeries.one(n, trunc)
        checks.append((one * a == a and a * one == a, "unit case %d" % case))
    return checks


def suite_nc_involutions(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    trunc = min(degree, 4)
    for case in range(15):
        n = rng.randint(1, 3)
        f = random_nc_series(rng, n, trunc)
        g = random_nc_series(rng, n, trunc)
        for kind, op in (("tilde", ncalg.tilde), ("bar", ncalg.bar), ("hat", ncalg.hat)):
            checks.append((op(op(f)) == f, "%s involutive case %d" % (kind, case)))
        for kind, op in (("tilde", ncalg.tilde), ("bar", ncalg.bar)):
            checks.append((
                op(f * g) == op(g) * op(f), "%s anti-morphism case %d" % (kind, case)
            ))
        checks.append((
            ncalg.hat(f * g) == ncalg.hat(f) * ncalg.hat(g),
            "hat morphism case %d" % case,
        ))
        checks.append((
            ncalg.hat(ncalg.tilde(f)) == ncalg.bar(f)
            and ncalg.tilde(ncalg.bar(f)) == ncalg.hat(f)
            and ncalg.bar(ncalg.hat(f)) == ncalg.tilde(f),
            "composition case %d" % case,
        ))
        checks.append((
            ncalg.cyclic_reduce(f * g - g * f).is_zero(),
            "cyclic commutator case %d" % case,
        ))
        checks.append((
            ncalg.abelianize(f * g) == ncalg.abelianize(f) * ncalg.abelianize(g),
            "abelianize morphism case %d" % case,
        ))
    return checks


def suite_special_inverse(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    trunc = min(degree, 4)
    one_nc = NCSeries.one
    for case in range(15):
        n = rng.randint(1, 3)
        f = random_nc_series(rng, n, trunc)
        f = f - NCSeries(n, trunc, {(): f.constant_term}) + one_nc(n, trunc)
        g = f.inverse()
        checks.append((
            f * g == one_nc(n, trunc) and g * f == one_nc(n, trunc),
            "nc inverse case %d" % case,
        ))
    for case in range(10):
        terms = {"": Fraction(1)}
        for _ in range(rng.randint(1, 4)):
            word = random_bi_word(rng, min(degree, 3))
            terms[word] = terms.get(word, Fraction(0)) + rng.randint(-2, 2)
        f = genfun.BiSeries(degree, terms)
        g = f.inverse()
        checks.append((
            f * g == genfun.BiSeries.one(degree)
            and g * f == genfun.BiSeries.one(degree),
            "extra-special inverse case %d" % case,
        ))
    return checks


def suite_comm_matrix_lemmas(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    """det, tr log and LU of M = I + X Z over ``CommSeries``, X = diag(x_block(r)).

    det M is the torsion times N = prod_i (1 + x_i)^g_i, and tr log M = log det M
    is the abelianized ``chi_delta`` plus log N.
    """
    checks = []
    trunc = min(degree, 4)
    for case, A in enumerate(random_matrices(rng, 8, max_genus=1, bound=2)):
        st, n, z = A.structure, A.n, seifert.z_matrix(A)
        unit = [tuple(int(j == i) for j in range(n)) for i in range(n)]
        letter = [unit[i] for i in range(n) for _ in st.block_range(i + 1)]
        M = CommMatrix([[CommSeries(n, trunc, {(0,) * n: int(r == c), letter[r]: z[r][c]})
                         for c in range(A.size)] for r in range(A.size)])
        norm = math.prod((CommSeries(n, trunc, {(0,) * n: 1, unit[i]: 1})
                          for i in range(n) for _ in range(st.genus(i + 1))),
                         start=CommSeries.one(n, trunc))
        checks.append((
            commalg.det_unit(M) == invariants.torsion_polynomial(A, trunc) * norm,
            "det(I + XZ) = torsion * prod (1 + x_i)^g_i case %d" % case,
        ))
        checks.append((
            commalg.trlog(M)
            == ncalg.abelianize(invariants.chi_delta(A, trunc)) + commalg.log_unit(norm),
            "tr log(I + XZ) = abelianized chi_delta + log prod (1 + x_i)^g_i case %d" % case,
        ))
        low, up = commalg.lu_decompose(M)
        checks.append((low * up == M, "LU recombination of I + XZ case %d" % case))
    return checks


def suite_seifert_core(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    for case, A in enumerate(random_matrices(rng, 12)):
        checks.append((not seifert.validate(A), "random matrix validates, case %d" % case))
        z = seifert.z_matrix(A)
        s = seifert.intersection_form(A)
        # Z + S Z' S^-1 = I in the inverse-free form Z S + S Z' = S
        zs = seifert.mat_mul(z, s)
        szt = seifert.mat_mul(s, seifert.mat_transpose(z))
        ident = tuple(
            tuple(zs[r][c] + szt[r][c] for c in range(A.size)) for r in range(A.size)
        )
        checks.append((ident == s, "Z + S Z' S^-1 = I case %d" % case))
        refl = seifert.reflect(A)
        zr = seifert.z_matrix(refl)
        expect = tuple(
            tuple((1 if r == c else 0) - z[r][c] for c in range(A.size))
            for r in range(A.size)
        )
        checks.append((zr == expect, "reflection Z identity case %d" % case))
        comp = rng.randint(1, A.n)
        variant = rng.choice("ab")
        rho = [rng.randint(-2, 2) for _ in range(A.size)]
        B = seifert.move_s2(A, comp, variant, rho)
        checks.append((not seifert.validate(B), "s2 output validates case %d" % case))
        zb = seifert.z_matrix(B)
        lo = B.structure.offset(comp) + B.structure.sizes[comp - 1] - 2
        keep = [r for r in range(B.size) if r not in (lo, lo + 1)]
        recovered = tuple(tuple(zb[r][c] for c in keep) for r in keep)
        checks.append((recovered == z, "s2 bordered recovery case %d" % case))
    return checks


def suite_s_equivalence(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    for case, A in enumerate(random_matrices(rng, 5, max_genus=1, bound=2)):
        B = A
        for _ in range(3):
            B = seifert.random_move_rng(rng, B)
        checks.append((
            invariants.chi_delta(A, degree) == invariants.chi_delta(B, degree),
            "chi_delta invariance case %d" % case,
        ))
        checks.append((
            invariants.chi_phi(A, degree) == invariants.chi_phi(B, degree),
            "chi_phi invariance case %d" % case,
        ))
        word = random_bi_word(rng, degree)
        f = genfun.monomial(word, degree)
        checks.append((
            invariants.chi(f, A, degree) == invariants.chi(f, B, degree),
            "monomial %s invariance case %d" % (word, case),
        ))
    return checks


def suite_duality(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    for case, A in enumerate(random_matrices(rng, 6, max_genus=1, bound=2)):
        cphi = invariants.chi_phi(A, degree)
        checks.append((cphi == -ncalg.bar(cphi), "chi_phi self-duality case %d" % case))
        cdelta = invariants.chi_delta(A, degree)
        checks.append((
            ncalg.cyclic_reduce(cdelta) == ncalg.cyclic_reduce(ncalg.bar(cdelta)),
            "chi_delta cyclic duality case %d" % case,
        ))
        word = random_bi_word(rng, degree)
        f = genfun.monomial(word, degree)
        chi_f = invariants.chi(f, A, degree)
        dual = genfun.transform(genfun.transform(f, "tilde"), "z_to_one_minus_z")
        checks.append((
            ncalg.tilde(chi_f) == invariants.chi(dual, A, degree),
            "tilde duality for %s case %d" % (word, case),
        ))
        checks.append((
            invariants.chi(genfun.transform(f, "hat"), A, degree) == ncalg.hat(chi_f),
            "hat duality for %s case %d" % (word, case),
        ))
    return checks


def suite_abelianization(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    # torsion's last stage pairs two equal halves only at an even degree:
    # case 0 also checks two linked genus-1 components at one
    linked = seifert.seifert_matrix(
        [2, 2], [[-1, 1, 1, 0], [0, -1, 0, 0], [1, 0, 1, -1], [0, 0, 0, 1]])
    for case, A in enumerate(random_matrices(rng, 6, max_genus=1, bound=2)):
        runs = [(A, degree)] + [(linked, degree + degree % 2)] * (case == 0)
        checks.append((
            all(ncalg.abelianize(invariants.chi_delta(B, d))
                == commalg.log_unit(invariants.torsion_polynomial(B, d)) for B, d in runs),
            "abelianized chi_delta = log torsion case %d" % case,
        ))
    return checks


def suite_oracle_agreement(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    mats = random_matrices(rng, 4, max_genus=1, bound=2)
    for case in range(12):
        word = random_bi_word(rng, degree)
        A = mats[case % len(mats)]
        symbolic = invariants.tr_series(genfun.monomial(word, degree), A, degree)
        checks.append((
            symbolic == invariants.tr_monomial(word, A, degree),
            "block formula for %s case %d" % (word, case),
        ))
        checks.append((
            symbolic == invariants.reconstruct_trace(word, A, degree),
            "reconstruction for %s case %d" % (word, case),
        ))
    return checks


def suite_edge_cases(rng: random.Random, degree: int) -> list[tuple[bool, str]]:
    checks = []
    unknot = seifert.seifert_matrix([2], [[0, 1], [0, 0]])
    checks.append((
        invariants.chi_delta(unknot, degree).is_zero()
        and invariants.chi_phi(unknot, degree).is_zero(),
        "stabilized unknot has zero invariants",
    ))
    for d in range(1, degree + 1):
        A = random_matrices(rng, 1)[0]
        f = genfun.monomial("x" * d, degree)
        checks.append((
            invariants.chi(f, A, degree).is_zero(), "pure-x monomial x^%d vanishes" % d
        ))
    for case, A in enumerate(random_matrices(rng, 3, max_genus=2, bound=2)):
        st = A.structure
        delta = genfun.delta_series(degree)
        closed = invariants.i_half_trace(delta, st, degree)
        # one match for each of the prod_i C(2 g_i, g_i) choices of H
        same = [invariants.trace_at(delta, st, H, degree) == closed for H in seifert.half_ones(st)]
        count = math.prod(math.comb(2 * g, g) for g in map(st.genus, range(1, st.n + 1)))
        checks.append((len(same) == count and all(same),
                       "half-pattern independence case %d" % case))
        word = random_bi_word(rng, degree)
        f = genfun.monomial(word, degree)
        lhs = invariants.chi(f, seifert.reflect(A), degree)
        rhs = ncalg.tilde(invariants.chi(genfun.transform(f, "tilde"), A, degree))
        checks.append((lhs == rhs, "reflection identity case %d" % case))
        corr = invariants.half_rank_correction(A.structure, degree)
        direct = invariants.i_half_trace(genfun.phi_series(degree), A.structure, degree)
        checks.append((corr == direct, "half-rank correction two routes case %d" % case))
    return checks


SUITES = (
    suite_nc_ring_axioms,
    suite_nc_involutions,
    suite_special_inverse,
    suite_comm_matrix_lemmas,
    suite_seifert_core,
    suite_s_equivalence,
    suite_duality,
    suite_abelianization,
    suite_oracle_agreement,
    suite_edge_cases,
)


def run_selfcheck(seed: int = 0, degree: int = 5) -> list[SuiteResult]:
    results = []
    for suite in SUITES:
        name = suite.__name__.removeprefix("suite_").replace("_", "-")
        checks = suite(random.Random("%d:%s" % (seed, name)), degree)
        failures = [message for ok, message in checks if not ok]
        results.append(SuiteResult(name, len(checks), failures))
    return results
