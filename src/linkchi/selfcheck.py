"""Randomized property suites runnable from the command line.

Each suite draws its own deterministic generator from the global seed,
performs a batch of exact-equality checks and reports failures as strings.
The CLI ``selfcheck`` command runs all suites and exits nonzero when any
check fails.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import commalg, genfun, invariants, ncalg, seifert
from .commalg import CommMatrix, CommSeries
from .ncalg import NCSeries


class SuiteResult:
    """A suite's name, its count of checks and the messages of those that failed."""

    __slots__ = ("name", "checks", "failures")

    def __init__(self, name: str, checks: int = 0, failures: list[str] | None = None):
        self.name = name
        self.checks = checks
        self.failures = [] if failures is None else failures

    def __repr__(self) -> str:
        return "SuiteResult(name=%r, checks=%r, failures=%r)" % (
            self.name, self.checks, self.failures)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.checks, self.failures) == (
            other.name, other.checks, other.failures)

    def record(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)

    @property
    def passed(self) -> bool:
        return not self.failures


def random_nc_series(rng: random.Random, n: int, trunc: int, terms: int = 5) -> NCSeries:
    data = {}
    for _ in range(terms):
        length = rng.randint(0, trunc)
        word = tuple(rng.randint(1, n) for _ in range(length))
        data[word] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return NCSeries(n, trunc, data)


def random_comm_unit_matrix(
    rng: random.Random, size: int, n: int, trunc: int
) -> CommMatrix:
    rows = []
    for r in range(size):
        row = []
        for c in range(size):
            entry = CommSeries.one(n, trunc) if r == c else CommSeries.zero(n, trunc)
            for _ in range(rng.randint(1, 3)):
                expo = [0] * n
                for _ in range(rng.randint(1, trunc)):
                    expo[rng.randrange(n)] += 1
                bump = CommSeries(
                    n, trunc, {tuple(expo): Fraction(rng.randint(-3, 3))}
                )
                entry = entry + bump
            row.append(entry)
        rows.append(row)
    return CommMatrix(rows)


def random_matrices(rng: random.Random, count: int, max_n=3, max_genus=2, bound=3):
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
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


def _suite_rng(seed: int, name: str) -> random.Random:
    return random.Random("%d:%s" % (seed, name))


def suite_nc_ring_axioms(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("nc-ring-axioms")
    rng = _suite_rng(seed, res.name)
    trunc = min(degree, 4)
    for case in range(25):
        n = rng.randint(1, 3)
        a = random_nc_series(rng, n, trunc)
        b = random_nc_series(rng, n, trunc)
        c = random_nc_series(rng, n, trunc)
        res.record((a * b) * c == a * (b * c), "associativity case %d" % case)
        res.record(a * (b + c) == a * b + a * c, "distributivity case %d" % case)
        one = NCSeries.one(n, trunc)
        res.record(one * a == a and a * one == a, "unit case %d" % case)
    return res


def suite_nc_involutions(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("nc-involutions")
    rng = _suite_rng(seed, res.name)
    trunc = min(degree, 4)
    for case in range(15):
        n = rng.randint(1, 3)
        f = random_nc_series(rng, n, trunc)
        g = random_nc_series(rng, n, trunc)
        for kind in ("tilde", "bar", "hat"):
            op = lambda s, k=kind: ncalg.involution(s, k)
            res.record(op(op(f)) == f, "%s involutive case %d" % (kind, case))
        for kind in ("tilde", "bar"):
            op = lambda s, k=kind: ncalg.involution(s, k)
            res.record(
                op(f * g) == op(g) * op(f), "%s anti-morphism case %d" % (kind, case)
            )
        res.record(
            ncalg.hat(f * g) == ncalg.hat(f) * ncalg.hat(g),
            "hat morphism case %d" % case,
        )
        res.record(
            ncalg.hat(ncalg.tilde(f)) == ncalg.bar(f)
            and ncalg.tilde(ncalg.bar(f)) == ncalg.hat(f)
            and ncalg.bar(ncalg.hat(f)) == ncalg.tilde(f),
            "composition case %d" % case,
        )
        res.record(
            ncalg.cyclic_reduce(f * g - g * f).is_zero(),
            "cyclic commutator case %d" % case,
        )
        res.record(
            ncalg.abelianize(f * g) == ncalg.abelianize(f) * ncalg.abelianize(g),
            "abelianize morphism case %d" % case,
        )
    return res


def suite_special_inverse(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("special-inverse")
    rng = _suite_rng(seed, res.name)
    trunc = min(degree, 4)
    one_nc = NCSeries.one
    for case in range(15):
        n = rng.randint(1, 3)
        f = random_nc_series(rng, n, trunc)
        f = f - NCSeries(n, trunc, {(): f.constant_term}) + one_nc(n, trunc)
        g = f.inverse()
        res.record(
            f * g == one_nc(n, trunc) and g * f == one_nc(n, trunc),
            "nc inverse case %d" % case,
        )
    for case in range(10):
        terms = {"": Fraction(1)}
        for _ in range(rng.randint(1, 4)):
            word = random_bi_word(rng, min(degree, 3))
            terms[word] = terms.get(word, Fraction(0)) + rng.randint(-2, 2)
        f = genfun.BiSeries(degree, terms)
        g = f.inverse()
        res.record(
            f * g == genfun.BiSeries.one(degree)
            and g * f == genfun.BiSeries.one(degree),
            "extra-special inverse case %d" % case,
        )
    return res


def suite_comm_matrix_lemmas(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("comm-matrix-lemmas")
    rng = _suite_rng(seed, res.name)
    trunc = min(degree, 4)
    for case in range(8):
        n = rng.randint(1, 2)
        size = rng.randint(1, 3)
        m1 = random_comm_unit_matrix(rng, size, n, trunc)
        m2 = random_comm_unit_matrix(rng, size, n, trunc)
        res.record(
            commalg.trlog(m1 * m2) == commalg.trlog(m1) + commalg.trlog(m2),
            "trlog additivity case %d" % case,
        )
        res.record(
            commalg.log_unit(commalg.det_unit(m1)) == commalg.trlog(m1),
            "log det = tr log case %d" % case,
        )
        low, up = commalg.lu_decompose(m1)
        res.record(low * up == m1, "LU recombination case %d" % case)
    return res


def suite_seifert_core(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("seifert-core")
    rng = _suite_rng(seed, res.name)
    for case, A in enumerate(random_matrices(rng, 12)):
        res.record(not seifert.validate(A), "random matrix validates, case %d" % case)
        z = seifert.z_matrix(A)
        s = seifert.intersection_form(A)
        # Z + S Z' S^-1 = I in the inverse-free form Z S + S Z' = S
        zs = seifert.mat_mul(z, s)
        szt = seifert.mat_mul(s, seifert.mat_transpose(z))
        ident = tuple(
            tuple(zs[r][c] + szt[r][c] for c in range(A.size)) for r in range(A.size)
        )
        res.record(ident == s, "Z + S Z' S^-1 = I case %d" % case)
        refl = seifert.reflect(A)
        zr = seifert.z_matrix(refl)
        expect = tuple(
            tuple((1 if r == c else 0) - z[r][c] for c in range(A.size))
            for r in range(A.size)
        )
        res.record(zr == expect, "reflection Z identity case %d" % case)
        comp = rng.randint(1, A.n)
        variant = rng.choice("ab")
        rho = [rng.randint(-2, 2) for _ in range(A.size)]
        B = seifert.move_s2(A, comp, variant, rho)
        res.record(not seifert.validate(B), "s2 output validates case %d" % case)
        zb = seifert.z_matrix(B)
        lo = B.structure.offset(comp) + B.structure.sizes[comp - 1] - 2
        keep = [r for r in range(B.size) if r not in (lo, lo + 1)]
        recovered = tuple(tuple(zb[r][c] for c in keep) for r in keep)
        res.record(recovered == z, "s2 bordered recovery case %d" % case)
    return res


def suite_s_equivalence(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("s-equivalence")
    rng = _suite_rng(seed, res.name)
    for case, A in enumerate(random_matrices(rng, 5, max_genus=1, bound=2)):
        B = A
        for _ in range(3):
            B = seifert.random_move_rng(rng, B)
        res.record(
            invariants.chi_delta(A, degree) == invariants.chi_delta(B, degree),
            "chi_delta invariance case %d" % case,
        )
        res.record(
            invariants.chi_phi(A, degree) == invariants.chi_phi(B, degree),
            "chi_phi invariance case %d" % case,
        )
        word = random_bi_word(rng, degree)
        f = genfun.monomial(word, degree)
        res.record(
            invariants.chi(f, A, degree) == invariants.chi(f, B, degree),
            "monomial %s invariance case %d" % (word, case),
        )
    return res


def suite_duality(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("duality")
    rng = _suite_rng(seed, res.name)
    for case, A in enumerate(random_matrices(rng, 6, max_genus=1, bound=2)):
        cphi = invariants.chi_phi(A, degree)
        res.record(cphi == -ncalg.bar(cphi), "chi_phi self-duality case %d" % case)
        cdelta = invariants.chi_delta(A, degree)
        res.record(
            ncalg.cyclic_reduce(cdelta) == ncalg.cyclic_reduce(ncalg.bar(cdelta)),
            "chi_delta cyclic duality case %d" % case,
        )
        word = random_bi_word(rng, degree)
        f = genfun.monomial(word, degree)
        chi_f = invariants.chi(f, A, degree)
        dual = genfun.transform(genfun.transform(f, "tilde"), "z_to_one_minus_z")
        res.record(
            ncalg.tilde(chi_f) == invariants.chi(dual, A, degree),
            "tilde duality for %s case %d" % (word, case),
        )
        res.record(
            invariants.chi(genfun.transform(f, "hat"), A, degree) == ncalg.hat(chi_f),
            "hat duality for %s case %d" % (word, case),
        )
    return res


def suite_abelianization(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("abelianization")
    rng = _suite_rng(seed, res.name)
    for case, A in enumerate(random_matrices(rng, 6, max_genus=1, bound=2)):
        lhs = ncalg.abelianize(invariants.chi_delta(A, degree))
        rhs = commalg.log_unit(invariants.torsion_polynomial(A, degree))
        res.record(lhs == rhs, "abelianized chi_delta = log torsion case %d" % case)
    return res


def suite_oracle_agreement(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("oracle-agreement")
    rng = _suite_rng(seed, res.name)
    mats = random_matrices(rng, 4, max_genus=1, bound=2)
    for case in range(12):
        word = random_bi_word(rng, degree)
        A = mats[case % len(mats)]
        symbolic = invariants.tr_series(genfun.monomial(word, degree), A, degree)
        res.record(
            symbolic == invariants.tr_monomial(word, A, degree),
            "block formula for %s case %d" % (word, case),
        )
        res.record(
            symbolic == invariants.reconstruct_trace(word, A, degree),
            "reconstruction for %s case %d" % (word, case),
        )
    return res


def suite_edge_cases(seed: int, degree: int) -> SuiteResult:
    res = SuiteResult("edge-cases")
    rng = _suite_rng(seed, res.name)
    unknot = seifert.seifert_matrix([2], [[0, 1], [0, 0]])
    res.record(
        invariants.chi_delta(unknot, degree).is_zero()
        and invariants.chi_phi(unknot, degree).is_zero(),
        "stabilized unknot has zero invariants",
    )
    for d in range(1, degree + 1):
        A = random_matrices(rng, 1)[0]
        f = genfun.monomial("x" * d, degree)
        res.record(
            invariants.chi(f, A, degree).is_zero(), "pure-x monomial x^%d vanishes" % d
        )
    for case, A in enumerate(random_matrices(rng, 3, max_genus=2, bound=2)):
        st = A.structure
        delta = genfun.delta_series(degree)
        closed = invariants.i_half_trace(delta, st, degree)
        ok = all(
            invariants.trace_at(delta, st, H, degree) == closed
            for H in seifert.half_ones(st)
        )
        res.record(ok, "half-pattern independence case %d" % case)
        word = random_bi_word(rng, degree)
        f = genfun.monomial(word, degree)
        lhs = invariants.chi(f, seifert.reflect(A), degree)
        rhs = ncalg.tilde(invariants.chi(genfun.transform(f, "tilde"), A, degree))
        res.record(lhs == rhs, "reflection identity case %d" % case)
        corr = invariants.half_rank_correction(A.structure, degree)
        direct = invariants.i_half_trace(genfun.phi_series(degree), A.structure, degree)
        res.record(corr == direct, "half-rank correction two routes case %d" % case)
    return res


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
    return [suite(seed, degree) for suite in SUITES]
