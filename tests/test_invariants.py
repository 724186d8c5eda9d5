import inspect
import itertools
import random
import re
import tracemalloc
from fractions import Fraction

import pytest

from helpers import (
    bar_variable,
    comm_coeffs_1var,
    figure_eight,
    hat_by_ring_products,
    reflection_example,
    series_coeffs_1var,
    shift_variables,
    stabilized_unknot,
    torsion_by_det,
    torus_knot,
    trefoil,
    u_div,
    u_inv,
    u_mul,
    u_trim,
)
from linkchi import commalg, invariants, ncalg, seifert
from linkchi.genfun import BiSeries, delta_series, monomial, phi_series, transform
from linkchi.invariants import (
    chi,
    chi_delta,
    chi_phi,
    half_rank_correction,
    i_half_trace,
    reconstruct_trace,
    torsion_polynomial,
    tr_monomial,
    tr_series,
    trace_at,
)
from linkchi.ncalg import NCSeries
from linkchi.seifert import (
    BlockStructure,
    direct_sum,
    half_ones,
    random_seifert_rng,
    seifert_matrix,
)


def random_batch(seed, count, max_genus=2, bound=2):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 3)
        genera = [rng.randint(0, max_genus) for _ in range(n)]
        if not any(genera):
            genera[rng.randrange(n)] = 1
        out.append(random_seifert_rng(rng, genera, bound))
    return out


def random_word(rng, degree):
    xdeg = rng.randint(1, degree)
    letters = ["x"] * xdeg + ["z"] * rng.randint(0, 3)
    rng.shuffle(letters)
    return "".join(letters)


# -- symbolic trace ------------------------------------------------------------


def test_trace_of_pure_x_counts_block_sizes():
    out = tr_series(monomial("x", 2), trefoil(), 2)
    assert out == NCSeries(1, 2, {(1,): 2})


def test_trace_of_xz_is_trace_of_z():
    out = tr_series(monomial("xz", 2), trefoil(), 2)
    assert out == NCSeries(1, 2, {(1,): 1})


def test_trace_of_phi_on_trefoil():
    # oracle: x(2 + x) / (1 + x + x^2) expanded to degree 3
    expected = u_mul(u_trim([0, 2, 1], 3), u_inv([1, 1, 1], 3), 3)
    out = tr_series(phi_series(3), trefoil(), 3)
    assert series_coeffs_1var(out, 3) == expected


def test_trace_requires_complete_series():
    with pytest.raises(ValueError, match="x-degree"):
        tr_series(phi_series(2), trefoil(), 3)


# -- block-trace formula ---------------------------------------------------------


def test_formula_matches_symbolic_on_random_monomials():
    rng = random.Random(71)
    mats = random_batch(71, 5)
    for case in range(20):
        word = random_word(rng, 5)
        A = mats[case % len(mats)]
        assert tr_monomial(word, A, 5) == tr_series(monomial(word, 5), A, 5)


def test_formula_reflection_coefficients():
    out = tr_monomial("xzxzxzx", reflection_example(), 4)
    assert out.coefficient((1, 2, 3, 1)) == 2
    assert out.coefficient((1, 3, 2, 1)) == -2


def test_series_trace_is_linear_in_monomials():
    for A in random_batch(73, 3, max_genus=1):
        f = delta_series(4)
        total = NCSeries.zero(A.n, 4)
        for word, coeff in f.terms.items():
            total = total + tr_monomial(word, A, 4).scale(coeff)
        assert tr_series(f, A, 4) == total


def test_formula_pure_z_gives_trace_constant():
    A = trefoil()
    out = tr_monomial("zz", A, 3)
    # tr(Z^2) for Z = [[1,1],[-1,0]] is -1
    assert out == NCSeries(1, 3, {(): -1})


def test_formula_of_a_word_beyond_the_degree_is_zero():
    out = tr_monomial("xzxxx", trefoil(), 3)
    assert out == NCSeries.zero(1, 3) == tr_series(monomial("xzxxx", 3), trefoil(), 3)
    assert out.trunc == 3


def test_formula_shares_no_code_with_the_trace_table():
    # the oracle reads Z, its powers and the word's runs, and nothing of the table
    body = inspect.getsource(tr_monomial)
    for name in ("_trace_by_halves", "_pattern_traces", "_times", "_unpack", "_kept_trie",
                 "store_words"):
        assert not re.search(r"\b%s\b" % name, body), name
    assert re.search(r"\bword_runs\b", body) and re.search(r"\bseifert\.mat_mul\b", body)


def monomial_trace_sum(f, A, degree):
    """sum_w c_w tr_monomial(w): the block-trace route, one word at a time."""
    total = NCSeries.zero(A.n, degree)
    for word, coeff in f.terms.items():
        total = total + tr_monomial(word, A, degree).scale(coeff)
    return total


@pytest.mark.parametrize("words", [
    # x.z.x writes the length-2 keys that x.x already holds
    {"xx": 1, "xzx": 1},
    # z.x.z sums block 0 over all blocks, so distinct v share a key
    {"zxz": 1, "xzxz": 1},
    # z.z maps every v to the empty word; x.z.z.x then writes length 2
    {"zz": 1, "xzzx": 1},
])
def test_first_template_of_a_key_length_adds_where_keys_repeat(words):
    f = BiSeries(5, words)
    for A in random_batch(131, 4):
        assert tr_series(f, A, 5) == monomial_trace_sum(f, A, 5)


def test_trace_matches_formula_on_hat_delta_at_degree_7():
    # hat(delta) has every composition of x-runs: words (x^j1 z)...(x^jk z)
    A = random_seifert_rng(random.Random(113), [1, 1, 1], 2)
    f = transform(delta_series(7), "hat")
    assert len(f.terms) == 127
    out = trace_at(f, A.structure, seifert.z_matrix(A), 7)
    assert out == monomial_trace_sum(f, A, 7)
    assert len(out.terms) > 1000


def multi_run_series(rng, degree):
    """Seeded words with several x- and z-runs, starting or ending in either
    letter, plus pure-z, x-only and empty words; coefficients with
    different denominators."""
    terms = {"": Fraction(2, 3), "z": 5, "zzz": Fraction(-1, 4), "x": 1,
             "x" * degree: Fraction(3, 7), "zx" * (degree // 2) + "xz": -2}
    while len(terms) < 30:
        letters, xdeg = [], 0
        letter = rng.choice("xz")
        for _ in range(rng.randint(1, 5)):
            run = rng.randint(1, 3)
            if letter == "x":
                run = min(run, degree - xdeg)
                xdeg += run
            letters.append(letter * run)
            letter = "z" if letter == "x" else "x"
        word = "".join(letters)
        terms[word] = terms.get(word, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return BiSeries(degree, terms)


@pytest.mark.parametrize("genera", [[1, 1, 1], [1, 0, 2]])
def test_trace_matches_formula_on_multi_run_series_at_degree_7(genera):
    rng = random.Random(127)
    A = random_seifert_rng(rng, genera, 2)
    f = multi_run_series(rng, 7)
    assert any(w.startswith("z") and w.endswith("z") and "x" in w for w in f.terms)
    assert tr_series(f, A, 7) == monomial_trace_sum(f, A, 7)


def isolated_z_series(rng, degree):
    """Seeded words with no two z's adjacent, also cyclically: a constant
    term, pure-x words, words that start or end with z, and coefficients
    with different denominators."""
    terms = {"": Fraction(3, 4), "x": 2, "x" * degree: Fraction(-1, 3), "zx": Fraction(5, 2),
             "xzx" * (degree // 2): Fraction(1, 6)}
    while len(terms) < 40:
        k = rng.randint(1, degree)
        runs = [rng.randint(0, 2)] + [rng.randint(1, 2) for _ in range(k - 1)] + [rng.randint(0, 2)]
        if runs[0] + runs[-1] == 0:
            runs[-1] = 1
        if sum(runs) <= degree:
            word = "z".join("x" * r for r in runs)
            terms[word] = terms.get(word, 0) + Fraction(rng.randint(-5, 5), rng.randint(1, 7))
    return BiSeries(degree, terms)


TABLE_SHAPES = [([3, 3, 3], 7, 211), ([1, 1, 1, 1], 7, 223), ([2, 1, 2], 6, 227)]
TABLE_SERIES = {
    "delta": lambda d: delta_series(d),
    "phi": lambda d: phi_series(d),
    "hat-delta": lambda d: transform(delta_series(d), "hat"),
    "tilde-phi": lambda d: transform(phi_series(d), "tilde"),
    "isolated-z": lambda d: isolated_z_series(random.Random(229), d),
}


@pytest.mark.parametrize("genera, degree, seed", TABLE_SHAPES, ids=["333-d7", "1111-d7", "212-d6"])
@pytest.mark.parametrize("name", list(TABLE_SERIES))
def test_necklace_route_matches_walk_and_formula(genera, degree, seed, name):
    # series whose z's are isolated, also cyclically: every letter is P_j Z
    A = random_seifert_rng(random.Random(seed), genera, 2)
    M = seifert.z_matrix(A)
    f = TABLE_SERIES[name](degree)
    if name == "isolated-z":
        words = [w for w in f.terms if w.count("x") <= degree]
        assert "" in words and "x" in words and any(w.startswith("z") for w in words)
        assert len({c.denominator for c in f.terms.values()}) > 2
    assert trace_at(f, A.structure, M, degree) == monomial_trace_sum(f, A, degree)


@pytest.mark.parametrize("word", ["zz", "zxz", "xzzx", "zxxz"])
def test_adjacent_zs_take_the_walk(word):
    # letters P_j Z^2, and first and last z-runs that meet cyclically
    A = random_seifert_rng(random.Random(233), [1, 2], 2)
    f = BiSeries(4, {word: 1, "xzx": Fraction(1, 2)})
    assert tr_series(f, A, 4) == monomial_trace_sum(f, A, 4)


ADJACENT_Z_SERIES = {
    "multi-run": lambda d: multi_run_series(random.Random(257), d),
    "z": lambda d: monomial("z", d),
    "zzz": lambda d: monomial("zzz", d),
    "zzxzxz": lambda d: monomial("zzxzxz", d),
}


@pytest.mark.parametrize("genera, degree, seed", TABLE_SHAPES[:2], ids=["333-d7", "1111-d7"])
@pytest.mark.parametrize("name", list(ADJACENT_Z_SERIES))
def test_trace_matches_formula_with_adjacent_zs_at_large_sizes(genera, degree, seed, name):
    A = random_seifert_rng(random.Random(seed), genera, 2)
    f = ADJACENT_Z_SERIES[name](degree)
    assert tr_series(f, A, degree) == monomial_trace_sum(f, A, degree)


def test_half_product_table_holds_every_nonzero_trace():
    A = random_seifert_rng(random.Random(239), [1, 0, 1, 2], 2)
    M = seifert.z_matrix(A)
    # all-ones patterns of odd and even length, and two with a power 2 in
    # either half
    cases = [("xz" * k, (1,) * k) for k in range(1, 7)]
    cases += [("xzxzzxzxzz", (1, 2, 1, 2)), ("xzzxzxz", (2, 1, 1))]
    powers = {1: M, 2: seifert.mat_mul(M, M)}
    table = invariants._pattern_traces(A.structure, powers, [pattern for _, pattern in cases])
    assert set(table) == {pattern for _, pattern in cases}
    for word, pattern in cases:
        k, h = len(pattern), (len(pattern) + 1) // 2
        lefts, rights, traces = table[pattern]
        assert {len(u) for u in lefts} == {h} and {len(w) for w in rights} == {k - h}
        assert len(traces) == len(lefts) * len(rights)
        # T(u w) is traces[i * len(rights) + j], zero or not
        table_traces = {u + w: t for (u, w), t in zip(itertools.product(lefts, rights), traces)}
        assert len(table_traces) == len(traces)
        # T(v) is the coefficient of v's blocks in the word's trace, and a
        # v outside the table has a zero half product
        formula = tr_monomial(word, A, k)
        for v in itertools.product([1, 3, 4], repeat=k):
            assert formula.coefficient(v) == table_traces.get(v, 0)


NEAR_10_TO_THE_12 = {
    "random-22": lambda: random_seifert_rng(random.Random(271), [2, 2], 10**12),
    # Z = [[1, -N], [-N, 0]]: tr Z^6 is about 2 N^6, the bound m ||Z||^6 itself
    "at-the-bound": lambda: seifert_matrix([2], [[10**12, 1], [0, -(10**12)]]),
}


@pytest.mark.parametrize("name", list(NEAR_10_TO_THE_12))
def test_trace_matches_formula_with_entries_near_10_to_the_12(name):
    # traces beyond 2^64: the table decodes slots wider than 8 bytes
    A = NEAR_10_TO_THE_12[name]()
    for f in (delta_series(6), multi_run_series(random.Random(271), 6)):
        out = tr_series(f, A, 6)
        assert out == monomial_trace_sum(f, A, 6)
        assert max(map(abs, out.terms.values())) > 2**64


def test_sparse_key_length_at_eleven_components():
    # n = 11 at key length 6: the word reaches at most 11^3 of the 11^6 > 10^6
    # keys, and summing it stores no slot for the others
    A = random_seifert_rng(random.Random(277), [1] * 11, 2)
    word = "xxzxxzxxz"
    tracemalloc.start()
    try:
        out = tr_series(monomial(word, 6), A, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == tr_monomial(word, A, 6)
    assert 11**2 < len(out.terms) <= 11**3
    assert peak < 4 * 2**20  # a slot for each of the 11^6 keys takes over 14 MB


BLOCK_DIAGONAL_SERIES = {
    "delta": delta_series,
    "phi": phi_series,
    "multi-run": lambda d: multi_run_series(random.Random(263), d),
}


@pytest.mark.parametrize("name", list(BLOCK_DIAGONAL_SERIES))
def test_trace_matches_formula_with_a_genus_0_block_at_degree_7(name):
    # block 2 has no rows, so no half product starts or ends in it
    A = random_seifert_rng(random.Random(281), [1, 0, 2, 1], 2)
    f = BLOCK_DIAGONAL_SERIES[name](7)
    assert tr_series(f, A, 7) == monomial_trace_sum(f, A, 7)


@pytest.mark.parametrize("name", list(BLOCK_DIAGONAL_SERIES))
def test_trace_matches_formula_when_whole_halves_vanish(name):
    # Z of a direct sum is block diagonal, so every product that passes
    # from one summand's blocks to the other's is zero
    rng = random.Random(269)
    A = direct_sum(random_seifert_rng(rng, [1, 2], 2), random_seifert_rng(rng, [2, 1], 2))
    f = BLOCK_DIAGONAL_SERIES[name](7)
    assert tr_series(f, A, 7) == monomial_trace_sum(f, A, 7)


@pytest.mark.parametrize("genera, degree, seed", TABLE_SHAPES, ids=["333-d7", "1111-d7", "212-d6"])
def test_phi_trace_is_fixed_by_delta_trace(genera, degree, seed):
    # the coefficient of v + v[:1] in tr phi is -len(v) times that of v in
    # tr delta; x_i has 2 g_i; every other word has 0
    A = random_seifert_rng(random.Random(seed), genera, 2)
    delta = tr_series(delta_series(degree), A, degree)
    phi = tr_series(phi_series(degree), A, degree)
    expected = {(i,): 2 * A.structure.genus(i) for i in range(1, A.n + 1)}
    for v, c in delta.terms.items():
        if len(v) < degree:
            expected[v + v[:1]] = -len(v) * c
    assert phi == NCSeries(A.n, degree, expected)
    assert len(phi.terms) > 100


def test_hat_matches_substitution_at_n3_degree_7():
    rng = random.Random(131)
    terms = {(): Fraction(1, 2), (2,): 3, (3, 3, 3): -1, (1,) * 7: Fraction(2, 5)}
    while len(terms) < 40:
        word = ()
        for _ in range(rng.randint(1, 4)):
            word += (rng.randint(1, 3),) * rng.randint(1, 3)
        terms[word[:7]] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    A = random_seifert_rng(rng, [1, 1, 1], 2)
    for f in (NCSeries(3, 7, terms), chi_delta(A, 7)):
        images = [bar_variable(3, 7, i) for i in (1, 2, 3)]
        assert ncalg.hat(f) == ncalg.substitute(f, images)


@pytest.mark.parametrize(
    "f",
    [multi_run_series(random.Random(127), 7), delta_series(8), phi_series(8),
     transform(delta_series(8), "tilde")],
    ids=["multi-run", "delta", "phi", "tilde-delta"],
)
def test_hat_of_bi_series_matches_ring_products(f):
    assert transform(f, "hat") == hat_by_ring_products(f)


# -- the invariant ---------------------------------------------------------------


def test_chi_delta_vanishes_on_stabilized_unknot():
    for degree in (1, 3, 5):
        assert chi_delta(stabilized_unknot(), degree).is_zero()


def test_chi_delta_trefoil_golden():
    out = chi_delta(trefoil(), 4)
    assert out == NCSeries(
        1,
        4,
        {(1, 1): 1, (1, 1, 1): -1, (1, 1, 1, 1): Fraction(1, 2)},
    )


def test_chi_phi_trefoil_golden():
    out = chi_phi(trefoil(), 4)
    assert out == NCSeries(1, 4, {(1, 1, 1): -2, (1, 1, 1, 1): 3})
    # oracle: -x^3 (2 + x) / ((1 + x)(1 + x + x^2))
    num = u_trim([0, 0, 0, -2, -1], 6)
    den = u_mul([1, 1], [1, 1, 1], 6)
    assert series_coeffs_1var(chi_phi(trefoil(), 6), 6) == u_div(num, den, 6)


def test_chi_subtracts_half_term_even_when_it_vanishes():
    A = trefoil()
    f = monomial("xzzx", 4)
    direct = tr_series(f, A, 4) - i_half_trace(f, A.structure, 4)
    assert chi(f, A, 4) == direct


def test_chi_pure_x_monomials_vanish():
    for A in random_batch(77, 4):
        for d in (1, 2, 3):
            assert chi(monomial("x" * d, 3), A, 3).is_zero()


def test_chi_independent_of_half_pattern():
    f = delta_series(4)
    for A in random_batch(79, 4, max_genus=2):
        st = A.structure
        base = chi(f, A, 4)
        for H in half_ones(st):
            assert tr_series(f, A, 4) - trace_at(f, st, H, 4) == base


def test_chi_invariant_under_moves_small():
    from linkchi.seifert import random_move_rng

    rng = random.Random(83)
    for A in random_batch(83, 6, max_genus=1):
        B = A
        for _ in range(3):
            B = random_move_rng(rng, B)
        assert chi_delta(A, 4) == chi_delta(B, 4)
        word = random_word(rng, 4)
        f = monomial(word, 4)
        assert chi(f, A, 4) == chi(f, B, 4)


def test_chi_invariant_for_ten_random_monomials_at_degree_5():
    from linkchi.seifert import random_move_rng

    rng = random.Random(85)
    A = random_batch(85, 1, max_genus=2)[0]
    B = A
    for _ in range(4):
        B = random_move_rng(rng, B)
    for _ in range(10):
        f = monomial(random_word(rng, 5), 5)
        assert chi(f, A, 5) == chi(f, B, 5)


def test_chi_duality_small():
    rng = random.Random(89)
    for A in random_batch(89, 5, max_genus=1):
        cphi = chi_phi(A, 4)
        assert cphi == -ncalg.bar(cphi)
        cdelta = chi_delta(A, 4)
        assert ncalg.cyclic_reduce(cdelta) == ncalg.cyclic_reduce(ncalg.bar(cdelta))
        f = monomial(random_word(rng, 4), 4)
        dual = transform(transform(f, "tilde"), "z_to_one_minus_z")
        assert ncalg.tilde(chi(f, A, 4)) == chi(dual, A, 4)
        assert chi(transform(f, "hat"), A, 4) == ncalg.hat(chi(f, A, 4))


LARGE_SHAPES = [([3, 3, 3], 7), ([4, 4], 8), ([1, 1, 1, 1], 7)]


@pytest.mark.parametrize("seed", [241, 251])
@pytest.mark.parametrize("genera, degree", LARGE_SHAPES, ids=["333-d7", "44-d8", "1111-d7"])
def test_invariance_and_duality_at_large_sizes(genera, degree, seed):
    from linkchi.seifert import random_move_rng

    rng = random.Random(seed)
    A = random_seifert_rng(rng, genera, 2)
    B = A
    for _ in range(rng.randint(3, 5)):
        B = random_move_rng(rng, B)
    assert B.entries != A.entries
    cdelta, cphi = chi_delta(A, degree), chi_phi(A, degree)
    assert chi_delta(B, degree) == cdelta
    assert chi_phi(B, degree) == cphi
    assert cphi == -ncalg.bar(cphi)
    assert ncalg.cyclic_reduce(cdelta) == ncalg.cyclic_reduce(ncalg.bar(cdelta))
    assert chi(transform(delta_series(degree), "hat"), A, degree) == ncalg.hat(cdelta)
    f = monomial(random_word(rng, degree), degree)
    dual = transform(transform(f, "tilde"), "z_to_one_minus_z")
    assert ncalg.tilde(chi(f, A, degree)) == chi(dual, A, degree)
    adjacent = multi_run_series(rng, degree)  # adjacent z's: letters P_j Z^e
    assert chi(adjacent, B, degree) == chi(adjacent, A, degree)
    assert torsion_polynomial(B, degree) == torsion_polynomial(A, degree)


def test_chi_reflection_identity_and_refl_asymmetry():
    A = reflection_example()
    f = monomial("xzxzxzx", 4)
    from linkchi.seifert import reflect

    lhs = chi(f, reflect(A), 4)
    rhs = ncalg.tilde(chi(transform(f, "tilde"), A, 4))
    assert lhs == rhs
    assert chi_phi(reflect(A), 4) != chi_phi(A, 4)


def test_chi_direct_sum_additive():
    rng = random.Random(91)
    mats = random_batch(91, 6, max_genus=1, bound=1)
    for A, B in zip(mats[::2], mats[1::2]):
        total = direct_sum(A, B)
        lhs = chi_delta(total, 4)
        rhs = shift_variables(chi_delta(A, 4), 0, total.n) + shift_variables(
            chi_delta(B, 4), A.n, total.n
        )
        assert lhs == rhs


# -- half-rank correction -----------------------------------------------------------


def test_half_rank_zero_genus():
    assert half_rank_correction(BlockStructure((0,)), 4).is_zero()


def test_half_rank_single_handle():
    out = half_rank_correction(BlockStructure((2,)), 3)
    assert out == NCSeries(1, 3, {(1,): 2, (1, 1): -1, (1, 1, 1): 1})


def test_half_rank_matches_direct_trace():
    rng = random.Random(97)
    for _ in range(6):
        sizes = tuple(2 * rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        st = BlockStructure(sizes)
        direct = i_half_trace(phi_series(5), st, 5)
        assert half_rank_correction(st, 5) == direct


def half_trace_series(degree):
    """delta, phi and a seeded series with a constant term, pure-x words and
    words of x-degree above ``degree``."""
    rng = random.Random(degree)
    terms = {"": Fraction(3, 2), "xx": -1, "x" * degree: 2, "x" * (degree + 1): 3,
             "z" + "x" * (degree + 2): 5}
    for _ in range(8):
        word = "".join(rng.choice("xz") for _ in range(rng.randint(1, degree + 2)))
        terms[word] = terms.get(word, 0) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return [delta_series(degree), phi_series(degree), BiSeries(degree + 2, terms)]


@pytest.mark.parametrize(
    "genera, degree, samples", [([2, 2], 7, None), ([4], 9, None), ([3, 3, 3], 7, 10)]
)
def test_closed_form_half_trace_matches_dense_route(genera, degree, samples):
    st = BlockStructure(tuple(2 * g for g in genera))
    matrices = list(half_ones(st))
    if samples is not None:
        matrices = random.Random(5).sample(matrices, samples)
    for f in half_trace_series(degree):
        closed = i_half_trace(f, st, degree)
        for H in matrices:
            assert closed == trace_at(f, st, H, degree), H


def test_trace_at_rejects_a_matrix_of_the_wrong_size():
    st = BlockStructure((2, 2))
    with pytest.raises(ValueError, match="not a 4x4 integer matrix"):
        trace_at(delta_series(3), st, [[1, 0], [0, 1]], 3)
    with pytest.raises(ValueError, match="not a 4x4 integer matrix"):
        trace_at(delta_series(3), st, [[1, 0, 0, 0]] * 3 + [[0, 0, 1]], 3)


# -- the half-product trie kept for the last matrix ------------------------------------


@pytest.fixture
def cold():
    """A call from an empty trie: ``cold(chi_delta, A, 5)``."""
    def call(fn, *args):
        invariants._kept_trie.cache_clear()
        return fn(*args)

    yield call
    invariants._kept_trie.cache_clear()


def assert_same(a, b):
    assert (a.num, a.den, a.trunc) == (b.num, b.den, b.trunc)


def test_kept_trie_follows_the_matrix_not_the_structure(cold):
    rng = random.Random(61)
    A, B = (random_seifert_rng(rng, [1, 1, 1], 2) for _ in range(2))
    assert A.structure == B.structure and seifert.z_matrix(A) != seifert.z_matrix(B)
    want = {X: cold(chi_delta, X, 5) for X in (A, B)}
    invariants._kept_trie.cache_clear()
    for X in (A, B, A):
        assert_same(chi_delta(X, 5), want[X])


def test_kept_trie_sees_a_matrix_changed_in_place(cold):
    A = random_seifert_rng(random.Random(67), [1, 1], 2)
    M = [list(row) for row in seifert.z_matrix(A)]
    f = multi_run_series(random.Random(67), 5)
    before = cold(trace_at, f, A.structure, M, 5)
    M[0][1] += 1
    after = trace_at(f, A.structure, M, 5)
    assert after != before
    assert_same(after, cold(trace_at, f, A.structure, M, 5))


def test_kept_packings_are_keyed_by_slot_width(cold):
    # entries near 10^12: degree 3 and degree 6 pack the same right halves in
    # slots of different widths
    A = random_seifert_rng(random.Random(1), [2, 2], 10**12)
    want = cold(chi_delta, A, 6)
    cold(chi_phi, A, 3)
    assert_same(chi_delta(A, 6), want)


# -- torsion polynomial ---------------------------------------------------------------


def test_torsion_of_stabilized_unknot_is_one():
    out = torsion_polynomial(stabilized_unknot(), 5)
    assert out == commalg.CommSeries.one(1, 5)


def test_torsion_of_trefoil():
    out = torsion_polynomial(trefoil(), 4)
    # oracle: (1 + x + x^2) / (1 + x)
    expected = u_div([1, 1, 1], [1, 1], 4)
    assert comm_coeffs_1var(out, 4) == expected
    assert out.coefficient((0,)) == 1


def test_torsion_of_figure_eight():
    out = torsion_polynomial(figure_eight(), 3)
    # oracle: 3 - t - 1/t at t = 1 + x, i.e. (1 + x - x^2) / (1 + x)
    expected = u_div([1, 1, -1], [1, 1], 3)
    assert comm_coeffs_1var(out, 3) == expected


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("genera, degree", [([3, 3], 6), ([3, 3, 3], 4), ([6], 8)])
def test_torsion_matches_determinant_oracle(genera, degree, seed):
    A = random_seifert_rng(random.Random(seed), genera, 2)
    assert torsion_polynomial(A, degree) == torsion_by_det(A, degree)


def test_torsion_matches_oracle_at_every_degree_around_the_split():
    # odd and even degrees, degree 1 (no product stage) and 2 (h = 1)
    A = random_seifert_rng(random.Random(241), [2, 1], 2)
    for degree in range(10):
        assert torsion_polynomial(A, degree) == torsion_by_det(A, degree)
    # one block of genus 1: 2 x 2 matrices, where per-call overhead dominates
    B = random_seifert_rng(random.Random(307), [1], 2)
    for degree in range(1, 7):
        assert torsion_polynomial(B, degree) == torsion_by_det(B, degree)


@pytest.mark.parametrize(
    "genera, degree, seed",
    [([2, 0, 1], 7, 251), ([3, 3, 3], 6, 257), ([4, 4], 8, 263), ([8], 10, 269)],
    ids=["201-d7", "333-d6", "44-d8", "8-d10"],
)
def test_torsion_matches_oracle_at_larger_sizes(genera, degree, seed):
    A = random_seifert_rng(random.Random(seed), genera, 2)
    assert torsion_polynomial(A, degree) == torsion_by_det(A, degree)


@pytest.mark.parametrize(
    "genera, degree, seed",
    [([2, 0, 1], 8, 271), ([1, 1, 1, 1], 8, 277), ([1, 1], 2, 281)],
    ids=["201-d8", "1111-d8", "11-d2"],
)
def test_torsion_matches_oracle_on_unordered_last_products(genera, degree, seed):
    # even degree: the last product stage pairs level h with itself, where
    # tr(M_e1 M_e2) for e1 != e2 is computed once and counted twice
    A = random_seifert_rng(random.Random(seed), genera, 2)
    assert torsion_polynomial(A, degree) == torsion_by_det(A, degree)


@pytest.mark.parametrize(
    "genera, degree, seed", [([2, 2], 8, 283), ([1, 1, 1], 6, 293)], ids=["22-d8", "111-d6"]
)
def test_torsion_matches_oracle_with_entries_near_10_to_the_12(genera, degree, seed):
    # ||Z||^h needs more than 62 bits, so each packed slot is wider than 8 bytes
    A = random_seifert_rng(random.Random(seed), genera, 10**12)
    norm = max(sum(map(abs, row)) for row in seifert.z_matrix(A))
    assert (norm ** ((degree + 1) // 2)).bit_length() + 2 > 64
    assert torsion_polynomial(A, degree) == torsion_by_det(A, degree)


def torus_knot_torsion(g, n, i, degree):
    """(1 + x_i)^(-g) sum_{k=0}^{2g} (-(1 + x_i))^k, the torsion of T(2, 2g+1)
    in the variable x_i of n."""
    t = commalg.CommSeries.one(n, degree) + commalg.CommSeries.variable(n, degree, i)
    total = commalg.CommSeries.zero(n, degree)
    for k in range(2 * g + 1):
        total = total + (-t) ** k
    return t.inverse() ** g * total


@pytest.mark.parametrize("g", [1, 2, 3, 5, 10, 25])
def test_torsion_of_torus_knots_matches_closed_form_at_high_genus(g):
    assert torsion_polynomial(torus_knot(g), 12) == torus_knot_torsion(g, 1, 1, 12)


def test_torsion_of_a_direct_sum_is_the_product_in_separate_variables():
    a, b = torsion_polynomial(torus_knot(3), 12), torsion_polynomial(torus_knot(5), 12)
    want = (commalg.CommSeries(2, 12, {(e, 0): c for (e,), c in a.terms.items()})
            * commalg.CommSeries(2, 12, {(0, e): c for (e,), c in b.terms.items()}))
    assert want == torus_knot_torsion(3, 2, 1, 12) * torus_knot_torsion(5, 2, 2, 12)
    assert torsion_polynomial(direct_sum(torus_knot(3), torus_knot(5)), 12) == want


def test_torsion_with_genus_zero_component_matches_oracle():
    rng = random.Random(11)
    for genera in ([2, 0, 1], [0, 2], [1, 0], [0, 1]):
        A = random_seifert_rng(rng, genera, 2)
        out = torsion_polynomial(A, 5)
        assert out.n == len(genera)
        assert out == torsion_by_det(A, 5)


def test_torsion_at_degree_zero_is_one():
    for A in (trefoil(), reflection_example()):
        out = torsion_polynomial(A, 0)
        assert (out.n, out.trunc, out.terms) == (A.n, 0, {(0,) * A.n: 1})
        assert out == torsion_by_det(A, 0)


def test_torsion_of_size_zero_matrix_is_one():
    for sizes in ([], [0], [0, 0]):
        A = seifert_matrix(sizes, [])
        out = torsion_polynomial(A, 4)
        assert out == commalg.CommSeries.one(len(sizes), 4)
        assert out == torsion_by_det(A, 4)


def test_abelianized_chi_delta_is_log_torsion():
    for A in random_batch(103, 5, max_genus=1):
        lhs = ncalg.abelianize(chi_delta(A, 4))
        rhs = commalg.log_unit(torsion_polynomial(A, 4))
        assert lhs == rhs


# -- reconstruction -------------------------------------------------------------------


def test_reconstruct_fixed_point_monomial():
    A = trefoil()
    assert reconstruct_trace("xzx", A, 4) == tr_series(monomial("xzx", 4), A, 4)


def test_reconstruct_with_long_z_run():
    A = reflection_example()
    assert reconstruct_trace("xzzx", A, 4) == tr_series(monomial("xzzx", 4), A, 4)


def test_reconstruct_pure_x_edge_case():
    A = reflection_example()
    out = reconstruct_trace("xx", A, 4)
    expected = NCSeries(3, 4, {(i, i): 2 for i in (1, 2, 3)})
    assert out == expected


def test_reconstruct_random_monomials():
    rng = random.Random(107)
    mats = random_batch(107, 4, max_genus=1)
    for case in range(15):
        word = random_word(rng, 4)
        A = mats[case % len(mats)]
        assert reconstruct_trace(word, A, 4) == tr_series(monomial(word, 4), A, 4)
