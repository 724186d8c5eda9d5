import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    block,
    invert_by_fractions,
    presentation_matrix,
    random_seifert,
    stabilized_unknot,
    trefoil,
)
from linkchi import invariants, seifert
from linkchi.genfun import monomial
from linkchi.ncalg import NCSeries
from linkchi.seifert import (
    BlockStructure,
    MatrixFormatError,
    _invert_unimodular_block,
    SeifertMatrix,
    apply_random_moves,
    direct_sum,
    half_ones,
    intersection_form,
    int_det,
    move_s1,
    move_s2,
    parse,
    random_block_unimodular,
    random_seifert_rng,
    reflect,
    seifert_matrix,
    serialize,
    validate,
    z_matrix,
)


def frac_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


@st.composite
def unimodular_blocks(draw):
    """An integer block of determinant +-1 from row additions, swaps and sign flips of I."""
    size = draw(st.integers(0, 8))
    rows = [[int(r == c) for c in range(size)] for r in range(size)]
    for _ in range(draw(st.integers(0, 3 * size))):
        r, c = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        kind = draw(st.sampled_from(["add", "swap", "negate"]))
        if kind == "add" and r != c:
            k = draw(st.integers(-3, 3))
            rows[r] = [a + k * b for a, b in zip(rows[r], rows[c])]
        elif kind == "swap":
            rows[r], rows[c] = rows[c], rows[r]
        else:
            rows[r] = [-a for a in rows[r]]
    return rows


@settings(max_examples=200, deadline=None)
@given(unimodular_blocks())
def test_unimodular_inverse_matches_fraction_elimination(rows):
    inv = _invert_unimodular_block(rows)
    assert inv == invert_by_fractions(rows)
    assert frac_mul(rows, inv) == [[int(r == c) for c in range(len(rows))] for r in range(len(rows))]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 5).flatmap(lambda k: st.lists(
    st.lists(st.integers(-3, 3), min_size=k, max_size=k), min_size=k, max_size=k)))
def test_block_inverse_is_integral_or_raises(rows):
    try:
        want = invert_by_fractions(rows)
    except ValueError:
        with pytest.raises(ValueError):
            _invert_unimodular_block(rows)
    else:
        assert _invert_unimodular_block(rows) == want


@pytest.mark.parametrize("rows", [[[2]], [[2, 1], [1, 2]], [[1, 2], [2, 4]], [[0, 0], [0, 1]]])
def test_block_without_integral_inverse_raises(rows):
    with pytest.raises(ValueError):
        _invert_unimodular_block(rows)


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


# -- validation -----------------------------------------------------------------


def test_trefoil_validates():
    assert validate(trefoil()) == []


def test_zero_diagonal_block_fails_det():
    A = seifert_matrix([2], [[0, 0], [0, 0]])
    problems = validate(A)
    assert len(problems) == 1
    assert "det" in problems[0]


def test_asymmetric_off_diagonal_reported():
    A = seifert_matrix(
        [2, 2],
        [
            [0, 1, 5, 0],
            [0, 0, 0, 0],
            [0, 0, 0, 1],
            [0, 0, 0, 0],
        ],
    )
    problems = validate(A)
    assert any("transposes" in p for p in problems)


def test_odd_block_size_gets_dedicated_diagnostic():
    A = seifert_matrix([3], [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    problems = validate(A)
    assert any("odd" in p for p in problems)


def test_validate_returns_a_fresh_list_of_one_check():
    A = seifert_matrix([2], [[0, 0], [0, 0]])
    problems = validate(A)
    problems.append("changed by the caller")
    assert validate(A) == problems[:1]
    assert validate(A) is not validate(A)


def test_chi_and_torsion_on_one_matrix_validate_it_once(monkeypatch):
    calls = []
    real = seifert.int_det

    def spy(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(seifert, "int_det", spy)
    A = random_seifert(4, [1, 2], 2)
    invariants.chi_delta(A, 3)
    invariants.chi_phi(A, 3)
    invariants.torsion_polynomial(A, 3)
    # one determinant per diagonal block, for the first validation only
    assert calls == [2, 4]


# -- value semantics -------------------------------------------------------------


def test_equal_matrices_hash_equal_and_share_the_z_cache():
    A = random_seifert(5, [1, 2], 2)
    B = parse(serialize(A))
    assert A is not B and A == B and hash(A) == hash(B)
    assert A.structure == B.structure and hash(A.structure) == hash(B.structure)
    assert A != reflect(A) and A != A.entries and A.structure != A.structure.sizes
    z_matrix(A)
    hits = z_matrix.cache_info().hits
    assert z_matrix(B) is z_matrix(A)
    assert z_matrix.cache_info().hits == hits + 2


def test_validating_leaves_the_value_unchanged():
    A, B = trefoil(), trefoil()
    validate(A)
    assert A == B and hash(A) == hash(B)
    assert repr(A) == repr(B)


def test_keyword_construction_and_repr_round_trip():
    A = SeifertMatrix(structure=BlockStructure(sizes=[2]), entries=[[-1, 1], [0, -1]])
    assert A == trefoil()
    assert A.structure.sizes == (2,) and A.entries == ((-1, 1), (0, -1))
    assert repr(A) == (
        "SeifertMatrix(structure=BlockStructure(sizes=(2,)), entries=((-1, 1), (0, -1)))"
    )
    assert eval(repr(A), {"SeifertMatrix": SeifertMatrix, "BlockStructure": BlockStructure}) == A


def test_copies_and_pickles_are_equal_values():
    A = random_seifert(6, [1, 1], 2)
    for B in (copy.copy(A), copy.deepcopy(A), pickle.loads(pickle.dumps(A))):
        assert B == A and hash(B) == hash(A)
        assert validate(B) == []


@pytest.mark.parametrize(
    "owner, name",
    [("matrix", "entries"), ("matrix", "structure"), ("matrix", "other"), ("structure", "sizes")],
)
def test_matrices_and_structures_are_immutable(owner, name):
    A = trefoil()
    target = A if owner == "matrix" else A.structure
    with pytest.raises(AttributeError):
        setattr(target, name, ())
    with pytest.raises(AttributeError):
        delattr(target, name)
    assert A == trefoil()


def test_constructor_checks_raise_value_error():
    with pytest.raises(ValueError, match="block sizes"):
        BlockStructure((2, -2))
    for entries in (((1, 0.5), (0, 1)), ((1, True), (0, 1)), ((1, "1"), (0, 1))):
        with pytest.raises(ValueError, match="not a 2x2 integer matrix"):
            SeifertMatrix(BlockStructure((2,)), entries)
    for entries in (((1,),), ((1, 0), (0, 1), (0, 0)), (1, 2), None):
        with pytest.raises(ValueError, match="not a 2x2 integer matrix"):
            SeifertMatrix(BlockStructure((2,)), entries)


@pytest.mark.parametrize("sizes", [(2.9,), (2.0,), (True, 2), ("2",), (2, None)])
def test_block_sizes_must_be_ints(sizes):
    with pytest.raises(ValueError, match="block sizes must be non-negative integers"):
        BlockStructure(sizes)
    with pytest.raises(ValueError, match="block sizes"):
        seifert_matrix(sizes, [[0, 1], [0, 0]])


# -- derived matrices --------------------------------------------------------------


def test_z_of_trefoil():
    assert z_matrix(trefoil()) == ((1, 1), (-1, 0))


def test_z_of_stabilized_unknot():
    assert z_matrix(stabilized_unknot()) == ((1, 0), (0, 0))


def test_z_satisfies_duality_identity():
    for A in random_batch(101, 10):
        z = z_matrix(A)
        s = intersection_form(A)
        s_inv = invert_by_fractions(s)
        size = A.size
        i_minus_zt = [
            [Fraction(int(r == c)) - z[c][r] for c in range(size)] for r in range(size)
        ]
        rhs = frac_mul(frac_mul([list(map(Fraction, row)) for row in s], i_minus_zt), s_inv)
        assert all(
            rhs[r][c] == z[r][c] for r in range(size) for c in range(size)
        )


def test_i_half_trace_counts_genera():
    st = BlockStructure((2, 4))
    out = invariants.i_half_trace(monomial("xz", 3), st, 3)
    assert out == NCSeries(2, 3, {(1,): 1, (2,): 2})


def test_balanced_pattern_enumeration():
    # prod over blocks of C(2 g_i, g_i) distinct diagonal 0/1 matrices, balanced per block
    for sizes in [(), (0,), (2,), (2, 4), (4, 0, 2), (6, 2)]:
        structure = BlockStructure(sizes)
        size = structure.total
        matrices = list(half_ones(structure))
        assert len(set(matrices)) == len(matrices) == math.prod(math.comb(s, s // 2) for s in sizes)
        for H in matrices:
            assert len(H) == size and all(len(row) == size for row in H)
            assert all(H[r][c] == 0 for r in range(size) for c in range(size) if r != c)
            diag = [H[r][r] for r in range(size)]
            assert set(diag) <= {0, 1}
            for i in range(1, structure.n + 1):
                assert 2 * sum(diag[r] for r in structure.block_range(i)) == sizes[i - 1]


def test_half_ones_order():
    # block by block in combinations order, the last block varying fastest
    assert list(half_ones(BlockStructure((2,)))) == [((1, 0), (0, 0)), ((0, 0), (0, 1))]
    diagonals = [tuple(H[r][r] for r in range(4)) for H in half_ones(BlockStructure((2, 2)))]
    assert diagonals == [(1, 0, 1, 0), (1, 0, 0, 1), (0, 1, 1, 0), (0, 1, 0, 1)]


# -- moves ---------------------------------------------------------------------------


def test_s1_identity():
    A = trefoil()
    assert move_s1(A, [[1, 0], [0, 1]]) == A


def test_s1_swap_on_trefoil():
    out = move_s1(trefoil(), [[0, 1], [1, 0]])
    assert out.entries == ((-1, 0), (1, -1))


def test_s1_conjugates_z():
    rng = random.Random(7)
    for A in random_batch(7, 8):
        P = random_block_unimodular(rng, A.structure)
        B = move_s1(A, P)
        assert validate(B) == []
        p_inv = invert_by_fractions(P)
        conj = frac_mul(frac_mul([list(map(Fraction, row)) for row in P], z_matrix(A)), p_inv)
        zb = z_matrix(B)
        assert all(
            conj[r][c] == zb[r][c] for r in range(A.size) for c in range(A.size)
        )


def test_s1_rejects_bad_p():
    A = trefoil()
    with pytest.raises(ValueError, match="unimodular"):
        move_s1(A, [[2, 0], [0, 1]])
    for P in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 0], [0, 1.0]], [[1, 0], [0, True]]):
        with pytest.raises(ValueError, match="not a 2x2 integer matrix"):
            move_s1(A, P)
    B = random_seifert(1, [1, 1], 1)
    bad = [[1, 0, 1, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
    with pytest.raises(ValueError, match="block diagonal"):
        move_s1(B, bad)


def test_s2_on_empty_matrix():
    empty = seifert_matrix([0], [])
    out = move_s2(empty, 1, "a", [])
    assert out.entries == ((0, 1), (0, 0))
    assert out.structure.sizes == (2,)
    out_b = move_s2(empty, 1, "b", [])
    assert out_b.entries == ((0, 0), (1, 0))


def test_s2_borders_trefoil():
    out = move_s2(trefoil(), 1, "a", [0, 0])
    assert out.structure.sizes == (4,)
    assert out.entries == (
        (-1, 1, 0, 0),
        (0, -1, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    )


def test_s2_outputs_validate_and_z_has_bordered_shape():
    rng = random.Random(13)
    for A in random_batch(13, 10):
        comp = rng.randint(1, A.n)
        variant = rng.choice("ab")
        rho = [rng.randint(-2, 2) for _ in range(A.size)]
        B = move_s2(A, comp, variant, rho)
        assert validate(B) == []
        zb = z_matrix(B)
        z = z_matrix(A)
        new1 = B.structure.offset(comp) + B.structure.sizes[comp - 1] - 2
        new2 = new1 + 1
        keep = [r for r in range(B.size) if r not in (new1, new2)]
        assert tuple(tuple(zb[r][c] for c in keep) for r in keep) == z
        # bordered shape: one new diagonal entry is 1, the other 0, and the
        # first new column vanishes against the old block
        assert all(zb[r][new1] == 0 for r in keep)
        if variant == "a":
            assert zb[new1][new1] == 1
            assert all(zb[new2][c] == 0 for c in range(B.size))
        else:
            assert zb[new2][new2] == 1
            assert all(zb[r][new1] == 0 for r in (new1, new2))
            assert zb[new1][new2] == 0
            assert all(zb[new2][c] == 0 for c in keep)


def test_s2_rejects_bad_arguments():
    A = trefoil()
    with pytest.raises(ValueError, match="component"):
        move_s2(A, 2, "a", [0, 0])
    with pytest.raises(ValueError, match="variant"):
        move_s2(A, 1, "c", [0, 0])
    with pytest.raises(ValueError, match="rho"):
        move_s2(A, 1, "a", [0])


@pytest.mark.parametrize("rho", [[0.7, True], [0, 1.0], [True, 0], [0, False], ["1", 0]])
def test_s2_rejects_rho_entries_that_are_not_ints(rho):
    # int() would truncate [0.7, True] to the border (0, 1)
    with pytest.raises(ValueError, match="not a 4x4 integer matrix"):
        move_s2(trefoil(), 1, "a", rho)


# -- reflection and direct sums ---------------------------------------------------------


def test_reflect_trefoil():
    out = reflect(trefoil())
    assert out.entries == ((-1, 0), (1, -1))
    z = z_matrix(trefoil())
    zr = z_matrix(out)
    assert zr == tuple(
        tuple((1 if r == c else 0) - z[r][c] for c in range(2)) for r in range(2)
    )


def test_reflect_is_involutive():
    for A in random_batch(17, 5):
        assert reflect(reflect(A)) == A


def test_reflect_z_conjugation_identity():
    for A in random_batch(19, 8):
        s = intersection_form(A)
        s_inv = invert_by_fractions(s)
        z = z_matrix(A)
        zt = [[Fraction(z[c][r]) for c in range(A.size)] for r in range(A.size)]
        conj = frac_mul(frac_mul([list(map(Fraction, row)) for row in s], zt), s_inv)
        zr = z_matrix(reflect(A))
        assert all(
            conj[r][c] == zr[r][c] for r in range(A.size) for c in range(A.size)
        )


def test_direct_sum_with_no_components_is_identity():
    empty = SeifertMatrix(BlockStructure(()), ())
    A = trefoil()
    assert direct_sum(empty, A) == A
    assert direct_sum(A, empty) == A


def test_direct_sum_of_trefoils():
    out = direct_sum(trefoil(), trefoil())
    assert out.structure.sizes == (2, 2)
    assert validate(out) == []
    assert block(out, 1, 2) == ((0, 0), (0, 0))


# -- random generator ----------------------------------------------------------------


def test_random_seifert_bound_zero_is_symplectic_seed():
    assert random_seifert(42, [1], 0).entries == ((0, 1), (0, 0))


def test_random_seifert_two_components_bound_zero():
    out = random_seifert(42, [1, 1], 0)
    assert out.structure.sizes == (2, 2)
    assert out.entries == (
        (0, 1, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 0),
    )


def test_random_seifert_always_validates():
    rng = random.Random(99)
    for _ in range(1000):
        genera = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        A = random_seifert_rng(rng, genera, rng.randint(0, 4))
        assert validate(A) == []


def test_random_seifert_deterministic_in_seed():
    assert random_seifert(5, [1, 2], 3) == random_seifert(5, [1, 2], 3)


def test_apply_random_moves_deterministic():
    A = trefoil()
    assert apply_random_moves(A, 11, 4) == apply_random_moves(A, 11, 4)


# -- presentation matrix ----------------------------------------------------------------


def test_presentation_of_trefoil():
    rows = presentation_matrix(trefoil(), 3)
    x = NCSeries.variable(1, 3, 1)
    one = NCSeries.one(1, 3)
    assert rows[0][0] == one + x
    assert rows[0][1] == x
    assert rows[1][0] == -x
    assert rows[1][1] == one


def test_presentation_of_stabilized_unknot():
    rows = presentation_matrix(stabilized_unknot(), 3)
    x = NCSeries.variable(1, 3, 1)
    one = NCSeries.one(1, 3)
    assert rows[0][0] == one + x
    assert rows[0][1].is_zero()
    assert rows[1][0].is_zero()
    assert rows[1][1] == one


def test_presentation_determinant_matches_torsion():
    # abelianized det(XZ + I) = prod_i (1 + x_i)^g_i times the torsion series
    from linkchi import commalg
    from linkchi.commalg import CommMatrix, CommSeries
    from linkchi.ncalg import abelianize

    for A in random_batch(23, 6, max_genus=1, bound=1):
        degree = 4
        rows = presentation_matrix(A, degree)
        comm_rows = [[abelianize(entry) for entry in row] for row in rows]
        det = commalg.det_unit(CommMatrix(comm_rows))
        expected = invariants.torsion_polynomial(A, degree)
        for i in range(1, A.n + 1):
            base = CommSeries.one(A.n, degree) + CommSeries.variable(A.n, degree, i)
            expected = expected * commalg.unit_power(base, A.structure.genus(i))
        assert det == expected


# -- file format -------------------------------------------------------------------------


def test_serialize_parse_round_trip():
    for A in random_batch(31, 12):
        assert parse(serialize(A)) == A


def test_parse_reports_position_on_bad_json():
    with pytest.raises(MatrixFormatError, match="line"):
        parse("{ not json")


def test_parse_rejects_missing_fields_and_shapes():
    with pytest.raises(MatrixFormatError, match="missing field"):
        parse('{"components": 1}')
    with pytest.raises(MatrixFormatError, match="block_sizes"):
        parse('{"components": 1, "block_sizes": [-2], "entries": []}')
    for sizes in ("[2.5]", "[2.0]", "[true]", '["2"]', '"2"', "{}", '""', "2", "null"):
        with pytest.raises(MatrixFormatError, match="block_sizes must be a list"):
            parse('{"components": 1, "block_sizes": %s, "entries": [[0, 1], [0, 0]]}' % sizes)
    for entries in ('""', "{}", "null"):
        with pytest.raises(MatrixFormatError, match="entries must be a 0x0 integer matrix"):
            parse('{"components": 1, "block_sizes": [0], "entries": %s}' % entries)
    with pytest.raises(MatrixFormatError, match="integer matrix"):
        parse('{"components": 1, "block_sizes": [2], "entries": [[1, 2], [3]]}')
    with pytest.raises(MatrixFormatError, match="integer matrix"):
        parse('{"components": 1, "block_sizes": [2], "entries": [[1, 2], [3, 0.5]]}')


def test_int_det_known_values():
    assert int_det([[0, 1], [-1, 0]]) == 1
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 0], [0, 0]]) == 0
    assert int_det([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == -3
