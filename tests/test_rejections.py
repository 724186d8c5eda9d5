"""Inputs that the library rejects, one case each, and the no-op move.

Every case names the call and the start of its ``ValueError`` message.
"""

import random
from fractions import Fraction

import pytest

from helpers import trefoil
from linkchi import genfun, invariants, seifert
from linkchi.commalg import CommMatrix, CommSeries
from linkchi.ncalg import NCSeries, substitute
from linkchi.seifert import BlockStructure

# the (1,2) and (2,1) blocks are not transposes
INVALID = seifert.seifert_matrix([2, 2], [[0, 1, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]])
ODD = BlockStructure((2, 3))
X1 = NCSeries.variable(2, 3, 1)
Y1 = NCSeries.variable(1, 3, 1)
C = CommSeries.one(1, 3)
ST4 = BlockStructure((2, 2))


def identity_with(entry):
    """The 4 x 4 identity with ``entry`` at (1, 2): ``trace_at``'s M."""
    rows = [[int(r == c) for c in range(4)] for r in range(4)]
    rows[1][2] = entry
    return rows


CASES = {
    "torsion-invalid": (lambda: invariants.torsion_polynomial(INVALID, 3), "invalid Seifert matrix: "),
    "tr-monomial-invalid": (lambda: invariants.tr_monomial("xz", INVALID, 3), "invalid Seifert matrix: "),
    "chi-delta-invalid": (lambda: invariants.chi_delta(INVALID, 3), "invalid Seifert matrix: "),
    "i-half-trace-odd": (lambda: invariants.i_half_trace(genfun.delta_series(3), ODD, 3),
                         "half-ones matrix needs even block sizes"),
    # at the call, before any H is asked for
    "half-ones-odd": (lambda: seifert.half_ones(ODD), "half-ones matrix needs even block sizes"),
    "random-seifert-negative-bound": (lambda: seifert.random_seifert_rng(random.Random(0), [1], -1),
                                      "bound must be >= 0"),
    "comm-matrix-not-square": (lambda: CommMatrix([[C, C], [C]]), "matrix must be square"),
    "comm-matrix-mixed-n": (lambda: CommMatrix([[C, CommSeries.one(2, 3)], [C, C]]),
                            "entries disagree on n or truncation"),
    "comm-matrix-mixed-trunc": (lambda: CommMatrix([[C, C], [CommSeries.one(1, 2), C]]),
                                "entries disagree on n or truncation"),
    "substitute-image-count": (lambda: substitute(X1, [Y1]), "need exactly 2 images"),
    "substitute-mixed-n": (lambda: substitute(X1, [Y1, NCSeries.variable(2, 3, 1)]),
                           "variable-count mismatch among images"),
    "series-negative-n": (lambda: NCSeries(-1, 3), "variable count must be >= 0"),
    "series-negative-trunc": (lambda: CommSeries(1, -1), "truncation degree must be >= 0"),
    "comm-variable-zero": (lambda: CommSeries.variable(2, 3, 0), "letter 0 is not an integer in 1..2"),
    "comm-variable-past-n": (lambda: CommSeries.variable(2, 3, 3), "letter 3 is not an integer in 1..2"),
    "comm-variable-bool": (lambda: CommSeries.variable(2, 3, True),
                           "letter True is not an integer in 1..2"),
    "move-s2-component-bool": (lambda: seifert.move_s2(trefoil(), True, "a", [0, 0]),
                               "component True is not an integer in 1..1"),
    "move-s2-component-float": (lambda: seifert.move_s2(trefoil(), 1.0, "a", [0, 0]),
                                "component 1.0 is not an integer in 1..1"),
    "move-s2-component-str": (lambda: seifert.move_s2(trefoil(), "1", "a", [0, 0]),
                              "component '1' is not an integer in 1..1"),
    "move-s2-component-past-n": (lambda: seifert.move_s2(trefoil(), 2, "a", [0, 0]),
                                 "component 2 is not an integer in 1..1"),
    "series-negative-power": (lambda: (C + CommSeries.variable(1, 3, 1)) ** -1,
                              "negative powers need a series inverse"),
}
# trace_at reads M by the one matrix check: an entry is an int and not a bool
for name, entry in {"bool": True, "float": 1.5, "fraction": Fraction(1, 2), "str": "a"}.items():
    CASES["trace-at-%s-entry" % name] = (
        lambda entry=entry: invariants.trace_at(genfun.delta_series(3), ST4, identity_with(entry), 3),
        "not a 4x4 integer matrix")
# the oracles check a word as BiSeries does: the CLI's dotted syntax is not a word
for name, word in {"dotted": "x.z.x", "foreign-letter": "xqx", "capitals": "XZX", "int": 5}.items():
    for oracle in (invariants.tr_monomial, invariants.reconstruct_trace):
        CASES["%s-word-%s" % (oracle.__name__.replace("_", "-"), name)] = (
            lambda oracle=oracle, word=word: oracle(word, trefoil(), 4),
            "bad word %r: a str over x and z" % (word,))


@pytest.mark.parametrize("name", CASES)
def test_rejected_input_raises_value_error(name):
    call, message = CASES[name]
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(message)


def test_random_move_leaves_a_component_free_matrix_unchanged():
    empty = seifert.seifert_matrix([], [])
    rng = random.Random(0)
    assert seifert.random_move_rng(rng, empty) is empty
    assert rng.random() == random.Random(0).random()  # no draw was taken
