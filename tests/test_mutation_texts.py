"""Every mutant of ``tests/mutation.py`` still names text that is in the source.

The mutation script is not run by the test suite (it takes minutes), so
without this check a change to ``src/linkchi`` could leave a mutant's
``old`` text stale until the next time someone runs the script.  The
script leaves this file out of the suite it runs on a mutated copy.
"""

import pathlib

import pytest

from mutation import MUTANTS

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "linkchi"


def test_mutant_names_are_distinct():
    assert len({name for name, *_ in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("name, file, old, new", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_text_occurs_once(name, file, old, new):
    assert old != new
    assert (SRC / file).read_text(encoding="utf-8").count(old) == 1
