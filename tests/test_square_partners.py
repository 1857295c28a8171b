"""The composable pairs of squares, read from one grouping.

``square_partners`` is the only code that groups squares by a shared edge.
The square tables of the free categories, of explicit clones and of
``parity()`` are derived from it; they must equal the all-pairs
derivation of ``flat_tables_reference``, in insertion order too.  Its
pair counts must equal counts taken pair by pair.
"""

import pytest

from dblcheck import core
from dblcheck.core import (
    bool_matrix_double_category, explicit_clone, free_double_category, parity,
    square_partners, trivial, walk_h, walk_sq, walk_v)
from dblcheck.errors import MalformedTables
from dblcheck.hom import hom_double_category, populate_squares

import flat_tables_reference as reference
from test_core import preorder_fixture

TABLES = ("_hs", "_vs", "_hh", "_vv")

DERIVED = {
    "walk_h": walk_h, "walk_v": walk_v, "walk_sq": walk_sq,
    "clone-trivial": lambda: explicit_clone(trivial()),
    "clone-bool1": lambda: explicit_clone(bool_matrix_double_category(1)),
    "clone-preorder": lambda: explicit_clone(preorder_fixture()),
}


def tables(d):
    """The square and 1-cell tables of d as item lists, so that two
    compare equal only when filled in the same order."""
    return [list(getattr(d, t).items()) for t in TABLES]


def use_reference(monkeypatch):
    monkeypatch.setattr(core, "_derive_flat_tables",
                        reference.derive_flat_tables)


@pytest.mark.parametrize("name", sorted(DERIVED))
def test_derived_tables_match_the_all_pairs_reference(name, monkeypatch):
    got = tables(DERIVED[name]())
    assert got[0] and got[1]
    use_reference(monkeypatch)
    assert got == tables(DERIVED[name]())


def test_parity_tables_match_the_all_pairs_reference():
    d = parity()
    hs, vs = reference.parity_square_tables(d)
    assert list(d._hs.items()) == list(hs.items())
    assert list(d._vs.items()) == list(vs.items())


def broken():
    """A free category with squares s: a => b and t: b => c, whose
    vertical composite a => c is on no square."""
    return free_double_category(
        "broken", ["0", "1"],
        [("a", "0", "1"), ("b", "0", "1"), ("c", "0", "1")],
        squares=[("s", "a", "b", "1^0", "1^1"), ("t", "b", "c", "1^0", "1^1")])


def test_a_composite_on_no_square_raises_as_in_the_reference(monkeypatch):
    with pytest.raises(MalformedTables) as got:
        broken()
    use_reference(monkeypatch)
    with pytest.raises(MalformedTables) as want:
        broken()
    assert str(got.value) == str(want.value) == "flat table derivation failed"


COUNTED = {
    "bool1": lambda: list(
        bool_matrix_double_category(1).iter_flat_boundaries()),
    "parity": lambda: parity().sq_bounds,
    "hom-trivial-parity": lambda: populate_squares(
        hom_double_category(trivial(), parity(), bound=5000)).sq_bounds,
}


@pytest.mark.parametrize("name", sorted(COUNTED))
def test_partner_counts_match_pair_by_pair_counts(name):
    bounds = COUNTED[name]()
    beside, below = square_partners(bounds)
    assert ((sum(map(len, beside)), sum(map(len, below)))
            == reference.pair_counts(bounds))
    assert beside == [[s2 for s2, b2 in enumerate(bounds) if b2[2] == b[3]]
                      for b in bounds]
    assert below == [[s2 for s2, b2 in enumerate(bounds) if b2[0] == b[1]]
                     for b in bounds]
