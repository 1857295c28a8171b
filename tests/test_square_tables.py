"""The square tables on every backend.

A flat category keeps the square composites and identity squares it
computes in ``_hs``, ``_vs``, ``_sqvid`` and ``_sqhid``.  After the lax
functor, quasi functor and tensor checks have run over flat inputs, every
kept entry must be what the flat formula gives, ``find_square`` on the
composed boundary, and none may sit under a negative id.  An explicit
category reads the same tables and raises as before on a stray or a
missing entry; a flat one raises when its predicate refuses the square a
missing entry names.  Hom and q-hom categories compose through the same
accessors, so they refuse a non-composable pair before anything is filed.
"""

import re

import pytest

from dblcheck.core import (
    bool_matrix_double_category, from_json, parity, to_json, trivial, walk_h,
    walk_v)
from dblcheck.errors import BoundaryMismatch, MalformedTables
from dblcheck.functor import check_lax_functor, identity_functor, strict_functor
from dblcheck.hom import populate_squares
from dblcheck.monads import enumerate_distributive_laws
from dblcheck.quasi import (
    _INTERCHANGERS, QuasiFunctor, _stored_cells, check_quasi_functor)
from dblcheck.tensor import verify_universal_property

from test_core import FLAT_INPUTS as CORE_INPUTS
from test_golden import TABLE_CATEGORIES

TABLES = ("_hs", "_vs", "_sqvid", "_sqhid")


def flat_copy(d):
    """d read back from its document as a flat category: its squares
    decided by their boundaries alone."""
    doc = to_json(d)
    doc["flat"] = True
    return from_json(doc)


FLAT_INPUTS = dict(
    {name: CORE_INPUTS[name] for name in (
        "bool1", "bool2", "preorder", "bool1xbool1xpreorder")},
    walk_h=lambda: flat_copy(walk_h()), walk_v=lambda: flat_copy(walk_v()))


def projection(A, X):
    """The quasi functor (A, X) -> X onto the second variable, for flat A
    and X: the identity of X in every member of the first family, a
    constant functor in every member of the second, and each interchanger
    the square on the boundary the quasi functor asks of it."""
    fam_a = {a: identity_functor(X) for a in range(A.n_objects)}
    fam_b = {b: strict_functor(A, X, {a: b for a in range(A.n_objects)},
                               {K: X.h_id(b) for K in range(A.n_hcells)},
                               {U: X.v_id(b) for U in range(A.n_vcells)})
             for b in range(X.n_objects)}
    q = QuasiFunctor(A, X, X, fam_a, fam_b, name="proj")
    for name, x_cells, a_cells in _INTERCHANGERS:
        store, bounds = getattr(q, name), getattr(q, "_%s_bounds" % name)
        for x in _stored_cells(X, x_cells):
            for y in _stored_cells(A, a_cells):
                store[x, y] = X.find_square(*bounds(x, y))
    return q


def formula(d, table, key):
    """What the flat backend computes for an entry of a square table."""
    if table == "_sqvid":
        return d.find_square(key, key, d.v_id(d.hsrc[key]),
                             d.v_id(d.htgt[key]))
    if table == "_sqhid":
        return d.find_square(d.h_id(d.vsrc[key]), d.h_id(d.vtgt[key]),
                             key, key)
    (t1, b1, l1, r1), (t2, b2, l2, r2) = (d.sq_bounds[s] for s in key)
    if table == "_hs":
        return d.find_square(d.hcomp_h(t1, t2), d.hcomp_h(b1, b2), l1, r2)
    return d.find_square(t1, b2, d.vcomp_v(l1, l2), d.vcomp_v(r1, r2))


def bad_entries(d):
    """The kept entries of the flat d that sit under a negative id or
    differ from the formula, as (table, key, kept)."""
    assert d.flat
    bad = []
    for table in TABLES:
        for key, s in list(getattr(d, table).items()):
            ids = key if isinstance(key, tuple) else (key,)
            if min(ids) < 0 or formula(d, table, key) != s:
                bad.append((table, key, s))
    return bad


def kept(d):
    return sum(len(getattr(d, table)) for table in TABLES)


@pytest.mark.parametrize("name", sorted(FLAT_INPUTS))
def test_kept_squares_are_the_flat_formula(name):
    X = FLAT_INPUTS[name]()
    A = flat_copy(walk_h())
    A.materialize_flat_squares()
    assert check_lax_functor(identity_functor(X)).passed
    rep = check_quasi_functor(projection(A, X))
    assert rep.passed, rep.laws_failed()
    if name != "bool2":  # its tensor presentation takes half a minute
        rep = verify_universal_property(projection(trivial(), X))
        assert rep.passed, rep.laws_failed()
    assert kept(X) and kept(A)
    assert bad_entries(X) == []
    assert bad_entries(A) == []


def test_kept_squares_of_bool3_distributive_laws():
    b3 = bool_matrix_double_category(3)
    laws = enumerate_distributive_laws(b3, 3)
    picked = laws[::len(laws) // 10][:10]
    assert len(picked) == 10
    for lw in picked:
        q = lw.quasi
        assert check_quasi_functor(q).passed
        assert verify_universal_property(q).passed
        for d in (q.A, q.B):
            assert bad_entries(d) == []
    assert kept(b3)
    assert bad_entries(b3) == []


def test_no_square_is_kept_under_a_negative_id():
    # sq_bounds[-1] names the last square interned so far, which changes
    # with the next one: a result read through -1 must not be kept
    d = bool_matrix_double_category(1)
    d.materialize_flat_squares()
    top, bottom, left, right = d.sq_bounds[-1]
    ids = d.sq_v_id(top), d.sq_v_id(bottom), d.sq_h_id(left), d.sq_h_id(right)
    d.hcomp_sq(ids[2], -1)
    d.hcomp_sq(-1, ids[3])
    d.vcomp_sq(ids[0], -1)
    d.vcomp_sq(-1, ids[1])
    # a negative 1-cell id names no 1-cell, so no square is interned on it
    n = d.n_squares
    for identity_square in (d.sq_v_id, d.sq_h_id):
        with pytest.raises(BoundaryMismatch, match="^square boundary names no"):
            identity_square(-1)
    assert d.n_squares == n
    assert kept(d)
    assert bad_entries(d) == []


@pytest.mark.parametrize("bound", [
    (-1, -1, 2, 2), (4, 4, -1, 2), (99, 0, 0, 0), (0, 0, 0, 3)])
def test_a_square_on_ids_outside_the_cells_is_refused(bound):
    # bool1 has 1h-cells 0..4 and 1v-cells 0..2; (-1, -1, 2, 2) would be a
    # second copy of the square on (4, 4, 2, 2)
    d = bool_matrix_double_category(1)
    n = d.materialize_flat_squares()
    with pytest.raises(BoundaryMismatch, match="^square boundary names no"):
        d.find_square(*bound)
    assert d.n_squares == n
    e = parity()
    n = e.n_squares
    with pytest.raises(BoundaryMismatch, match="^square boundary names no"):
        e.add_square("x", *bound)
    assert e.n_squares == n


def non_composable(first, second):
    """The first pair (x, y) of cells whose edges ``first[x]`` and
    ``second[y]`` differ, or None."""
    return next(((x, y) for x in range(len(first))
                 for y in range(len(second)) if first[x] != second[y]), None)


def edges(d, side):
    """The ``side`` edge (0 top, 1 bottom, 2 left, 3 right) of each square
    of d."""
    return [bounds[side] for bounds in d.sq_bounds]


def tables_and_counts(d):
    return ({table: dict(getattr(d, table)) for table in TABLES + ("_hh", "_vv")},
            (d.n_objects, d.n_hcells, d.n_vcells, d.n_squares))


# an explicit category, and the hom and q-hom categories of the cell-table
# goldens populated: each composes through DoubleCat's accessors
COMPOSING = dict(
    {name: (lambda build=build: populate_squares(build()))
     for name, build in TABLE_CATEGORIES.items()
     if name.startswith(("hom-", "qhom-"))}, parity=parity)


def test_stray_entry_on_a_non_composable_pair_still_raises():
    # a refused composite files nothing, and a stray table entry on the
    # pair is not read
    for name in sorted(COMPOSING):
        d = COMPOSING[name]()
        for compose, plant, first, second, message in (
                (d.hcomp_sq, d.set_hs, edges(d, 3), edges(d, 2),
                 "hcomp_sq: shared vertical edge differs$"),
                (d.vcomp_sq, d.set_vs, edges(d, 1), edges(d, 0),
                 "vcomp_sq: shared horizontal edge differs$"),
                (d.hcomp_h, d.set_hh, d.htgt, d.hsrc,
                 "hcomp_h: .* not composable$"),
                (d.vcomp_v, d.set_vv, d.vtgt, d.vsrc,
                 "vcomp_v: .* not composable$")):
            pair = non_composable(first, second)
            if pair is None:  # the 1-cells of a one-object category compose
                assert d.n_objects == 1, name
                continue
            x, y = pair
            for stray in (False, True):
                if stray:
                    plant(x, y, 0)
                before = tables_and_counts(d)
                with pytest.raises(BoundaryMismatch, match="^" + message):
                    compose(x, y)
                assert tables_and_counts(d) == before, name


@pytest.mark.parametrize("table, read, message", [
    ("_hs", lambda d, key: d.hcomp_sq(*key), "hcomp_sq table missing an entry"),
    ("_vs", lambda d, key: d.vcomp_sq(*key), "vcomp_sq table missing an entry"),
    ("_sqvid", lambda d, f: d.sq_v_id(f), "sq_v_id missing for h"),
    ("_sqhid", lambda d, u: d.sq_h_id(u), "sq_h_id missing for v"),
])
def test_missing_entry_still_raises(table, read, message):
    d = parity()
    entries = getattr(d, table)
    key = max(entries)  # the non-identity 1-cell of a kind, or a pair
    read(d, key)
    del entries[key]
    with pytest.raises(MalformedTables, match="^%s$" % message):
        read(d, key)


def less_one(bound):
    """bool1, whose predicate refuses the square on ``bound``."""
    d = bool_matrix_double_category(1)
    pred = d.square_pred
    d.set_flat(lambda *b: b != bound and pred(*b))
    return d


@pytest.mark.parametrize("op, side, other", [
    ("hcomp_sq", 3, 2), ("vcomp_sq", 1, 0)])
def test_flat_miss_of_a_composite_raises(op, side, other):
    # on a flat category the missing entry is computed, so only a
    # composite the predicate refuses raises
    d = bool_matrix_double_category(1)
    d.materialize_flat_squares()
    compose, bounds = getattr(d, op), d.sq_bounds
    b1, b2, b = next(
        (bounds[s1], bounds[s2], bounds[compose(s1, s2)])
        for s1 in range(d.n_squares) for s2 in range(d.n_squares)
        if bounds[s1][side] == bounds[s2][other]
        and compose(s1, s2) not in (s1, s2))
    d = less_one(b)
    s1, s2 = d.find_square(*b1), d.find_square(*b2)
    n = d.n_squares
    with pytest.raises(MalformedTables,
                       match="^flat category not closed under %s$" % op):
        getattr(d, op)(s1, s2)
    assert d.n_squares == n


@pytest.mark.parametrize("op", ["sq_v_id", "sq_h_id"])
def test_flat_miss_of_an_identity_square_raises(op):
    d = bool_matrix_double_category(1)
    if op == "sq_v_id":
        x = d.n_hcells - 1
        frame = (x, x, d.v_id(d.hsrc[x]), d.v_id(d.htgt[x]))
        message = "Id_" + d.hnames[x]
    else:
        x = d.n_vcells - 1
        frame = (d.h_id(d.vsrc[x]), d.h_id(d.vtgt[x]), x, x)
        message = "Id^" + d.vnames[x]
    d = less_one(frame)
    with pytest.raises(MalformedTables,
                       match="^flat category misses %s$" % re.escape(message)):
        getattr(d, op)(x)
    assert d.n_squares == 0
