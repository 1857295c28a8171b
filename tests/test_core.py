"""Tests for the core double-category structures and fixtures."""

import copy
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from dblcheck.core import (
    HCELL, VCELL, SQUARE, OBJECT, CellRef, DoubleCat, Gen, HComp, VComp,
    HId, VId, FIXTURES, bool_matrix_double_category, dc_product, eval_pasting,
    explicit_clone, from_json, parity, product_cell, product_cells,
    product_projections, to_json, trivial,
    ValidationReport, _validate_one_cat, composable_pairs,
    validate_double_category, walk_h, walk_sq, walk_v)
from dblcheck.errors import BoundaryMismatch, MalformedTables, SizeBound
from dblcheck.hom import (
    FLAVORS, HomFlavor, hom_double_category, populate_squares)
from dblcheck.monads import mnd_double_category
from dblcheck.quasi import QHomDoubleCat
from dblcheck.strictify import product_dom

from test_quasi import sign_quasi


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_validates(name):
    d = FIXTURES[name]()
    rep = validate_double_category(d)
    assert rep.passed, rep.laws_failed()


def test_trivial_shape():
    d = trivial()
    assert (d.n_objects, d.n_hcells, d.n_vcells) == (1, 1, 1)
    assert d.hcomp_h(0, 0) == 0 and d.vcomp_v(0, 0) == 0
    s = d.sq_id_obj(0)
    assert d.hcomp_sq(s, s) == s and d.vcomp_sq(s, s) == s


def test_walk_fixture_shapes():
    assert (walk_h().n_hcells, walk_h().n_vcells) == (3, 2)
    assert (walk_v().n_hcells, walk_v().n_vcells) == (2, 3)
    d = walk_sq()
    free = [s for s in range(d.n_squares) if d.sq_names[s] == "s"]
    assert len(free) == 1
    s = free[0]
    assert not d.globular_v(s) and not d.globular_h(s)


def test_parity_signs_add():
    d = parity()
    # horizontal composition adds the sign component
    a = d.parity_index[(1, 0, 0, 1, 1)]
    b = d.parity_index[(0, 1, 1, 0, 1)]
    assert d.parity_sign[d.hcomp_sq(a, b)] == 0
    c = d.parity_index[(0, 1, 1, 0, 0)]
    assert d.parity_sign[d.hcomp_sq(a, c)] == 1
    # vertical likewise
    x = d.parity_index[(1, 0, 0, 1, 1)]
    y = d.parity_index[(0, 1, 1, 0, 1)]
    assert d.parity_sign[d.vcomp_sq(x, y)] == 0


def test_parity_globular_inverses():
    d = parity()
    for f in range(2):
        for g in range(2):
            for e in (0, 1):
                s = d.parity_index[(f, g, 0, 0, e)]
                t = d.vertical_inverse(s)
                assert t == d.parity_index[(g, f, 0, 0, e)]


# Cell counts frozen from an independent counting script: matrices between
# index sets of sizes 0..n, functions likewise, and squares counted by a
# direct scan of the entailment condition.
BOOL_COUNTS = {1: (5, 3, 14), 2: (31, 11, 3089)}


@pytest.mark.parametrize("n", [1, 2])
def test_bool_matrix_counts(n):
    d = bool_matrix_double_category(n)
    nh, nv, ns = BOOL_COUNTS[n]
    assert d.n_hcells == nh
    assert d.n_vcells == nv
    assert d.materialize_flat_squares() == ns


def test_bool_matrix_size_bound():
    with pytest.raises(SizeBound):
        bool_matrix_double_category(4)


def test_bool_matrix_square_condition():
    d = bool_matrix_double_category(2)
    full = d.hindex[(2, 2, frozenset((y, x) for y in range(2) for x in range(2)))]
    empty = d.hindex[(2, 2, frozenset())]
    ident = d.h_id(d.objects.index("2"))
    swap = d.vindex[(2, 2, (1, 0))]
    # empty relation entails anything; full relation forces the target full
    assert d.square_exists(empty, full, swap, swap)
    assert d.square_exists(full, full, swap, swap)
    assert not d.square_exists(full, empty, swap, swap)
    assert d.square_exists(ident, full, swap, swap)


@pytest.mark.parametrize("backend", ["flat", "explicit"])
def test_square_exists_only_on_closing_boundaries(backend):
    """Neither backend has a square on a boundary that does not close or
    that names an id out of range (-1 or one past the last 1-cell);
    every closing boundary keeps its answer from the boundary walk."""
    d = bool_matrix_double_category(1)
    if backend == "explicit":
        d = explicit_clone(d)
    nh, nv = d.n_hcells, d.n_vcells
    closing = set(bool_matrix_double_category(1).iter_flat_boundaries())
    opened = 0
    for bound in itertools.product(range(nh), range(nh), range(nv),
                                   range(nv)):
        if not d._closes(*bound):
            opened += 1
            assert not d.square_exists(*bound), bound
        else:
            assert d.square_exists(*bound) == (bound in closing), bound
    assert opened == 210
    for bad in (-1, nh, nv):
        for i in range(4):
            bound = [0, 0, 0, 0]
            bound[i] = bad
            assert not d.square_exists(*bound), bound
    assert not d.square_exists(-1, -1, 2, 2)
    assert not d.square_exists(99, 0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_bool_matrix_flat_closure_property(data):
    d = bool_matrix_double_category(2)
    bounds = list(d.iter_flat_boundaries())
    b1 = data.draw(st.sampled_from(bounds))
    mates = [b for b in bounds if b[2] == b1[3]]
    b2 = data.draw(st.sampled_from(mates))
    s = d.hcomp_sq(d.find_square(*b1), d.find_square(*b2))
    assert d.sq_left(s) == b1[2] and d.sq_right(s) == b2[3]


def test_validator_detects_broken_unit():
    d = walk_h()
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "a"][0]
    d.set_hh(d.h_id(d.hsrc[f]), f, d.h_id(d.hsrc[f]))
    rep = validate_double_category(d)
    assert not rep.passed
    assert any(law in ("h-unit", "h-table-boundary") for law in rep.laws_failed())


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=9))
def test_composable_pairs_match_the_double_loop(cells):
    src = [a for a, _ in cells]
    tgt = [b for _, b in cells]
    naive = [(f, g) for f in range(len(cells)) for g in range(len(cells))
             if tgt[f] == src[g]]
    assert list(composable_pairs(src, tgt)) == naive


def test_composable_pairs_read_the_lists_live():
    # two loops on one object; a third loop appended while the pairs of
    # the first cell are yielded is a second cell from the next first
    # cell on, and never a first cell itself
    src, tgt = [0, 0], [0, 0]
    seen = []
    for f, g in composable_pairs(src, tgt):
        seen.append((f, g))
        if len(seen) == 1:
            src.append(0)
            tgt.append(0)
    assert seen == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]


def _two_objects_lazy(hh):
    """A flat category on objects a, b with one 1h-cell f: a -> b, whose
    1h-composites come from the function ``hh`` as they are asked for."""
    d = DoubleCat("lazy")
    a, b = d.add_object("a"), d.add_object("b")
    ida = d.add_hcell("1_a", a, a, identity_of=a)
    d.add_hcell("1_b", b, b, identity_of=b)
    f = d.add_hcell("f", a, b)
    for x in (a, b):
        u = d.add_vcell("1^" + d.objects[x], x, x, identity_of=x)
        d.set_vv(u, u, u)
    d.hcomp_h_fn = lambda g, h: hh(d, g, h)
    d.set_flat(lambda t, b, l, r: t == b)
    return d, ida, f


def test_validator_checks_lazy_composite_boundaries():
    # every composite is its first factor, so 1_a then f is computed
    # lazily as 1_a, which ends at a, not b
    d, ida, f = _two_objects_lazy(lambda d, g, h: g)
    assert d._hh == {}
    rep = validate_double_category(d)
    assert rep.failures == [("h-table-boundary", {"first": ida, "second": f})]


def test_validator_passes_lazy_composites_with_right_ends():
    def hh(d, g, h):
        return h if d.is_h_identity(g) else g
    d, *_ = _two_objects_lazy(hh)
    assert validate_double_category(d).passed


def test_validator_reports_missing_composites():
    # an explicit table with no entry for g then f is not total: each
    # missing pair is a failure, not an error from the associativity pass
    d = from_json({
        "objects": ["a", "b"], "flat": True,
        "hcells": [{"name": "f", "src": "a", "tgt": "b"},
                   {"name": "g", "src": "b", "tgt": "a"}],
        "hcomp_h": [["f", "g", "1_a"]]})
    g, f = d.hnames.index("g"), d.hnames.index("f")
    rep = validate_double_category(d)
    assert rep.failures == [("h-table-total", {"first": g, "second": f})]


def test_validator_detects_broken_interchange():
    d = parity()
    a = d.parity_index[(1, 0, 0, 1, 1)]
    b = d.parity_index[(0, 1, 1, 0, 1)]
    good = d._hs[(a, b)]
    flipped = d.parity_index[d.sq_bounds[good] + (1 - d.parity_sign[good],)]
    d.set_hs(a, b, flipped)
    rep = validate_double_category(d)
    assert not rep.passed


def test_validator_detects_flat_closure_gap():
    d = bool_matrix_double_category(1)
    top, bottom = d.h_id(0), d.h_id(1)
    orig = d.square_pred

    def pred(t, b, l, r):
        # deny the horizontal identity square on the unique 1v-cell 0 -> 1
        if (t, b) == (top, bottom) and l == r:
            return False
        return orig(t, b, l, r)

    d.square_pred = pred
    rep = validate_double_category(d)
    assert not rep.passed
    assert "sq-h-id-missing" in rep.laws_failed()


@pytest.mark.parametrize("bound, failure", [
    ((3, 3, 2, 2), ("sq-v-id-missing", {"hcell": CellRef(HCELL, 3)})),
    ((0, 4, 1, 1), ("sq-h-id-missing", {"vcell": CellRef(VCELL, 1)})),
], ids=["Id_M3", "Id^f1"])
def test_flat_identity_square_denied(bound, failure):
    # bool1's empty matrix M3: 1 -> 1 and function f1: 0 -> 1 are not
    # identities; their identity squares are missing and the composites
    # that land on them fail closure after
    d = bool_matrix_double_category(1)
    orig = d.square_pred
    d.square_pred = lambda t, b, l, r: (
        (t, b, l, r) != bound and orig(t, b, l, r))
    assert validate_double_category(d).failures[0] == failure


@pytest.mark.parametrize("mutate, failure", [
    (lambda d: d._sqhid.__setitem__(0, d.parity_index[(0, 0, 0, 0, 1)]),
     "sq-obj-id"),
    (lambda d: d._h_id.__setitem__(0, None), "h-identity-missing"),
    (lambda d: d._v_id.__setitem__(0, None), "v-identity-missing"),
], ids=["sign-1-Id^1", "no-h-identity", "no-v-identity"])
def test_parity_identity_mutants(mutate, failure):
    # Id^1 on the identity 1v-cell moved to the sign-1 square on its
    # boundary is no longer Id_1 on the identity 1h-cell
    d = parity()
    mutate(d)
    assert validate_double_category(d).failures == [
        (failure, {"object": CellRef(OBJECT, 0)})]


def idempotent_square_category():
    """One object, no 1h-cell but its identity, 1v-cells 1 and e with
    e;e = e, and on the boundary of Id^e a second square E, absorbing
    under both compositions of squares on e.  Id^e stacked on Id^e is E,
    so the horizontal identity squares are not functorial, while every
    other law holds: E;E = E keeps associativity and interchange, and the
    units are untouched."""
    d = DoubleCat("idem")
    a = d.add_object("*")
    h = d.add_hcell("1_*", a, a, identity_of=a)
    one = d.add_vcell("1^*", a, a, identity_of=a)
    e = d.add_vcell("e", a, a)
    d.set_hh(h, h, h)
    for u in (one, e):
        for v in (one, e):
            d.set_vv(u, v, one if u == v == one else e)
    i1 = d.add_square("Id^1", h, h, one, one)
    ie = d.add_square("Id^e", h, h, e, e)
    big = d.add_square("E", h, h, e, e)
    d.set_hs(i1, i1, i1)
    for s in (ie, big):
        d.set_vs(i1, s, s)
        d.set_vs(s, i1, s)
        for t in (ie, big):
            d.set_hs(s, t, ie if s == t == ie else big)
            d.set_vs(s, t, big)
    d.set_vs(i1, i1, i1)
    d.set_sq_v_id(h, i1)
    d.set_sq_h_id(one, i1)
    d.set_sq_h_id(e, ie)
    return d


def test_horizontal_identity_squares_not_functorial():
    assert validate_double_category(idempotent_square_category()).failures \
        == [("sq-h-id-functorial", {"first": CellRef(VCELL, 1),
                                    "second": CellRef(VCELL, 1)})]


# -- flat closure: merged bitset check against the pair-by-pair reference --
# the closure pass tests, for each shared edge and left square group, the
# right groups merged by the composite of their top edge with the left one;
# the inputs below compare its failure lists, witnesses and order included,
# with a scan that checks one pair of squares at a time

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def reference_flat_failures(d):
    """Failures of the flat square checks, found pair by pair.

    The reference for the merged check in ``validate_double_category``:
    identity squares, then a scan over the squares that checks each one's
    pairs as right factor, then as top factor.  Run it after
    ``validate_double_category``, which fills the 1-cell tables it reads.
    """
    rep = ValidationReport()
    for f in range(d.n_hcells):
        if not d.square_exists(f, f, d.v_id(d.hsrc[f]), d.v_id(d.htgt[f])):
            rep.add("sq-v-id-missing", hcell=CellRef(HCELL, f))
    for u in range(d.n_vcells):
        if not d.square_exists(d.h_id(d.vsrc[u]), d.h_id(d.vtgt[u]), u, u):
            rep.add("sq-h-id-missing", vcell=CellRef(VCELL, u))
    bounds = list(d.iter_flat_boundaries())
    by_right, by_top = {}, {}
    for b in bounds:
        by_right.setdefault(b[3], []).append(b)
        by_top.setdefault(b[0], []).append(b)
    have = set(bounds)
    hh, vv = d._hh, d._vv
    for b2 in bounds:
        for b1 in by_right.get(b2[2], []):
            if (hh[b1[0], b2[0]], hh[b1[1], b2[1]], b1[2], b2[3]) not in have:
                rep.add("hcomp-sq-closure", left=b1, right=b2)
        for b1 in by_top.get(b2[1], []):
            if (b2[0], b1[1], vv[b2[2], b1[2]], vv[b2[3], b1[3]]) not in have:
                rep.add("vcomp-sq-closure", top=b2, bottom=b1)
    return rep.failures


def closure_pairs(d):
    bounds = list(d.iter_flat_boundaries())
    return sum(1 for b1 in bounds for b2 in bounds if b1[3] == b2[2]) + \
        sum(1 for b1 in bounds for b2 in bounds if b1[1] == b2[0])


def without(d, dropped):
    """``d`` with the squares on the given boundaries removed."""
    pred = d.square_pred
    dropped = set(dropped)
    d.set_flat(lambda t, b, l, r: (t, b, l, r) not in dropped
               and pred(t, b, l, r))
    return d


def is_identity_boundary(d, b):
    t, o, l, r = b
    return ((t == o and d.is_v_identity(l) and d.is_v_identity(r))
            or (l == r and d.is_h_identity(t) and d.is_h_identity(o)))


def bool2_minus_composite(seed):
    """bool2 less one non-identity square that composes two others."""
    d = bool_matrix_double_category(2)
    bounds = list(d.iter_flat_boundaries())
    plain = [b for b in bounds if not is_identity_boundary(d, b)]
    rng = random.Random(seed)
    while True:
        b1 = rng.choice(plain)
        mates = [b for b in plain if b[2] == b1[3]]
        if not mates:
            continue
        b2 = rng.choice(mates)
        s = (d.hcomp_h(b1[0], b2[0]), d.hcomp_h(b1[1], b2[1]), b1[2], b2[3])
        if s not in (b1, b2) and not is_identity_boundary(d, s):
            return without(d, [s])


def bool2_minus_random(seed, k):
    d = bool_matrix_double_category(2)
    bounds = list(d.iter_flat_boundaries())
    return without(d, random.Random(seed).sample(bounds, k))


def preorder_fixture():
    with open(os.path.join(FIXTURES_DIR, "preorder.json")) as fh:
        return from_json(json.load(fh))


FLAT_INPUTS = {
    "bool1": lambda: bool_matrix_double_category(1),
    "bool2": lambda: bool_matrix_double_category(2),
    "preorder": preorder_fixture,
    "bool1xbool1xpreorder": lambda: dc_product(dc_product(
        bool_matrix_double_category(1), bool_matrix_double_category(1)),
        preorder_fixture()),
}
FLAT_INPUTS.update({"bool2-minus-composite-%d" % seed:
                    (lambda seed=seed: bool2_minus_composite(seed))
                    for seed in range(5)})
FLAT_INPUTS.update({"bool2-minus-%d-random" % k:
                    (lambda k=k: bool2_minus_random(k, k))
                    for k in (5, 30)})


def assert_same_as_reference(d):
    rep = validate_double_category(d)
    assert rep.failures == reference_flat_failures(d)
    return rep


@pytest.mark.parametrize("name", sorted(FLAT_INPUTS))
def test_flat_closure_matches_reference(name):
    rep = assert_same_as_reference(FLAT_INPUTS[name]())
    assert rep.passed == (name in ("bool1", "bool2", "preorder",
                                   "bool1xbool1xpreorder"))


def null_monoid_category(n_h, n_v):
    """One object; its 1h-cells and its 1v-cells are each a monoid whose
    cell 0 is the identity, whose last cell is a zero, and in which any two
    other cells compose to the zero, so most composable pairs share one
    composite.  The ranks 0 (identity), 1 and 2 (zero) map both monoids
    into {0, 1, 2} under addition capped at 2, an ordered commutative
    monoid, and a square exists when its top then right edge outranks its
    left edge then bottom: closed under both compositions, and true of
    every identity square."""
    d = DoubleCat("null%d,%d" % (n_h, n_v))
    a = d.add_object("*")
    for n, add in ((n_h, d.add_hcell), (n_v, d.add_vcell)):
        for x in range(n):
            add("1" if x == 0 else "0" if x == n - 1 else "x%d" % x, a, a,
                identity_of=a if x == 0 else None)

    def comp(n):
        return lambda x, y: y if x == 0 else x if y == 0 else n - 1

    def rank(x, n):
        return 0 if x == 0 else 1 if x < n - 1 else 2

    d.hcomp_h_fn, d.vcomp_v_fn = comp(n_h), comp(n_v)
    d.set_flat(lambda t, o, l, r: min(2, rank(t, n_h) + rank(r, n_v))
               >= min(2, rank(l, n_v) + rank(o, n_h)))
    return d


def transpose(d):
    """The flat d with its horizontal and vertical 1-cells swapped: the
    square (t, o, l, r) of d is the square (l, r, t, o) here."""
    e = DoubleCat(d.name + "^T")
    for x in d.objects:
        e.add_object(x)
    for names, src, tgt, is_id, add in (
            (d.vnames, d.vsrc, d.vtgt, d.is_v_identity, e.add_hcell),
            (d.hnames, d.hsrc, d.htgt, d.is_h_identity, e.add_vcell)):
        for x, name in enumerate(names):
            add(name, src[x], tgt[x],
                identity_of=src[x] if is_id(x) else None)
    e.hcomp_h_fn, e.vcomp_v_fn = d.vcomp_v, d.hcomp_h
    pred = d.square_pred
    e.set_flat(lambda t, o, l, r: pred(l, r, t, o))
    return e


MERGING_INPUTS = {
    "null5,3": lambda: null_monoid_category(5, 3),
    "null5,3-transposed": lambda: transpose(null_monoid_category(5, 3)),
}


@pytest.mark.parametrize("name", sorted(MERGING_INPUTS))
def test_flat_closure_matches_reference_where_composites_merge(name):
    # the right squares of a shared edge whose tops compose with a left
    # top to one cell are tested together: with one square removed, the
    # pairs that miss are each told apart from the others tested with them
    assert assert_same_as_reference(MERGING_INPUTS[name]()).passed
    bounds = list(MERGING_INPUTS[name]().iter_flat_boundaries())
    laws = set()
    for b in bounds:
        rep = assert_same_as_reference(without(MERGING_INPUTS[name](), [b]))
        laws.update(rep.laws_failed())
    assert {"hcomp-sq-closure", "vcomp-sq-closure"} <= laws


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_flat_closure_matches_reference_on_deletions(data):
    d = bool_matrix_double_category(2)
    bounds = list(d.iter_flat_boundaries())
    dropped = data.draw(st.sets(st.sampled_from(bounds), max_size=40))
    assert_same_as_reference(without(d, dropped))


def test_flat_closure_limit_counts_pairs():
    d = bool_matrix_double_category(1)
    pairs = closure_pairs(d)
    assert validate_double_category(d, closure_limit=pairs).passed
    rep = validate_double_category(d, closure_limit=pairs - 1)
    assert rep.failures == [("flat-too-large",
                             {"limit": pairs - 1, "pairs": pairs})]


def test_capped_flat_validation_never_passes_silently():
    rep = validate_double_category(bool2_minus_composite(0),
                                   closure_limit=5000)
    assert not rep.passed
    assert rep.laws_failed() == ["flat-too-large"]



# -- 1-cell laws: rows of the totality pass against the composition calls ----


def reference_one_cat_failures(d):
    """Failures of the 1-cell checks of ``validate_double_category``, with
    every composite of every law instance taken through ``hcomp_h`` or
    ``vcomp_v``: horizontal cells first, then vertical, in the same
    instance order.  A lazy composite may add cells as it goes."""
    rep = ValidationReport()
    for tag, n, src, tgt, comp, table, ident in (
            ("h", d.n_hcells, d.hsrc, d.htgt, d.hcomp_h, d._hh, d.h_id),
            ("v", d.n_vcells, d.vsrc, d.vtgt, d.vcomp_v, d._vv, d.v_id)):
        bad = False
        for (f, g), h in list(table.items()):
            if tgt[f] != src[g] or src[h] != src[f] or tgt[h] != tgt[g]:
                rep.add(tag + "-table-boundary", first=f, second=g)
                bad = True
        if bad:
            continue
        for f in range(n):
            for g in range(n):
                if tgt[f] != src[g]:
                    continue
                try:
                    fg = comp(f, g)
                except MalformedTables:
                    rep.add(tag + "-table-total", first=f, second=g)
                    bad = True
                    continue
                if src[fg] != src[f] or tgt[fg] != tgt[g]:
                    rep.add(tag + "-table-boundary", first=f, second=g)
                    bad = True
        if bad:
            continue
        for f in range(n):
            for g in range(n):
                if tgt[f] != src[g]:
                    continue
                for h in range(n):
                    if tgt[g] == src[h] and (comp(comp(f, g), h)
                                             != comp(f, comp(g, h))):
                        rep.add(tag + "-assoc", first=f, second=g, third=h)
        for f in range(n):
            left_id, right_id = ident(src[f]), ident(tgt[f])
            if left_id is None or right_id is None:
                continue
            if comp(left_id, f) != f or comp(f, right_id) != f:
                rep.add(tag + "-unit", cell=f)
    return rep.failures


def one_cat_failures(d):
    """Failures of the 1-cell checks of ``validate_double_category``."""
    rep = ValidationReport()
    _validate_one_cat(rep, "h", d.n_hcells, d.hsrc, d.htgt, d.hcomp_h,
                      d._hh, d.h_id, d.n_objects, d)
    _validate_one_cat(rep, "v", d.n_vcells, d.vsrc, d.vtgt, d.vcomp_v,
                      d._vv, d.v_id, d.n_objects, d)
    return rep.failures


def non_associative_loops():
    """One object with loops a, b in either direction whose tables are
    unital but not associative: (a a) a = b a = a, a (a a) = a b = 1."""
    rows = [["a", "a", "b"], ["a", "b", "1"], ["b", "a", "a"], ["b", "b", "a"]]
    return from_json({
        "objects": ["x"], "flat": True,
        "hcells": [{"name": n, "src": "x", "tgt": "x"} for n in "ab"],
        "vcells": [{"name": n, "src": "x", "tgt": "x"} for n in "ab"],
        "hcomp_h": [[f, g, "1_x" if h == "1" else h] for f, g, h in rows],
        "vcomp_v": [[f, g, "1^x" if h == "1" else h] for f, g, h in rows]})


def growing_qhom(signs=((0, 1), (0, 0), (1, 0))):
    """A q-hom category on the sign quasi functors with these signs, each
    with a q-horizontal transformation to the next, and no square
    populated: the 1-cell pass adds the composites of the chain.  On three
    quasi functors, their one composite is a sixth horizontal cell."""
    from test_quasi import sign_q_hor, sign_quasi
    q1 = sign_quasi(dict(enumerate(signs[0])))
    qs = [q1] + [sign_quasi(dict(enumerate(s)), w=q1.A, t=q1.B, p=q1.C)
                 for s in signs[1:]]
    qh = QHomDoubleCat(q1.A, q1.B, q1.C)
    for q in qs:
        qh.intern_quasi(q)
    for q, q_next in zip(qs, qs[1:]):
        qh.intern_q_hor(sign_q_hor(q, q_next))
    return qh


def log_new_cell_composites(d, log):
    """Make d's composition functions append ``(kind, f, g, fg)`` to
    ``log`` for each call on a cell that d did not have when this ran."""
    for kind, n, name in (("h", d.n_hcells, "hcomp_h"),
                          ("v", d.n_vcells, "vcomp_v")):
        def call(f, g, kind=kind, n=n, comp=getattr(d, name)):
            fg = comp(f, g)
            if max(f, g) >= n:
                log.append((kind, f, g, fg))
            return fg
        setattr(d, name, call)


ONE_CAT_INPUTS = {
    **{"fixture-" + name: build for name, build in FIXTURES.items()},
    "hom-hop": lambda: populated_hom("hop"),
    "mnd-parity": lambda: populated_mnd(),
    "non-associative-loops": non_associative_loops,
    "growing-qhom": growing_qhom,
    # the chain's composite of three is composed from both sides, on
    # cells the totality pass added
    "growing-qhom-chain": lambda: growing_qhom(
        ((0, 1), (0, 0), (1, 0), (1, 1))),
}


@pytest.mark.parametrize("name", sorted(ONE_CAT_INPUTS))
def test_one_cat_laws_match_reference(name):
    d, ref = ONE_CAT_INPUTS[name](), ONE_CAT_INPUTS[name]()
    sizes = (d.n_hcells, d.n_vcells)
    log, ref_log = [], []
    log_new_cell_composites(d, log)
    log_new_cell_composites(ref, ref_log)
    failures = one_cat_failures(d)
    assert failures == reference_one_cat_failures(ref)
    # a cell the pass adds is composed in the same order, left side first,
    # so a lazy composite gets the same id on both sides
    assert log == ref_log
    assert (d.n_hcells, d.n_vcells) == (ref.n_hcells, ref.n_vcells)
    assert d.hsrc == ref.hsrc and d.htgt == ref.htgt
    assert d.vsrc == ref.vsrc and d.vtgt == ref.vtgt
    if name == "non-associative-loops":
        laws = {law for law, _ in failures}
        assert laws == {"h-assoc", "v-assoc"}
    else:
        assert failures == []
    if name == "growing-qhom":
        assert sizes[0] == 5 and d.n_hcells == 6
    if name == "growing-qhom-chain":
        # cells 4, 5, 6 are t1, t2, t3 and 7, 8 are t1 t2, t2 t3: the
        # composite of all three is cell 9, first from (t1 t2) t3
        assert sizes[0] == 7 and d.n_hcells == 10
        i = log.index(("h", 7, 6, 9))
        assert log[i + 1] == ("h", 4, 8, 9)


# -- explicit laws: direct table reads against the method-call reference ----


def reference_explicit_failures(d, max_checks=None, seed=0):
    """Failures of the explicit square checks, with every composite taken
    through ``hcomp_sq``/``vcomp_sq`` and every boundary through the
    accessors.

    The reference for the table reads in ``validate_double_category``, with
    the same instance order and the same seeded draws.  Run it after
    ``validate_double_category``, which fills the 1-cell tables it reads.
    """
    rep = ValidationReport()
    ns = d.n_squares
    for f in range(d.n_hcells):
        if f not in d._sqvid:
            rep.add("sq-v-id-missing", hcell=CellRef(HCELL, f))
        else:
            s = d._sqvid[f]
            if d.sq_bounds[s] != (f, f, d.v_id(d.hsrc[f]), d.v_id(d.htgt[f])):
                rep.add("sq-v-id-boundary", hcell=CellRef(HCELL, f))
    for u in range(d.n_vcells):
        if u not in d._sqhid:
            rep.add("sq-h-id-missing", vcell=CellRef(VCELL, u))
        else:
            s = d._sqhid[u]
            if d.sq_bounds[s] != (d.h_id(d.vsrc[u]), d.h_id(d.vtgt[u]), u, u):
                rep.add("sq-h-id-boundary", vcell=CellRef(VCELL, u))
    if not rep.passed:
        return rep.failures
    for a in range(d.n_objects):
        if d.sq_h_id(d.v_id(a)) != d.sq_v_id(d.h_id(a)):
            rep.add("sq-obj-id", object=CellRef(OBJECT, a))
    by_left, by_top = {}, {}
    for s in range(ns):
        by_left.setdefault(d.sq_left(s), []).append(s)
        by_top.setdefault(d.sq_top(s), []).append(s)
    hpairs = [(s1, s2) for s1 in range(ns)
              for s2 in by_left.get(d.sq_right(s1), [])]
    vpairs = [(s1, s2) for s1 in range(ns)
              for s2 in by_top.get(d.sq_bottom(s1), [])]
    for s1, s2 in hpairs:
        if (s1, s2) not in d._hs:
            rep.add("hcomp-sq-total", left=CellRef(SQUARE, s1), right=CellRef(SQUARE, s2))
            continue
        s = d._hs[(s1, s2)]
        want = (d.hcomp_h(d.sq_top(s1), d.sq_top(s2)),
                d.hcomp_h(d.sq_bottom(s1), d.sq_bottom(s2)),
                d.sq_left(s1), d.sq_right(s2))
        if d.sq_bounds[s] != want:
            rep.add("hcomp-sq-boundary", left=CellRef(SQUARE, s1), right=CellRef(SQUARE, s2))
    for s1, s2 in vpairs:
        if (s1, s2) not in d._vs:
            rep.add("vcomp-sq-total", top=CellRef(SQUARE, s1), bottom=CellRef(SQUARE, s2))
            continue
        s = d._vs[(s1, s2)]
        want = (d.sq_top(s1), d.sq_bottom(s2),
                d.vcomp_v(d.sq_left(s1), d.sq_left(s2)),
                d.vcomp_v(d.sq_right(s1), d.sq_right(s2)))
        if d.sq_bounds[s] != want:
            rep.add("vcomp-sq-boundary", top=CellRef(SQUARE, s1), bottom=CellRef(SQUARE, s2))
    if not rep.passed:
        return rep.failures
    for s in range(ns):
        if d.vcomp_sq(d.sq_v_id(d.sq_top(s)), s) != s \
                or d.vcomp_sq(s, d.sq_v_id(d.sq_bottom(s))) != s:
            rep.add("vcomp-sq-unit", square=CellRef(SQUARE, s))
        if d.hcomp_sq(d.sq_h_id(d.sq_left(s)), s) != s \
                or d.hcomp_sq(s, d.sq_h_id(d.sq_right(s))) != s:
            rep.add("hcomp-sq-unit", square=CellRef(SQUARE, s))
    rng = random.Random(seed)

    def triples(pairs, extend):
        biggest = max((len(g) for g in by_left.values()), default=0)
        biggest = max(biggest, max((len(g) for g in by_top.values()), default=0))
        if max_checks is None or len(pairs) * biggest <= max_checks:
            for s1, s2 in pairs:
                for s3 in extend(s2):
                    yield (s1, s2, s3)
            return
        for _ in range(max_checks):
            s1, s2 = pairs[rng.randrange(len(pairs))]
            grp = extend(s2)
            if grp:
                yield (s1, s2, grp[rng.randrange(len(grp))])

    for s1, s2, s3 in triples(hpairs, lambda s: by_left.get(d.sq_right(s), [])):
        if d.hcomp_sq(d.hcomp_sq(s1, s2), s3) != d.hcomp_sq(s1, d.hcomp_sq(s2, s3)):
            rep.add("hcomp-sq-assoc", first=CellRef(SQUARE, s1),
                    second=CellRef(SQUARE, s2), third=CellRef(SQUARE, s3))
    for s1, s2, s3 in triples(vpairs, lambda s: by_top.get(d.sq_bottom(s), [])):
        if d.vcomp_sq(d.vcomp_sq(s1, s2), s3) != d.vcomp_sq(s1, d.vcomp_sq(s2, s3)):
            rep.add("vcomp-sq-assoc", first=CellRef(SQUARE, s1),
                    second=CellRef(SQUARE, s2), third=CellRef(SQUARE, s3))
    for f in range(d.n_hcells):
        for g in range(d.n_hcells):
            if d.htgt[f] == d.hsrc[g]:
                if d.hcomp_sq(d.sq_v_id(f), d.sq_v_id(g)) != d.sq_v_id(d.hcomp_h(f, g)):
                    rep.add("sq-v-id-functorial", first=CellRef(HCELL, f),
                            second=CellRef(HCELL, g))
    for u in range(d.n_vcells):
        for v in range(d.n_vcells):
            if d.vtgt[u] == d.vsrc[v]:
                if d.vcomp_sq(d.sq_h_id(u), d.sq_h_id(v)) != d.sq_h_id(d.vcomp_v(u, v)):
                    rep.add("sq-h-id-functorial", first=CellRef(VCELL, u),
                            second=CellRef(VCELL, v))
    by_tl = {}
    for s in range(ns):
        by_tl.setdefault((d.sq_top(s), d.sq_left(s)), []).append(s)

    def grids():
        big_top = max((len(g) for g in by_top.values()), default=0)
        big_tl = max((len(g) for g in by_tl.values()), default=0)
        if max_checks is None or len(hpairs) * big_top * big_tl <= max_checks:
            for a, b in hpairs:
                for c in by_top.get(d.sq_bottom(a), []):
                    for e in by_tl.get((d.sq_bottom(b), d.sq_right(c)), []):
                        yield (a, b, c, e)
            return
        for _ in range(max_checks):
            a, b = hpairs[rng.randrange(len(hpairs))]
            cs = by_top.get(d.sq_bottom(a), [])
            if not cs:
                continue
            c = cs[rng.randrange(len(cs))]
            es = by_tl.get((d.sq_bottom(b), d.sq_right(c)), [])
            if es:
                yield (a, b, c, es[rng.randrange(len(es))])

    for a, b, c, e in grids():
        lhs = d.vcomp_sq(d.hcomp_sq(a, b), d.hcomp_sq(c, e))
        rhs = d.hcomp_sq(d.vcomp_sq(a, c), d.vcomp_sq(b, e))
        if lhs != rhs:
            rep.add("interchange", tl=CellRef(SQUARE, a), tr=CellRef(SQUARE, b),
                    bl=CellRef(SQUARE, c), br=CellRef(SQUARE, e))
    return rep.failures


def swap_composite(d, table, seed):
    """``d`` with one seeded entry of ``d._hs`` or ``d._vs`` replaced by
    another square on the same boundary (a sign flip in parity), or by any
    other square when its boundary carries no second one."""
    entries = getattr(d, table)
    key = sorted(entries)[random.Random(seed).randrange(len(entries))]
    good = entries[key]
    others = [s for s in d._sq_by_bound[d.sq_bounds[good]] if s != good]
    entries[key] = others[0] if others else (good + 1) % d.n_squares
    return d


def drop_composite(d, seed):
    """``d`` less one seeded entry of its horizontal square table."""
    del d._hs[sorted(d._hs)[random.Random(seed).randrange(len(d._hs))]]
    return d


def break_composite_boundary(d, seed):
    """``d`` with one seeded ``_vs`` entry set to a square on another
    boundary."""
    key = sorted(d._vs)[random.Random(seed).randrange(len(d._vs))]
    bound = d.sq_bounds[d._vs[key]]
    d._vs[key] = next(s for s in range(d.n_squares) if d.sq_bounds[s] != bound)
    return d


def populated_hom(flavor):
    h = hom_double_category(trivial(), parity(), FLAVORS[flavor], bound=5000)
    return populate_squares(h)


def populated_mnd():
    return populate_squares(mnd_double_category(parity(), bound=5000))


def unfactored(d):
    """A copy of the product d that shares its tables but not its
    factors, so validation evaluates its square laws."""
    c = copy.copy(d)
    del c._factors
    return c


# the checks of the explicit square pass, in report order
SQUARE_PASS = [
    "sq-v-id-missing", "sq-v-id-boundary", "sq-h-id-missing",
    "sq-h-id-boundary", "sq-obj-id", "hcomp-sq-total", "hcomp-sq-boundary",
    "vcomp-sq-total", "vcomp-sq-boundary", "vcomp-sq-unit", "hcomp-sq-unit",
    "hcomp-sq-assoc", "vcomp-sq-assoc", "sq-v-id-functorial",
    "sq-h-id-functorial", "interchange"]


# name -> (build, max_checks, seed)
EXPLICIT_INPUTS = {
    "parity": (parity, None, 0),
    "parityxwalk_h": (lambda: dc_product(parity(), walk_h()), None, 0),
    "mnd-parity": (populated_mnd, 5000, 1),
    "parityxparity-unfactored-sampled-0": (
        lambda: unfactored(dc_product(parity(), parity())), 20000, 0),
}
EXPLICIT_INPUTS.update({
    "parityxparity-sampled-%d" % seed:
    (lambda: dc_product(parity(), parity()), 20000, seed)
    for seed in range(3)})
# the sample finds this flip; a sample may as well miss one
EXPLICIT_INPUTS["parityxparity-sampled-flip-0"] = (
    lambda: swap_composite(dc_product(parity(), parity()), "_hs", 0),
    20000, 0)
EXPLICIT_INPUTS.update({
    "parity-flip-%s-%d" % (table, seed):
    (lambda table=table, seed=seed: swap_composite(parity(), table, seed),
     None, 0)
    for table in ("_hs", "_vs") for seed in range(6)})
EXPLICIT_INPUTS.update({
    "parityxwalk_h-flip-%s-%d" % (table, seed):
    (lambda table=table, seed=seed: swap_composite(
        dc_product(parity(), walk_h()), table, seed), None, 0)
    for table in ("_hs", "_vs") for seed in range(1)})
EXPLICIT_INPUTS.update({
    "parity-drop-%d" % seed: (lambda seed=seed: drop_composite(parity(), seed),
                              None, 0)
    for seed in range(2)})
EXPLICIT_INPUTS.update({
    "parity-break-boundary-%d" % seed:
    (lambda seed=seed: break_composite_boundary(parity(), seed), None, 0)
    for seed in range(2)})
EXPLICIT_INPUTS.update({
    "hom-%s-%d" % (flavor, seed):
    (lambda flavor=flavor: populated_hom(flavor), 5000, seed)
    for flavor in sorted(FLAVORS) for seed in range(2)})
EXPLICIT_INPUTS.update({
    "hom-%s-flip" % flavor:
    (lambda flavor=flavor: swap_composite(populated_hom(flavor), "_hs", 3),
     5000, 1)
    for flavor in sorted(FLAVORS)})


@pytest.mark.parametrize("name", sorted(EXPLICIT_INPUTS))
def test_explicit_laws_match_reference(name):
    build, max_checks, seed = EXPLICIT_INPUTS[name]
    d = build()
    rep = validate_double_category(d, max_checks=max_checks, seed=seed)
    assert rep.failures == reference_explicit_failures(d, max_checks, seed)
    clean = "flip" not in name and "drop" not in name and "break" not in name
    assert rep.passed == clean
    if hasattr(d, "_factors"):
        # a sound product is decided from its factors, a broken one by the
        # square pass, as if it had none
        plain = validate_double_category(unfactored(d), max_checks=max_checks,
                                         seed=seed)
        assert rep.failures == plain.failures
        assert list(rep.reduced) == (SQUARE_PASS if clean else [])


def test_explicit_validation_marks_sampled_laws():
    p = unfactored(dc_product(parity(), parity()))
    rep = validate_double_category(p, max_checks=20000, seed=5)
    assert rep.passed
    assert rep.sampled == {
        law: {"draws": 20000, "seed": 5}
        for law in ("hcomp-sq-assoc", "vcomp-sq-assoc", "interchange")}
    assert validate_double_category(parity()).sampled == {}


def test_product_is_reduced():
    p = dc_product(parity(), parity())
    rep = validate_double_category(p, max_checks=20000, seed=5)
    assert rep.passed
    assert rep.sampled == {}
    assert list(rep.reduced) == SQUARE_PASS
    # parity has 65,536 interchange grids, so its square has 65,536^2
    assert rep.reduced["interchange"] == 65536 ** 2
    assert rep.reduced["hcomp-sq-unit"] == p.n_squares


def brute_force_counts(d):
    """The instances of each check of the explicit square pass on d,
    enumerated one by one."""
    sq = range(d.n_squares)
    b = d.sq_bounds
    hpairs = [(x, y) for x in sq for y in sq if b[x][3] == b[y][2]]
    vpairs = [(x, y) for x in sq for y in sq if b[x][1] == b[y][0]]
    by_left, by_top = {}, {}
    for s in sq:
        by_left.setdefault(b[s][2], []).append(s)
        by_top.setdefault(b[s][0], []).append(s)
    grids = sum(1 for x, y in hpairs for z in by_top.get(b[x][1], [])
                for e in by_top.get(b[y][1], []) if b[e][2] == b[z][3])
    h = range(d.n_hcells)
    v = range(d.n_vcells)
    return dict(zip(SQUARE_PASS, [
        d.n_hcells, d.n_hcells, d.n_vcells, d.n_vcells, d.n_objects,
        len(hpairs), len(hpairs), len(vpairs), len(vpairs),
        d.n_squares, d.n_squares,
        sum(len(by_left.get(b[y][3], [])) for _, y in hpairs),
        sum(len(by_top.get(b[y][1], [])) for _, y in vpairs),
        sum(1 for f in h for g in h if d.htgt[f] == d.hsrc[g]),
        sum(1 for u in v for w in v if d.vtgt[u] == d.vsrc[w]),
        grids]))


def test_reduced_counts_match_enumeration():
    p = dc_product(parity(), walk_h())
    rep = validate_double_category(p)
    assert rep.reduced == brute_force_counts(p)
    assert rep.reduced["interchange"] == 65536 * 4


def test_product_reduction_keeps_a_small_budget():
    # parity's 65,536 interchange grids outnumber both max_checks and the
    # 3,584 composable pairs of squares of parity x walk_h
    p = dc_product(parity(), walk_h())
    rep = validate_double_category(p, max_checks=100, seed=0)
    assert rep.passed and rep.reduced == {}
    assert "interchange" in rep.sampled


def flip_factor_after_product():
    a = parity()
    p = dc_product(a, walk_h())
    swap_composite(a, "_hs", 0)
    return p


def break_factor_after_product():
    """A factor whose identity square table, edited after the product was
    built, names no square: validating it raises."""
    a = parity()
    p = dc_product(a, walk_h())
    a._sqvid[0] = a.n_squares
    return p


def change_one_cell_composite():
    """parity x trivial with h.h set to h: its 1h-cells still form a
    category, with h idempotent, but not the componentwise one."""
    p = dc_product(parity(), explicit_clone(trivial()))
    p.set_hh(1, 1, 1)
    return p


def add_square_composite():
    p = dc_product(parity(), walk_h())
    b = p.sq_bounds
    pair = next((x, y) for x in range(p.n_squares) for y in range(p.n_squares)
                if b[x][3] != b[y][2])
    p._hs[pair] = 0
    return p


def swap_square_bounds():
    p = dc_product(parity(), walk_h())
    b = p.sq_bounds
    t = next(t for t in range(p.n_squares) if b[t] != b[0])
    b[0], b[t] = b[t], b[0]
    return p


def other_identity_square():
    """parity x walk_h with Id_f replaced by the other square on its
    boundary, for f = (h, a)."""
    p = dc_product(parity(), walk_h())
    s = p._sqvid[5]
    p._sqvid[5] = next(t for t in p._sq_by_bound[p.sq_bounds[s]] if t != s)
    return p


def restore_square_composite():
    """parity x walk_h with one composite overwritten, then restored."""
    p = dc_product(parity(), walk_h())
    key = next(iter(p._hs))
    c = p._hs[key]
    p._hs[key] = c + 1
    p._hs[key] = c
    return p


def reinsert_square_composite():
    """parity x walk_h with its first composite moved to the end of the
    table: the same entries in another order."""
    p = dc_product(parity(), walk_h())
    key = next(iter(p._hs))
    p._hs[key] = p._hs.pop(key)
    return p


def renew_square_key():
    """parity x walk_h with the key of its first composite replaced by an
    equal new tuple, in place."""
    p = dc_product(parity(), walk_h())
    rows = list(p._hs.items())
    (a, b), c = rows[0]
    rows[0] = ((a, b), c)
    assert rows[0][0] is not next(iter(p._hs))
    p._hs.clear()
    p._hs.update(rows)
    return p


def populate_factor_after_product():
    """A product over hom(trivial, parity) before its squares were
    populated: it has no squares, so none of its identity squares."""
    h = hom_double_category(trivial(), parity(), FLAVORS["hop"], bound=5000)
    p = dc_product(h, walk_h())
    populate_squares(h)
    return p


def self_product():
    a = walk_sq()
    return dc_product(a, a)


# products beyond those of EXPLICIT_INPUTS:
# name -> (build, max_checks, seed, reduced, passed)
PRODUCT_INPUTS = {
    "parityxwalk_hxwalk_v": (lambda: dc_product(
        dc_product(parity(), walk_h()), walk_v()), None, 0, True, True),
    "factor-flipped-after-product": (flip_factor_after_product, None, 0,
                                     False, True),
    "factor-unreadable-after-product": (break_factor_after_product, None, 0,
                                        False, True),
    "changed-1-cell-composite": (change_one_cell_composite, None, 0,
                                 False, False),
    "extra-square-composite": (add_square_composite, None, 0, False, True),
    "dropped-square-composite": (lambda: drop_composite(
        dc_product(parity(), walk_h()), 0), None, 0, False, False),
    "swapped-square-bounds": (swap_square_bounds, None, 0, False, False),
    "other-identity-square": (other_identity_square, None, 0, False, False),
    "broken-factor": (lambda: dc_product(
        swap_composite(parity(), "_vs", 1), walk_h()), None, 0, False, False),
    # the product reduction compares a snapshot of the tables, in order,
    # taken when dc_product built them
    "restored-square-composite": (restore_square_composite, None, 0,
                                  True, True),
    "reinserted-square-composite": (reinsert_square_composite, None, 0,
                                    False, True),
    "renewed-square-key": (renew_square_key, None, 0, True, True),
    "self-product": (self_product, None, 0, True, True),
    "factor-populated-after-product": (populate_factor_after_product, None,
                                       0, False, False),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_INPUTS))
def test_product_reduction_matches_reference(name):
    build, max_checks, seed, reduced, passed = PRODUCT_INPUTS[name]
    d = build()
    rep = validate_double_category(d, max_checks=max_checks, seed=seed)
    plain = validate_double_category(unfactored(d), max_checks=max_checks,
                                     seed=seed)
    assert rep.failures == plain.failures
    assert rep.failures == reference_explicit_failures(d, max_checks, seed)
    assert rep.passed == passed
    assert plain.reduced == {}
    if reduced:
        assert rep.sampled == {} and list(rep.reduced) == SQUARE_PASS
    else:
        assert rep.reduced == {} and rep.sampled == plain.sampled


def reference_product_tables(d1, d2):
    """The square tables of the explicit ``dc_product(d1, d2)``, built one
    ``set_hs``/``set_vs`` call per entry."""
    p, ns2 = DoubleCat(), d2.n_squares
    for (a1, b1), c1 in d1._hs.items():
        for (a2, b2), c2 in d2._hs.items():
            p.set_hs(a1 * ns2 + a2, b1 * ns2 + b2, c1 * ns2 + c2)
    for (a1, b1), c1 in d1._vs.items():
        for (a2, b2), c2 in d2._vs.items():
            p.set_vs(a1 * ns2 + a2, b1 * ns2 + b2, c1 * ns2 + c2)
    return p._hs, p._vs


def sign_product_dom():
    q = sign_quasi({0: 0, 1: 1})
    return product_dom(q.A, q.B)


@pytest.mark.parametrize("build", [
    lambda: dc_product(parity(), walk_h()),
    lambda: dc_product(parity(), parity()),
    lambda: dc_product(dc_product(parity(), walk_h()), walk_v()),
    sign_product_dom,
], ids=["parityxwalk_h", "parityxparity", "parityxwalk_hxwalk_v",
        "sign-product-dom"])
def test_product_tables_match_reference(build):
    p = build()
    hs, vs = reference_product_tables(*p._factors)
    assert list(p._hs.items()) == list(hs.items())
    assert list(p._vs.items()) == list(vs.items())
    # every square id in the tables is one shared int
    for table in (p._hs, p._vs):
        assert len({id(x) for k, v in table.items()
                    for x in (*k, v)}) <= p.n_squares


def test_reduced_product_leaves_its_square_tables_unfilled():
    p = dc_product(parity(), parity())
    rep = validate_double_category(p, max_checks=20000, seed=0)
    assert rep.passed and list(rep.reduced) == SQUARE_PASS
    assert not {"_hs", "_vs"} & set(vars(p))


def test_product_tables_are_filled_from_the_factors_as_built():
    a, b = parity(), walk_h()
    hs, vs = reference_product_tables(a, b)
    p = dc_product(a, b)
    swap_composite(a, "_hs", 0)
    swap_composite(a, "_vs", 1)
    assert list(p._hs.items()) == list(hs.items())
    assert list(p._vs.items()) == list(vs.items())


def test_copy_filled_first_leaves_the_product_reduced():
    # a copy made before the fill fills tables and records of its own
    p = dc_product(parity(), walk_h())
    c = unfactored(p)
    assert validate_double_category(c).reduced == {}
    assert {"_hs", "_vs"} <= set(vars(c))
    rep = validate_double_category(p)
    assert rep.passed and list(rep.reduced) == SQUARE_PASS
    assert not {"_hs", "_vs"} & set(vars(p))


def test_product_table_edited_after_its_fill_takes_the_full_pass():
    p = dc_product(parity(), walk_h())
    p._vs
    assert list(validate_double_category(p).reduced) == SQUARE_PASS
    swap_composite(p, "_vs", 0)
    rep = validate_double_category(p)
    assert rep.reduced == {} and not rep.passed
    assert rep.failures == reference_explicit_failures(p, None, 0)


def test_merge_carries_sampled_laws():
    sub = validate_double_category(parity(), max_checks=100, seed=2)
    rep = ValidationReport()
    rep.merge(sub, prefix="pp.")
    assert rep.sampled["pp.interchange"] == {"draws": 100, "seed": 2}
    assert rep.passed == sub.passed


@pytest.mark.parametrize("name", ["trivial", "walk_h", "walk_v", "walk_sq", "parity"])
def test_json_roundtrip(name):
    d = FIXTURES[name]()
    doc = json.loads(json.dumps(to_json(d)))
    d2 = from_json(doc)
    assert validate_double_category(d2).passed
    assert d2.n_objects == d.n_objects
    assert d2.n_hcells == d.n_hcells
    assert d2.n_vcells == d.n_vcells


def test_json_autogenerates_identities():
    doc = {"objects": ["A", "B"],
           "hcells": [{"name": "f", "src": "A", "tgt": "B"}],
           "vcells": [],
           "hcomp_h": [], "vcomp_v": [], "squares": [], "flat": False}
    d = from_json(doc)
    assert d.h_id(0) is not None and d.v_id(1) is not None
    assert d.hnames[d.h_id(0)] == "1_A"
    assert d.vnames[d.v_id(1)] == "1^B"
    # identity squares exist for every 1-cell
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "f"][0]
    assert d.sq_v_id(f) is not None


def test_product_of_parities():
    p = dc_product(parity(), parity())
    rep = validate_double_category(p, max_checks=20000, seed=5)
    assert rep.passed, rep.laws_failed()
    proj1, proj2 = product_projections(parity(), parity())
    d = parity()
    s = 777 % p.n_squares
    t, b, l, r = p.sq_bounds[s]
    assert d.sq_bounds[proj1(SQUARE, s)][0] == proj1(HCELL, t)
    assert d.sq_bounds[proj2(SQUARE, s)][0] == proj2(HCELL, t)


def cell_table(d, kind):
    """The name and the boundary of each cell of one kind of d, by id."""
    return {OBJECT: [(n, ()) for n in d.objects],
            HCELL: list(zip(d.hnames, zip(d.hsrc, d.htgt))),
            VCELL: list(zip(d.vnames, zip(d.vsrc, d.vtgt))),
            SQUARE: list(zip(d.sq_names, d.sq_bounds))}[kind]


# the kind of each cell on the boundary of a cell of each kind
BOUNDARY_KINDS = {OBJECT: (), HCELL: (OBJECT, OBJECT),
                  VCELL: (OBJECT, OBJECT),
                  SQUARE: (HCELL, HCELL, VCELL, VCELL)}


@pytest.mark.parametrize("build", [
    lambda: dc_product(parity(), walk_h()),
    lambda: dc_product(walk_sq(), walk_v()),
    sign_product_dom,
], ids=["parityxwalk_h", "walk_sqxwalk_v", "sign-product-dom"])
def test_product_layout_helpers_match_dc_product(build):
    p = build()
    d1, d2 = p._factors
    proj1, proj2 = product_projections(d1, d2)
    for kind, bkinds in BOUNDARY_KINDS.items():
        t1, t2, t = (cell_table(d, kind) for d in (d1, d2, p))
        cells = list(product_cells(p, kind))
        assert [x for x, _, _ in cells] == list(range(len(t)))
        assert [(x1, x2) for _, x1, x2 in cells] == [
            (x1, x2) for x1 in range(len(t1)) for x2 in range(len(t2))]
        for x, x1, x2 in cells:
            (n1, b1), (n2, b2), (n, b) = t1[x1], t2[x2], t[x]
            assert n == "(%s,%s)" % (n1, n2)
            assert [(proj1(k, y), proj2(k, y)) for k, y in zip(bkinds, b)] \
                == list(zip(b1, b2))
            assert product_cell(p, kind, x1, x2) == x
            assert (proj1(kind, x), proj2(kind, x)) == (x1, x2)


def test_product_with_trivial_is_isomorphic():
    d = walk_sq()
    t = trivial()
    # trivial is flat, walk_sq explicit; materialize trivial to explicit form
    te = from_json({"objects": ["*"], "hcells": [], "vcells": [],
                    "hcomp_h": [], "vcomp_v": [], "squares": [], "flat": False})
    p = dc_product(d, te)
    assert (p.n_objects, p.n_hcells, p.n_vcells, p.n_squares) == \
        (d.n_objects, d.n_hcells, d.n_vcells, d.n_squares)
    assert validate_double_category(p).passed


def test_eval_pasting_one_cells():
    d = walk_h()
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "a"][0]
    env = {"f": CellRef(HCELL, f), "A": CellRef(OBJECT, d.hsrc[f])}
    term = HComp(HId(Gen("A")), Gen("f"))
    assert eval_pasting(d, term, env) == CellRef(HCELL, f)


def test_eval_pasting_squares():
    d = parity()
    s = d.parity_index[(1, 1, 1, 1, 1)]
    env = {"s": CellRef(SQUARE, s),
           "h": CellRef(HCELL, 1), "v": CellRef(VCELL, 1)}
    # pasting s beside Id^v keeps the sign
    out = eval_pasting(d, HComp(Gen("s"), HId(Gen("v"))), env)
    assert d.parity_sign[out.id] == 1
    # pasting s above Id_h keeps the sign
    out = eval_pasting(d, VComp(Gen("s"), VId(Gen("h"))), env)
    assert d.parity_sign[out.id] == 1
    # two copies of s cancel
    out = eval_pasting(d, VComp(Gen("s"), Gen("s")), env)
    assert d.parity_sign[out.id] == 0


def test_eval_pasting_rejects_bad_shapes():
    d = walk_h()
    env = {"A": CellRef(OBJECT, 0)}
    with pytest.raises(BoundaryMismatch):
        eval_pasting(d, HComp(Gen("A"), Gen("A")), env)


def test_square_boundary_accessors():
    d = walk_sq()
    s = [x for x in range(d.n_squares) if d.sq_names[x] == "s"][0]
    assert d.hnames[d.sq_top(s)] == "t"
    assert d.hnames[d.sq_bottom(s)] == "b"
    assert d.vnames[d.sq_left(s)] == "l"
    assert d.vnames[d.sq_right(s)] == "r"


# -- record classes ------------------------------------------------------------


def test_records_compare_hash_and_print_by_class_and_fields():
    """The record classes compare and hash by class and fields, print as
    ``Name(field=value, ...)``, take their fields by position or keyword,
    and the frozen ones refuse assignment and survive a copy."""
    term = HComp(left=VId(Gen("a")), right=VComp(HId(Gen("b")), Gen("c")))
    assert repr(term) == ("HComp(left=VId(of=Gen(name='a')), right=VComp("
                          "top=HId(of=Gen(name='b')), bottom=Gen(name='c')))")
    assert term == HComp(VId(Gen("a")), VComp(HId(Gen("b")), Gen("c")))
    assert HId(Gen("x")) != VId(Gen("x"))
    assert len({HId(Gen("x")), VId(Gen("x")), HId(Gen("x"))}) == 2
    ref = CellRef(kind=SQUARE, id=3)
    assert (ref, repr(ref)) == (CellRef(SQUARE, 3),
                                "CellRef(kind='square', id=3)")
    assert hash(ref) == hash((SQUARE, 3)) and ref != (SQUARE, 3)
    assert ref != CellRef(SQUARE, 4) and ref != CellRef(HCELL, 3)
    assert repr(FLAVORS["st"]) == ("HomFlavor(hor='oplax', vert='lax', "
                                   "vert_strict=True, unitary_only=False)")
    assert FLAVORS["hop*"] == HomFlavor(hor="lax", vert="oplax")
    for frozen in (ref, term, FLAVORS["hop"]):
        assert copy.deepcopy(frozen) == frozen
        with pytest.raises(AttributeError):
            frozen.id = 0
        with pytest.raises(AttributeError):
            del frozen.id
    rep = ValidationReport()
    rep.add("law", x=1)
    assert rep == ValidationReport([("law", {"x": 1})]) != ValidationReport()
    with pytest.raises(TypeError):
        hash(rep)
