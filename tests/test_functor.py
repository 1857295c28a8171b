"""Tests for lax double functors."""

import itertools
import json
import os
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from dblcheck.cli import _read_doc, _load_functor
from dblcheck.core import (
    FIXTURES, DoubleCat, bool_matrix_double_category, dc_product, from_json,
    parity, trivial, validate_double_category, walk_h, walk_v)
from dblcheck.errors import DomainMismatch
from dblcheck.functor import (
    LaxDoubleFunctor, _lax_functor_laws, _reduction_counts,
    check_lax_functor, check_wellformed, compose_lax, functor_equal,
    identity_functor, is_pseudo, is_strict, is_unitary, strict_functor)

from law_rows import instances
from test_core import bool2_minus_composite, without

FIXTURES_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SQUARE_LAWS = ("lx.f.h1", "lx.f.h2", "lx.f.hex", "lx.f.u", "lx.f.c-nat",
               "lx.f.u-nat")


def parity_sign_functor(k=1, d=None):
    """Endofunctor of the parity fixture: identity on cells, with every
    compositor and unitor carrying sign k.  A 2-cocycle check shows this
    satisfies all lax functor laws; for k=1 it is pseudo but not strict."""
    if d is None:
        d = parity()
    F = identity_functor(d)
    if k:
        F.comp = {key: d.parity_index[d.sq_bounds[s] + (1,)]
                  for key, s in F.comp.items()}
        F.unit = {a: d.parity_index[d.sq_bounds[s] + (1,)]
                  for a, s in F.unit.items()}
    F.name = "sign%d" % k
    return F


def full_relation_monad_functor():
    """Lax functor from the point picking the full relation on a 2-element
    set: lax but not unitary (the unitor is a strict inclusion)."""
    t = trivial()
    b = bool_matrix_double_category(2)
    two = b.objects.index("2")
    full = b.hindex[(2, 2, frozenset((y, x) for y in range(2) for x in range(2)))]
    unit = b.find_square(b.h_id(two), full, b.v_id(two), b.v_id(two))
    comp = b.find_square(b.hcomp_h(full, full), full, b.v_id(two), b.v_id(two))
    return LaxDoubleFunctor(t, b, {0: two}, {0: full}, {0: b.v_id(two)},
                            comp={(0, 0): comp}, unit={0: unit}, name="full")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_identity_functor_passes(name):
    d = FIXTURES[name]()
    rep = check_lax_functor(identity_functor(d))
    assert rep.passed, rep.laws_failed()


def test_identity_functor_is_strict_pseudo():
    F = identity_functor(parity())
    assert is_strict(F) and is_unitary(F) and is_pseudo(F)


def test_parity_sign_functor_is_lax_pseudo_not_strict():
    F = parity_sign_functor(1)
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()
    assert not is_strict(F)
    assert is_unitary(F) and is_pseudo(F)


def test_full_relation_functor_is_lax_not_unitary():
    F = full_relation_monad_functor()
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()
    assert not is_unitary(F) and not is_pseudo(F)


def test_strict_functor_into_parity():
    d = walk_h()
    p = parity()
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "a"][0]
    hmap = {x: (1 if x == f else 0) for x in range(d.n_hcells)}
    vmap = {u: 0 for u in range(d.n_vcells)}
    sqmap = {s: p.parity_index[(hmap[d.sq_top(s)], hmap[d.sq_bottom(s)],
                                0, 0, 0)] for s in range(d.n_squares)}
    F = strict_functor(d, p, {0: 0, 1: 0}, hmap, vmap, sqmap)
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()
    assert is_strict(F)


def test_flat_codomain_square_derivation():
    b1 = bool_matrix_double_category(1)
    b2 = bool_matrix_double_category(2)
    ob = {a: b2.objects.index(b1.objects[a]) for a in range(b1.n_objects)}
    hmap = {}
    for f in range(b1.n_hcells):
        key = (b1.hsrc[f], b1.htgt[f], b1.hmat[f])
        hmap[f] = b2.hindex[key]
    vmap = {}
    for u in range(b1.n_vcells):
        key = (b1.vsrc[u], b1.vtgt[u], b1.vfun[u])
        vmap[u] = b2.vindex[key]
    F = strict_functor(b1, b2, ob, hmap, vmap)
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()


def test_broken_vertical_map_detected():
    F = identity_functor(parity())
    F.vmap[1] = 0
    rep = check_lax_functor(F)
    assert not rep.passed


def test_flipped_compositor_detected():
    d = parity()
    F = identity_functor(d)
    key = (1, 1)
    F.comp[key] = d.parity_index[d.sq_bounds[F.comp[key]] + (1,)]
    rep = check_lax_functor(F)
    assert not rep.passed
    assert any(law.startswith("lx.f.") for law in rep.laws_failed())


def test_flipped_unitor_detected():
    d = parity()
    F = identity_functor(d)
    F.unit[0] = d.parity_index[d.sq_bounds[F.unit[0]] + (1,)]
    rep = check_lax_functor(F)
    assert not rep.passed
    assert "lx.f.u" in rep.laws_failed()


def test_flipped_square_image_detected():
    d = parity()
    F = identity_functor(d)
    s = d.parity_index[(1, 1, 1, 1, 0)]
    F.sqmap[s] = d.parity_index[(1, 1, 1, 1, 1)]
    rep = check_lax_functor(F)
    assert not rep.passed


def test_unit_law_reports_missing_identity_square():
    # R carries a square R => R and a unit square 1_* => R but no Id_R, so
    # both sides of the unit law need a square the codomain lacks: the law
    # fails with the error as witness, and the check does not raise
    c = DoubleCat("no-Id_R")
    x = c.add_object("*")
    one = c.add_hcell("1_*", x, x, identity_of=x)
    r = c.add_hcell("R", x, x)
    v = c.add_vcell("1^*", x, x, identity_of=x)
    for f, g, h in ((one, one, one), (one, r, r), (r, one, r), (r, r, r)):
        c.set_hh(f, g, h)
    c.set_vv(v, v, v)
    ident = c.add_square("Id_1_*", one, one, v, v)
    c.set_sq_v_id(one, ident)
    c.set_sq_h_id(v, ident)
    mult = c.add_square("m", r, r, v, v)
    eta = c.add_square("e", one, r, v, v)
    t = trivial()
    F = LaxDoubleFunctor(t, c, {0: x}, {0: r}, {0: v},
                         {s: mult for s in t.iter_squares()},
                         {(0, 0): mult}, {0: eta})
    assert check_wellformed(F).passed
    rep = check_lax_functor(F)
    unit = [w for law, w in rep.failures if law == "lx.f.u"]
    assert [w["side"] for w in unit] == ["left", "right"]
    assert all("sq_v_id missing for R" in w["error"] for w in unit)


def endo_cod(hcomp_h):
    """A flat category on one object ``a`` with the endo 1h-cells ``e``
    and ``e2``, the 1h-cell composites ``hcomp_h`` only, and a square from
    ``1_a`` down to each endo cell beside the identity squares."""
    return from_json({
        "objects": ["a"], "flat": True, "hcomp_h": hcomp_h,
        "hcells": [{"name": h, "src": "a", "tgt": "a"} for h in ("e", "e2")],
        "squares": [{"top": "1_a", "bottom": h, "left": "1^a",
                     "right": "1^a"} for h in ("e", "e2")]})


def point_onto(c, name, dom=None):
    """The functor from the point (``dom``, a fresh one if None) onto the
    endo cell ``name`` of c, with the identity square on it as compositor
    and the square from ``1_a`` as unitor; a lax functor when c composes
    the cell with itself."""
    h, v = c.hnames.index(name), c.v_id(0)
    return LaxDoubleFunctor(
        dom or trivial(), c, {0: 0}, {0: h}, {0: v}, None,
        {(0, 0): c.find_square(h, h, v, v)},
        {0: c.find_square(c.h_id(0), h, v, v)})


def test_compositor_whose_frame_does_not_compose_is_missing():
    """A compositor is read with its frame; a frame the codomain cannot
    compose makes it missing (the parent raised the codomain's error)."""
    F = point_onto(endo_cod([]), "e")
    assert check_wellformed(F).failures == [
        ("wf-compositor-missing", {"first": 0, "second": 0})]
    assert check_lax_functor(point_onto(endo_cod([["e", "e", "e"]]),
                                        "e")).passed


def test_boundary_violation_detected():
    d = walk_h()
    F = identity_functor(d)
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "a"][0]
    F.hmap[f] = d.h_id(0)
    rep = check_wellformed(F)
    assert not rep.passed
    assert "wf-hcell-boundary" in rep.laws_failed()


# identity_functor(walk_v()) with one image moved off its boundary; walk_v
# has the 1h-cells 1_0, 1_1, the 1v-cells 1^0, 1^1, x and the squares
# Id_1_0, Id_1_1, Id^x, in id order
WALK_V_BOUNDARY_MUTANTS = {
    "vmap": (2, 0, ("wf-vcell-boundary", {"vcell": 2})),
    "sqmap": (2, 0, ("wf-square-boundary", {"square": 2})),
    "comp": ((0, 0), 1, ("wf-compositor-boundary", {"first": 0, "second": 0})),
    "unit": (0, 1, ("wf-unitor-boundary", {"object": 0})),
}


@pytest.mark.parametrize("field", sorted(WALK_V_BOUNDARY_MUTANTS))
def test_walk_v_functor_boundary_mutants(field):
    key, image, failure = WALK_V_BOUNDARY_MUTANTS[field]
    F = identity_functor(walk_v())
    getattr(F, field)[key] = image
    assert check_lax_functor(F).failures == [failure]


@pytest.mark.parametrize("field, key, image, law", [
    ("hmap", 1, -1, "wf-hcell-boundary"),
    ("vmap", 1, 10 ** 6, "wf-vcell-boundary"),
    ("sqmap", 3, -29, "wf-square-boundary"),
    ("comp", (1, 1), 10 ** 6, "wf-compositor-boundary"),
    ("unit", 0, 10 ** 6, "wf-unitor-boundary"),
    ("ob", 0, None, "wf-object"),
    ("hmap", 1, None, "wf-hcell-boundary"),
    ("vmap", 0, None, "wf-vcell-boundary"),
    ("sqmap", 3, None, "wf-square-boundary"),
    ("comp", (1, 1), None, "wf-compositor-boundary"),
    ("unit", 0, None, "wf-unitor-boundary"),
])
def test_cell_id_out_of_range_fails_its_boundary(field, key, image, law):
    """An id outside the range of its kind in the codomain is on no
    boundary: a negative one is not read from the end of a list, and
    None is not compared with an int."""
    F = identity_functor(parity())
    getattr(F, field)[key] = image
    assert check_lax_functor(F).laws_failed() == [law]


def test_compose_sign_functors_cancels():
    F = parity_sign_functor(1)
    G = parity_sign_functor(1, d=F.cod)
    FG = compose_lax(F, G)
    rep = check_lax_functor(FG)
    assert rep.passed, rep.laws_failed()
    # the two sign contributions cancel, giving back the identity functor
    assert is_strict(FG)
    assert functor_equal(FG, identity_functor(F.dom))


def test_compose_with_identity_is_identity():
    F = parity_sign_functor(1)
    d = F.dom
    left = compose_lax(identity_functor(d), F)
    # cell maps agree; compositors agree up to the identity contribution
    assert all(left.h(f) == F.h(f) for f in range(d.n_hcells))


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatch):
        compose_lax(identity_functor(parity()), identity_functor(walk_h()))


# -- the flat reduction against the reference catalogue ----------------------


def reference(F):
    """The check with every instance evaluated, as before the flat
    reduction, and the number of instances of each law."""
    rep, counts = check_wellformed(F), Counter()

    def emit(law, lhs, rhs, **witness):
        counts[law] += 1
        # the instance as a row whose one key holds its witness values
        rep.expect(law, [tuple(witness.values())], lambda *key: lhs(),
                   lambda *key: rhs(), tuple(witness))
    if rep.passed:
        _lax_functor_laws(F, instances(emit), "lx.f")
    return rep, counts


def assert_matches_reference(make):
    """check_lax_functor gives the reference's failures, in order, on a
    fresh input from ``make``; a reduced pass names exactly the square
    laws, each with the reference's instance count.  Returns the report."""
    got = check_lax_functor(make())
    want, counts = reference(make())
    assert got.failures == want.failures
    if got.reduced:
        assert got.passed
        assert got.reduced == {law: counts[law] for law in SQUARE_LAWS}
        assert list(got.reduced) == list(SQUARE_LAWS)
    return got


def preorder_fixture():
    with open(os.path.join(FIXTURES_DIR, "preorder.json")) as fh:
        return from_json(json.load(fh))


def bool1_bool1_preorder():
    b1 = bool_matrix_double_category
    return dc_product(dc_product(b1(1), b1(1)), preorder_fixture())


def z3_functor(vmap):
    """An endofunctor of the flat category with one object, one 1h-cell
    and the cyclic group of order 3 as 1v-cells."""
    z = DoubleCat("z3")
    a = z.add_object("*")
    z.add_hcell("1_*", a, a, identity_of=a)
    z.add_vcell("1^*", a, a, identity_of=a)
    z.add_vcell("w", a, a)
    z.add_vcell("w2", a, a)
    z.set_hh(0, 0, 0)
    for i in range(3):
        for j in range(3):
            z.set_vv(i, j, (i + j) % 3)
    z.set_flat(lambda t, b, l, r: True)
    return strict_functor(z, z, {0: 0}, {0: 0}, vmap)


def bool1_minus(bound):
    return identity_functor(without(bool_matrix_double_category(1), [bound]))


FLAT_CASES = {
    # every flat fixture and builtin, by its identity functor
    "trivial": lambda: identity_functor(trivial()),
    "bool0": lambda: identity_functor(bool_matrix_double_category(0)),
    "bool1": lambda: identity_functor(bool_matrix_double_category(1)),
    "preorder": lambda: identity_functor(preorder_fixture()),
    "bool1xbool1xpreorder": lambda: identity_functor(bool1_bool1_preorder()),
    # the flat functor fixture, trivial into the preorder
    "monad-functor": lambda: _load_functor(_read_doc(
        os.path.join(FIXTURES_DIR, "monad-functor.json"))),
    # wf, v1 and v2 fail
    "bool1-hmap-moved": lambda: _moved_hcell(),
    "z3-v1": lambda: z3_functor({0: 0, 1: 2, 2: 2}),
    "z3-v2": lambda: z3_functor({0: 1, 1: 1, 2: 2}),
    "z3-identity": lambda: z3_functor({0: 0, 1: 1, 2: 2}),
}
# the category fails validation: one composite square is missing
FLAT_CASES.update({"bool1-minus-%d%d%d%d" % b: (lambda b=b: bool1_minus(b))
                   for b in ((0, 3, 1, 1), (1, 3, 1, 2), (3, 4, 2, 2))})


def _moved_hcell():
    """The identity of bool1 with one 1h-cell sent to another on the same
    endpoints, so some square loses its image."""
    F = identity_functor(bool_matrix_double_category(1))
    d = F.dom
    f = next(f for f in range(d.n_hcells) if not d.is_h_identity(f)
             and len(d.hcells_between(d.hsrc[f], d.htgt[f])) > 1)
    F.hmap[f] = next(g for g in d.hcells_between(d.hsrc[f], d.htgt[f])
                     if g != f)
    return F


@pytest.mark.parametrize("name", sorted(FLAT_CASES))
def test_flat_reduction_matches_reference(name):
    assert_matches_reference(FLAT_CASES[name])


@pytest.mark.parametrize("name", [
    "trivial", "bool0", "bool1", "preorder", "bool1xbool1xpreorder",
    "z3-identity"])
def test_flat_reduction_decides_identity_functors(name):
    """Each of these passes by the reduction, not by evaluation."""
    rep = check_lax_functor(FLAT_CASES[name]())
    assert rep.passed and set(rep.reduced) == set(SQUARE_LAWS)


# the reference catalogue on the identity functor of bool2: it passes, with
# these instance counts (1,715,747 in all, about 7 s of evaluation on a
# 2-core host, so pinned here rather than run)
BOOL2_REFERENCE_COUNTS = {
    "lx.f.v1": 47, "lx.f.v2": 3, "lx.f.h1": 306043, "lx.f.h2": 31,
    "lx.f.hex": 8507, "lx.f.u": 62, "lx.f.c-nat": 1401043, "lx.f.u-nat": 11}


def test_flat_reduction_matches_pinned_reference_on_bool2():
    rep = check_lax_functor(identity_functor(bool_matrix_double_category(2)))
    assert rep.passed
    assert rep.reduced == {law: BOOL2_REFERENCE_COUNTS[law]
                           for law in SQUARE_LAWS}


@pytest.mark.parametrize("name", ["bool1-hmap-moved", "z3-v1", "z3-v2"] + [
    n for n in FLAT_CASES if n.startswith("bool1-minus")])
def test_flat_reduction_falls_back_when_a_precondition_fails(name):
    """The reduction is tried on these, and a precondition fails: wf, v1,
    v2, or the validation of the category."""
    F = FLAT_CASES[name]()
    assert _reduction_counts(F) is not None
    rep = check_lax_functor(F)
    assert not rep.passed and not rep.reduced
    if name.startswith("bool1-minus"):
        assert not validate_double_category(F.dom).passed


def test_flat_reduction_on_every_z3_endofunctor():
    """All 27 vertical maps of z3: the reduction is tried on each, and
    decides exactly the group endomorphisms, where v1 and v2 hold."""
    reduced = []
    for images in itertools.product(range(3), repeat=3):
        vmap = dict(enumerate(images))
        assert _reduction_counts(z3_functor(vmap)) is not None
        rep = assert_matches_reference(lambda: z3_functor(vmap))
        if rep.reduced:
            reduced.append(images)
    assert reduced == [(0, 0, 0), (0, 1, 2), (0, 2, 1)]


def test_flat_reduction_on_bool2_minus_composite():
    """The reduction is tried on the identity of bool2 less one composite
    square, and validation turns it down; the whole catalogue then runs,
    as on the bool1 cases above (not run here: 1.7M instances)."""
    F = identity_functor(bool2_minus_composite(0))
    assert _reduction_counts(F) is not None
    assert not validate_double_category(F.dom).passed
    assert check_wellformed(F).passed


def test_flat_reduction_is_skipped_cheaply_into_large_codomains():
    """Into bool3, a functor out of the point falls back on 1-cell counts
    alone: no square of bool3 is scanned or interned."""
    b3 = bool_matrix_double_category(3)
    F = strict_functor(trivial(), b3, {0: 3}, {0: b3.h_id(3)},
                       {0: b3.v_id(3)})
    tested, pred = [], b3.square_pred
    b3.set_flat(lambda *bound: tested.append(bound) or pred(*bound))
    interned = b3.n_squares
    assert _reduction_counts(F) is None
    assert not tested and b3.n_squares == interned
    rep = check_lax_functor(F)
    assert rep.passed and not rep.reduced
    # an explicit codomain falls back at once
    assert _reduction_counts(identity_functor(parity())) is None


def _closed_form_counts(d):
    """Instance counts of every law of the catalogue on a functor out of d,
    by brute force over the cells of d."""
    squares = [d.sq_bounds[s] for s in d.iter_squares()]
    h = range(d.n_hcells)
    v = range(d.n_vcells)
    return {
        "lx.f.v1": sum(d.vtgt[u] == d.vsrc[w] for u in v for w in v),
        "lx.f.v2": d.n_objects,
        "lx.f.h1": sum(s1[1] == s2[0] for s1 in squares for s2 in squares),
        "lx.f.h2": d.n_hcells,
        "lx.f.hex": sum(d.htgt[f] == d.hsrc[g] and d.htgt[g] == d.hsrc[k]
                        for f in h for g in h for k in h),
        "lx.f.u": 2 * d.n_hcells,
        "lx.f.c-nat": sum(s1[3] == s2[2] for s1 in squares
                          for s2 in squares),
        "lx.f.u-nat": d.n_vcells,
    }


@pytest.mark.parametrize("make", [
    lambda: bool_matrix_double_category(1), preorder_fixture,
    bool1_bool1_preorder], ids=["bool1", "preorder", "bool1xbool1xpreorder"])
def test_catalogue_instance_counts(make):
    """The catalogue emits the closed-form number of instances of each law,
    and a reduced pass reports exactly those counts."""
    F = identity_functor(make())
    emitted = Counter()
    _lax_functor_laws(
        F, instances(lambda law, lhs, rhs, **w: emitted.update((law,))),
        "lx.f")
    want = _closed_form_counts(F.dom)
    assert emitted == want
    rep = check_lax_functor(identity_functor(make()))
    assert rep.reduced == {law: want[law] for law in SQUARE_LAWS}


@st.composite
def flat_functors(draw):
    """A recipe for a functor out of bool1, into bool1 itself or into
    bool2: an embedding, a collapse onto one endo-1-cell, or random cell
    maps, then perhaps one 1-cell image moved.  Compositors and unitors are
    the squares on their boundaries where those exist."""
    size = draw(st.sampled_from((1, 2)))
    d, c = bool_matrix_double_category(1), bool_matrix_double_category(size)
    shape = draw(st.sampled_from(("embed", "collapse", "random")))
    if shape == "embed":
        ob = {a: c.objects.index(d.objects[a]) for a in range(d.n_objects)}
        hmap = {f: c.hindex[d.hsrc[f], d.htgt[f], d.hmat[f]]
                for f in range(d.n_hcells)}
        vmap = {u: c.vindex[d.vsrc[u], d.vtgt[u], d.vfun[u]]
                for u in range(d.n_vcells)}
    elif shape == "collapse":
        x = draw(st.sampled_from(range(c.n_objects)))
        endo = draw(st.sampled_from(c.hcells_between(x, x)))
        ob = {a: x for a in range(d.n_objects)}
        hmap = {f: endo for f in range(d.n_hcells)}
        vmap = {u: draw(st.sampled_from(c.vcells_between(x, x)))
                for u in range(d.n_vcells)}
    else:
        ob = {a: draw(st.sampled_from(range(c.n_objects)))
              for a in range(d.n_objects)}
        hmap = {f: draw(st.sampled_from(c.hcells_between(
            ob[d.hsrc[f]], ob[d.htgt[f]]))) for f in range(d.n_hcells)}
        vmap = {}
        for u in range(d.n_vcells):
            cands = c.vcells_between(ob[d.vsrc[u]], ob[d.vtgt[u]])
            if not cands:  # no function into the empty set
                cands = [c.v_id(ob[d.vsrc[u]])]
            vmap[u] = draw(st.sampled_from(cands))
    move = draw(st.sampled_from(("none", "hcell", "vcell")))
    if move == "hcell":
        f = draw(st.sampled_from(range(d.n_hcells)))
        hmap[f] = draw(st.sampled_from(c.hcells_between(
            c.hsrc[hmap[f]], c.htgt[hmap[f]])))
    elif move == "vcell":
        u = draw(st.sampled_from(range(d.n_vcells)))
        vmap[u] = draw(st.sampled_from(c.vcells_between(
            c.vsrc[vmap[u]], c.vtgt[vmap[u]])))

    def make():
        # into bool1 the functor is an endofunctor of one category, the
        # case the reduction is tried on
        dom = bool_matrix_double_category(1)
        cod = dom if size == 1 else bool_matrix_double_category(size)
        F = LaxDoubleFunctor(dom, cod, ob, hmap, vmap)
        for f in range(dom.n_hcells):
            for g in range(dom.n_hcells):
                if dom.htgt[f] == dom.hsrc[g]:
                    F.comp[f, g] = _square_or_identity(
                        cod, F._compositor_bounds(f, g))
        for a in range(dom.n_objects):
            F.unit[a] = _square_or_identity(cod, F._unitor_bounds(a))
        return F
    return make


def _square_or_identity(c, bounds):
    """The square on the boundary, else the identity on its top."""
    s = c.find_square(*bounds)
    return c.sq_v_id(bounds[0]) if s is None else s


@settings(max_examples=150, deadline=None)
@given(flat_functors())
def test_flat_reduction_matches_reference_on_random_functors(make):
    rep = assert_matches_reference(make)
    F = make()
    if F.dom is F.cod:
        # bool1 has 152 square-law instances and costs 88 validation steps
        assert bool(rep.reduced) == check_lax_functor(F).passed
