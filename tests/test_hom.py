"""Tests for hom double categories and cell enumeration."""

import gc
import weakref

import pytest

from dblcheck.core import bool_matrix_double_category, parity, trivial, walk_v
from dblcheck.errors import ChainMismatch, EnumerationBound, NotHomCodomain
from dblcheck.functor import (
    LaxDoubleFunctor, check_lax_functor, identity_functor, strict_functor)
from dblcheck.hom import (
    FLAVORS, HOP, HOP_STAR, SQ, ST, ST_U, HomDoubleCat, enumerate_lax_functors,
    enumerate_modifications, enumerate_transforms, hom_double_category,
    hom_membership, populate_squares)
from dblcheck.quasi import curry0
from dblcheck.transform import (
    LAX, OPLAX, HorTransform, VertTransform, check_vert_transform,
    identity_hor_transform, identity_modification, identity_vert_transform)

from test_functor import full_relation_monad_functor, parity_sign_functor
from test_golden import TABLE_CATEGORIES
from test_quasi import sign_quasi


def test_enumerate_functors_point_to_parity():
    # worked out by hand: the carrier is 1_* or h, and for each carrier the
    # compositor sign is free while the unitor sign is forced to match it
    t = trivial()
    p = parity()
    functors = list(enumerate_lax_functors(t, p, bound=100000))
    assert len(functors) == 4
    for F in functors:
        assert check_lax_functor(F).passed


def test_enumerate_functors_point_to_bool_counts():
    # lax functors from the point into the matrix category are reflexive
    # transitive relations; counts frozen from an independent preorder scan
    t = trivial()
    for n, want in [(1, 2), (2, 6)]:
        b = bool_matrix_double_category(n)
        functors = list(enumerate_lax_functors(t, b, bound=10 ** 6))
        assert len(functors) == want


def test_enumeration_bound_raised():
    t = trivial()
    b = bool_matrix_double_category(2)
    with pytest.raises(EnumerationBound):
        list(enumerate_lax_functors(t, b, bound=3))


def test_unitary_only_filter():
    t = trivial()
    b = bool_matrix_double_category(2)
    unitary = list(enumerate_lax_functors(t, b, ST_U, bound=10 ** 6))
    # only the discrete preorders (identity relations) have invertible unitors
    assert len(unitary) == 3


def test_hom_category_point_to_parity():
    for flavor in FLAVORS.values():
        hom = hom_double_category(trivial(), parity(), flavor, bound=10 ** 6)
        assert hom.n_objects == 4
        rep_ids = [hom.h_id(a) for a in range(hom.n_objects)]
        assert all(x is not None for x in rep_ids)
        # composition through payloads meets the identity cells again
        for f in range(hom.n_hcells):
            a, b = hom.hsrc[f], hom.htgt[f]
            assert hom.hcomp_h(hom.h_id(a), f) == f
            assert hom.hcomp_h(f, hom.h_id(b)) == f
        for u in range(hom.n_vcells):
            a, b = hom.vsrc[u], hom.vtgt[u]
            assert hom.vcomp_v(hom.v_id(a), u) == u
            assert hom.vcomp_v(u, hom.v_id(b)) == u


def test_hom_identity_squares():
    hom = HomDoubleCat(trivial(), parity(), HOP)
    d = parity()
    a = hom.intern_functor(_point_functor(d, 0))
    f = hom.h_id(a)
    s = hom.sq_v_id(f)
    assert hom.sq_bounds[s][0] == f and hom.sq_bounds[s][1] == f
    u = hom.v_id(a)
    s2 = hom.sq_h_id(u)
    assert hom.sq_bounds[s2][2] == u and hom.sq_bounds[s2][3] == u


def _point_functor(p, carrier, k=0, t=None):
    """Lax functor from the point into parity with the given carrier hcell
    and compositor/unitor sign k."""
    from dblcheck.functor import LaxDoubleFunctor
    if t is None:
        t = trivial()
    comp = {(0, 0): p.parity_index[(p.hcomp_h(carrier, carrier), carrier, 0, 0, k)]}
    unit = {0: p.parity_index[(p.h_id(0), carrier, 0, 0, k)]}
    sqmap = {0: p.parity_index[(carrier, carrier, 0, 0, 0)]}
    F = LaxDoubleFunctor(t, p, {0: 0}, {0: carrier}, {0: 0}, sqmap, comp, unit)
    assert check_lax_functor(F).passed
    return F


def test_hom_interning_dedupes():
    p = parity()
    hom = HomDoubleCat(trivial(), p, HOP)
    a1 = hom.intern_functor(_point_functor(p, 0))
    a2 = hom.intern_functor(_point_functor(p, 0))
    a3 = hom.intern_functor(_point_functor(p, 0, k=1))
    assert a1 == a2 and a1 != a3


def test_hom_interning_memo():
    p = parity()
    t = trivial()
    hom = HomDoubleCat(t, p, HOP)
    F = _point_functor(p, 0, t=t)
    a = hom.intern_functor(F)
    G = _point_functor(p, 0, t=t)
    assert G is not F and hom.intern_functor(G) == a
    assert hom.obj_payload[a] is F
    comp = dict(F.comp)
    comp[(0, 0)] = p.parity_index[(0, 0, 0, 0, 1)]
    H = LaxDoubleFunctor(t, p, F.ob, F.hmap, F.vmap, F.sqmap, comp, F.unit)
    assert hom.intern_functor(H) != a


def test_hom_memo_keeps_no_deduplicated_composite():
    hom = hom_double_category(trivial(), parity(), HOP, bound=10 ** 6)
    made = []

    def recording(compose):
        def composite(*args):
            out = compose(*args)
            made.append(weakref.ref(out))
            return out
        return composite
    for op in ("_hh_op", "_vv_op", "_hs_op", "_vs_op"):
        setattr(hom, op, recording(getattr(hom, op)))
    populate_squares(hom)
    stored = {id(x) for xs in (hom.h_payload, hom.v_payload, hom.sq_payload)
              for x in xs}
    gc.collect()
    alive = [r() for r in made if r() is not None]
    assert all(id(x) in stored for x in alive)
    assert len(alive) < len(made)


def test_hom_public_intern_routes():
    # fresh identity payloads find the identity cells interned with F
    p = parity()
    F = _point_functor(p, 0)
    hom = HomDoubleCat(F.dom, p, HOP)
    a = hom.intern_functor(F)
    f = hom.intern_hor_transform(identity_hor_transform(F, HOP.hor))
    assert f == hom.h_id(a)
    u = hom.intern_vert_transform(identity_vert_transform(F, HOP.vert))
    assert u == hom.v_id(a)
    s = hom.intern_modification(
        identity_modification(identity_hor_transform(F, HOP.hor)))
    assert s == hom.sq_v_id(f)
    assert (hom.n_hcells, hom.n_vcells, hom.n_squares) == (1, 1, 1)


def test_hom_orientation_guard():
    p = parity()
    hom = HomDoubleCat(trivial(), p, HOP)
    F = _point_functor(p, 0)
    with pytest.raises(NotHomCodomain):
        hom.intern_hor_transform(identity_hor_transform(F, LAX))
    with pytest.raises(NotHomCodomain):
        hom.intern_vert_transform(identity_vert_transform(F, OPLAX))


def test_hom_orientation_guard_on_every_route():
    p = parity()
    F = _point_functor(p, 0)
    hom = HomDoubleCat(F.dom, p, HOP)
    with pytest.raises(NotHomCodomain):
        hom.intern_modification(
            identity_modification(identity_hor_transform(F, LAX)))
    assert hom.n_objects == 0
    # curried transformations are horizontal oplax, which hop* excludes
    q = sign_quasi({0: 0, 1: 1})
    with pytest.raises(NotHomCodomain):
        curry0(q, HomDoubleCat(q.B, q.C, HOP_STAR))


def test_hom_membership_functor():
    b = bool_matrix_double_category(2)
    hom = HomDoubleCat(trivial(), b, HOP)
    F = full_relation_monad_functor()
    # frames differ: the helper builds its own point category
    rep = hom_membership(hom, F)
    assert not rep.passed and "member-frame" in rep.laws_failed()
    hom2 = HomDoubleCat(F.dom, F.cod, HOP)
    assert hom_membership(hom2, F).passed
    hom3 = HomDoubleCat(F.dom, F.cod, ST_U)
    rep = hom_membership(hom3, F)
    assert not rep.passed and "member-unitary" in rep.laws_failed()


def test_hom_membership_transform_orientation():
    p = parity()
    F = _point_functor(p, 0)
    hom = HomDoubleCat(F.dom, p, HOP)
    rep = hom_membership(hom, identity_hor_transform(F, LAX))
    assert not rep.passed and "member-orientation" in rep.laws_failed()
    assert hom_membership(hom, identity_hor_transform(F, OPLAX)).passed


def test_hom_membership_checks_the_frame_of_every_cell():
    # identity_functor(parity()) is a parity -> parity cell, not one of
    # hom(trivial, parity): none of its cells is a member
    hom = HomDoubleCat(trivial(), parity(), HOP)
    F = identity_functor(parity())
    for cell in (F, identity_hor_transform(F, OPLAX),
                 identity_vert_transform(F, LAX),
                 identity_modification(identity_hor_transform(F, OPLAX))):
        assert hom_membership(hom, cell).laws_failed() == ["member-frame"]


def test_hom_membership_checks_modification_orientations():
    p = parity()
    F = _point_functor(p, 0)
    for flavor, wrong in ((HOP, LAX), (HOP_STAR, OPLAX)):
        hom = HomDoubleCat(F.dom, p, flavor)
        right = identity_modification(identity_hor_transform(F, flavor.hor))
        assert hom_membership(hom, right).passed
        m = identity_modification(identity_hor_transform(F, wrong))
        assert hom_membership(hom, m).laws_failed() == ["member-orientation"]


def test_hom_membership_refuses_a_non_cell():
    q = sign_quasi({0: 0, 1: 1})
    hom = HomDoubleCat(q.B, q.C, HOP)
    assert hom_membership(hom, q).laws_failed() == ["member-kind"]


def test_vert_strict_membership_refuses_a_lax_structure_square():
    # a lawful lax vertical transformation of walk_v -> parity whose
    # structure square on some 1v-cell is not an identity square
    p, w = parity(), walk_v()
    ident = p.parity_index[(0, 0, 0, 0, 0)]
    F = strict_functor(w, p, {0: 0, 1: 0}, dict.fromkeys(range(w.n_hcells), 0),
                       dict.fromkeys(range(w.n_vcells), 0),
                       dict.fromkeys(range(w.n_squares), ident))
    hom = HomDoubleCat(w, p, ST)
    strict = lambda s: s == p.sq_h_id(p.sq_left(s)) == p.sq_h_id(p.sq_right(s))
    t = next(t for t in enumerate_transforms(VertTransform, F, F, HOP,
                                             bound=10 ** 5)
             if not all(map(strict, t.comp_v.values())))
    assert check_vert_transform(t).passed
    assert hom_membership(hom, t).laws_failed() == ["member-vert-strict"]


def test_vert_strict_membership_reports_missing_structure_square():
    # over the explicit parity a missing structure square cannot be derived;
    # the strictness scan must not read it, so the report names it instead
    p = parity()
    F = _point_functor(p, 0)
    t = identity_vert_transform(F)
    del t.comp_v[0]
    for flavor in (ST, ST_U):
        rep = hom_membership(HomDoubleCat(F.dom, p, flavor), t)
        assert rep.laws_failed() == ["wf-structure-missing"]


def test_vert_strict_membership_matches_strict_enumeration():
    p, w = parity(), walk_v()
    ident = p.parity_index[(0, 0, 0, 0, 0)]
    F = strict_functor(w, p, {0: 0, 1: 0}, dict.fromkeys(range(w.n_hcells), 0),
                       dict.fromkeys(range(w.n_vcells), 0),
                       dict.fromkeys(range(w.n_squares), ident))
    hom = HomDoubleCat(w, p, ST)
    lawful = list(enumerate_transforms(VertTransform, F, F, HOP,
                                       bound=10 ** 5))
    members = [t.comp_v for t in lawful if hom_membership(hom, t).passed]
    strict = [t.comp_v for t in enumerate_transforms(VertTransform, F, F, ST,
                                                     bound=10 ** 5)]
    assert members == strict and 0 < len(strict) < len(lawful)


def test_enumerate_transforms_between_point_functors():
    p = parity()
    F = _point_functor(p, 0)
    G = _point_functor(p, 0, k=1, t=F.dom)
    hor = list(enumerate_transforms(HorTransform, F, G, HOP, bound=10 ** 5))
    # worked out by hand: components 1_* or h; the structure sign is forced
    # to 1 by the codomain compositor; component squares forced to sign 0
    assert len(hor) == 2
    vert = list(enumerate_transforms(VertTransform, F, G, HOP, bound=10 ** 5))
    assert len(vert) == 2
    mods = list(enumerate_modifications(
        hor[0], hor[0], identity_vert_transform(F),
        identity_vert_transform(G), bound=10 ** 5))
    assert len(mods) >= 1


def test_enumerate_vert_strict_filter():
    p = parity()
    F = _point_functor(p, 0)
    all_vert = list(enumerate_transforms(VertTransform, F, F, HOP,
                                         bound=10 ** 5))
    strict = list(enumerate_transforms(VertTransform, F, F, ST, bound=10 ** 5))
    assert len(strict) <= len(all_vert)
    assert len(strict) >= 1


def test_flavor_table():
    assert FLAVORS["hop"] is HOP
    assert FLAVORS["hop*"].hor == LAX and FLAVORS["hop*"].vert == OPLAX
    assert FLAVORS["st"].vert_strict and not FLAVORS["st"].unitary_only
    assert FLAVORS["st-u"].vert_strict and FLAVORS["st-u"].unitary_only


def _reference_populate(cat, calls):
    """The closure of ``populate_squares`` by the reference route: every
    pair of squares is tried, and a square composite composes its own frame
    from the operands' payloads and is interned from that payload alone.
    Each square composite asked for is logged to ``calls``."""
    def hcomp_sq(s1, s2):
        calls.append(("h", s1, s2))
        if (s1, s2) not in cat._hs:
            cat._hs[(s1, s2)] = cat._intern(SQ, cat._hs_op(
                cat.sq_payload[s1], cat.sq_payload[s2]))
        return cat._hs[(s1, s2)]

    def vcomp_sq(s1, s2):
        calls.append(("v", s1, s2))
        if (s1, s2) not in cat._vs:
            cat._vs[(s1, s2)] = cat._intern(SQ, cat._vs_op(
                cat.sq_payload[s1], cat.sq_payload[s2]))
        return cat._vs[(s1, s2)]

    while True:
        n_cells = (cat.n_hcells, cat.n_vcells, cat.n_squares)
        for f in range(cat.n_hcells):
            for g in range(cat.n_hcells):
                if cat.htgt[f] == cat.hsrc[g]:
                    cat.hcomp_h(f, g)
        for u in range(cat.n_vcells):
            for w in range(cat.n_vcells):
                if cat.vtgt[u] == cat.vsrc[w]:
                    cat.vcomp_v(u, w)
        for f in range(cat.n_hcells):
            cat.sq_v_id(f)
        for u in range(cat.n_vcells):
            cat.sq_h_id(u)
        n = cat.n_squares
        for s1 in range(n):
            for s2 in range(n):
                if cat.sq_right(s1) == cat.sq_left(s2):
                    hcomp_sq(s1, s2)
                if cat.sq_bottom(s1) == cat.sq_top(s2):
                    vcomp_sq(s1, s2)
        if (cat.n_hcells, cat.n_vcells, cat.n_squares) == n_cells:
            return cat


@pytest.mark.parametrize("name", sorted(TABLE_CATEGORIES))
def test_squares_composed_on_interned_frames_match_the_reference(name):
    """Every category of the cell-table goldens, populated on interned
    frames, against the reference route."""
    fast, fast_calls, ref_calls = TABLE_CATEGORIES[name](), [], []
    for kind, op in (("h", fast.hcomp_sq), ("v", fast.vcomp_sq)):
        def logged(s1, s2, kind=kind, op=op):
            fast_calls.append((kind, s1, s2))
            return op(s1, s2)
        setattr(fast, op.__name__, logged)
    populate_squares(fast)
    ref = _reference_populate(TABLE_CATEGORIES[name](), ref_calls)
    # the grouped pairs are the composable ones, visited in the same order
    assert fast_calls == ref_calls
    for table in ("sq_bounds", "sq_names", "hnames", "vnames",
                  "_hh", "_vv", "_hs", "_vs"):
        assert getattr(fast, table) == getattr(ref, table), table
    # the composite payloads fill their frames with the same squares
    keys = lambda cat: [cat._key(SQ, m, b)
                        for m, b in zip(cat.sq_payload, cat.sq_bounds)]
    assert keys(fast) == keys(ref)


@pytest.mark.parametrize("name", ["hom-trivial-parity-hop", "qhom-sign"])
def test_a_composite_frame_must_close(name):
    """A frame passed to a square composite that does not close on the
    operands' corners raises, as a composed one would."""
    cat = populate_squares(TABLE_CATEGORIES[name]())
    s = cat.sq_v_id(cat.h_id(0))  # composable with itself both ways
    other = cat.h_payload[cat.h_id(1)]  # an identity on another object
    m = cat.sq_payload[s]
    with pytest.raises(ChainMismatch):
        cat._hs_op(m, m, other, other)
    with pytest.raises(ChainMismatch):
        cat._vs_op(m, m, cat.v_payload[cat.v_id(1)],
                   cat.v_payload[cat.v_id(1)])
