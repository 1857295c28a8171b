"""Tests for quasi functors, their cells, and currying."""

import gc
import os
from collections import Counter

import pytest

from dblcheck import quasi
from dblcheck.core import (
    FIXTURES, bool_matrix_double_category, parity, trivial, walk_h, walk_v)
from dblcheck.errors import ChainMismatch
from dblcheck.functor import (
    LaxDoubleFunctor, check_lax_functor, functor_equal, identity_functor,
    strict_functor)
from dblcheck.hom import HOP, HomDoubleCat
from dblcheck.monads import enumerate_distributive_laws
from dblcheck.quasi import (
    QHorTransform, QuasiFunctor, _stored_cells, check_q_cell, check_q_mod,
    check_quasi_functor, curry0, curry_cell, curry_mod, identity_q_hor,
    identity_q_vert, q_hom_double_category, uncurry0, uncurry_cell,
    uncurry_mod, vcompose_q_hor, vcompose_q_vert)
from dblcheck.strictify import product_dom, strictify0
from dblcheck.tensor import verify_universal_property
from dblcheck.transform import (
    HorTransform, Modification, check_hor_transform, check_vert_transform,
    identity_hor_transform, identity_modification, identity_vert_transform)

from law_rows import instances


def point_functor(t, p, sign):
    """Lax functor from the point into parity with carrier 1_* and the
    given compositor/unitor sign."""
    comp = {(0, 0): p.parity_index[(0, 0, 0, 0, sign)]}
    unit = {0: p.parity_index[(0, 0, 0, 0, sign)]}
    sqmap = {0: p.parity_index[(0, 0, 0, 0, 0)]}
    return LaxDoubleFunctor(t, p, {0: 0}, {0: 0}, {0: 0}, sqmap, comp, unit,
                            name="pt%d" % sign)


def walk_into_parity(w, p):
    f = [x for x in range(w.n_hcells) if w.hnames[x] == "a"][0]
    hmap = {x: (1 if x == f else 0) for x in range(w.n_hcells)}
    vmap = {u: 0 for u in range(w.n_vcells)}
    sqmap = {s: p.parity_index[(hmap[w.sq_top(s)], hmap[w.sq_bottom(s)],
                                0, 0, 0)] for s in range(w.n_squares)}
    return strict_functor(w, p, {0: 0, 1: 0}, hmap, vmap, sqmap)


def sign_quasi(signs, w=None, t=None, p=None):
    """Quasi functor (walk, point) -> parity with the point-functor family
    carrying the given per-object signs; the interchanger on the walk's
    generator is forced to the sign difference of its endpoints."""
    w = w or walk_h()
    t = t or trivial()
    p = p or parity()
    fam_a = {a: point_functor(t, p, signs[a]) for a in range(w.n_objects)}
    fam_b = {0: walk_into_parity(w, p)}
    kk = {}
    for K in range(w.n_hcells):
        a, ap = w.hsrc[K], w.htgt[K]
        img = fam_b[0].h(K)
        kk[(0, K)] = p.parity_index[(img, img, 0, 0,
                                     (signs[a] + signs[ap]) % 2)]
    return QuasiFunctor(w, t, p, fam_a, fam_b, kk)


def test_sign_quasi_passes():
    for signs in ({0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}):
        q = sign_quasi(signs)
        rep = check_quasi_functor(q)
        assert rep.passed, rep.laws_failed()


def test_sign_quasi_trivial_uu_and_unitary():
    q = sign_quasi({0: 0, 1: 1})
    assert check_quasi_functor(q, trivial_uU=True).passed
    # parity sign squares are invertible, so the families are unitary
    assert check_quasi_functor(q, unitary=True).passed


def test_wrong_interchanger_sign_detected():
    q = sign_quasi({0: 0, 1: 1})
    w, p = q.A, q.C
    f = [x for x in range(w.n_hcells) if w.hnames[x] == "a"][0]
    img = q.fB(0).h(f)
    q.kk[(0, f)] = p.parity_index[(img, img, 0, 0, 0)]
    rep = check_quasi_functor(q)
    assert not rep.passed
    assert "(1_B,K)" in rep.laws_failed()


def test_wrong_family_sign_detected():
    q = sign_quasi({0: 0, 1: 1})
    q.fam_a[1] = point_functor(q.B, q.C, 0)
    rep = check_quasi_functor(q)
    assert not rep.passed


def test_interchanger_whose_frame_does_not_compose_is_missing():
    """An interchanger is read with its frame: when the codomain cannot
    compose the frame's top, the entry reports missing (the parent raised
    the codomain's error)."""
    from test_functor import endo_cod, point_onto
    c = endo_cod([["e", "e", "e"], ["e2", "e2", "e2"]])
    A, B = trivial(), trivial()
    e = c.hnames.index("e")
    q = QuasiFunctor(A, B, c, {0: point_onto(c, "e", B)},
                     {0: point_onto(c, "e2", A)},
                     kk={(0, 0): c.find_square(e, e, 0, 0)})
    assert check_quasi_functor(q).failures == [
        ("kk-missing", {"k": 0, "K": 0})]


def test_missing_interchanger_detected():
    q = sign_quasi({0: 0, 1: 1})
    f = [x for x in range(q.A.n_hcells) if q.A.hnames[x] == "a"][0]
    del q.kk[(0, f)]
    rep = check_quasi_functor(q)
    assert not rep.passed and "kk-missing" in rep.laws_failed()


def preorder_point(t, b2, rel):
    """Lax functor from the point into the matrix category with the given
    reflexive transitive relation on two elements as carrier."""
    o = b2.objects.index("2")
    R = b2.hindex[(o, o, frozenset(rel))]
    comp = {(0, 0): b2.find_square(b2.hcomp_h(R, R), R,
                                   b2.v_id(o), b2.v_id(o))}
    unit = {0: b2.find_square(b2.h_id(o), R, b2.v_id(o), b2.v_id(o))}
    assert comp[(0, 0)] is not None and unit[0] is not None
    return LaxDoubleFunctor(t, b2, {0: o}, {0: R}, {0: b2.v_id(o)},
                            None, comp, unit)


def distributive_quasi(relA, relB):
    """Quasi functor (point, point) -> matrices; the single interchanger
    exists exactly when composing the carriers one way refines the other."""
    t1, t2 = trivial(), trivial()
    b2 = bool_matrix_double_category(2)
    F = preorder_point(t1, b2, relA)
    G = preorder_point(t2, b2, relB)
    top = b2.hcomp_h(F.h(0), G.h(0))
    bottom = b2.hcomp_h(G.h(0), F.h(0))
    o = F.obj(0)
    s = b2.find_square(top, bottom, b2.v_id(o), b2.v_id(o))
    kk = {} if s is None else {(0, 0): s}
    return QuasiFunctor(t1, t2, b2, {0: G}, {0: F}, kk)


def test_distributive_quasi_identity_carrier():
    q = distributive_quasi({(0, 0), (1, 1)}, {(0, 0), (1, 1), (0, 1)})
    rep = check_quasi_functor(q, trivial_uU=True)
    assert rep.passed, rep.laws_failed()


def test_distributive_quasi_not_unitary():
    q = distributive_quasi({(0, 0), (1, 1)}, {(0, 0), (1, 1), (0, 1)})
    rep = check_quasi_functor(q, unitary=True)
    # the reflexive nonidentity carrier sits in the first family
    assert not rep.passed and "fam-a-not-unitary" in rep.laws_failed()


# -- the pairing quasi functor ----------------------------------------------


def pairing_quasi(A, B):
    """The pairing quasi functor (A, B) -> P, with P = product_dom(A, B).
    Its members are the strict functors b |-> (a, b) and a |-> (a, b);
    each interchanger pairs the identity squares of its two cells, so kk
    and uu hold P's identity squares."""
    P = product_dom(A, B)
    A, B = P._factors
    no, nh, nv, ns = B.n_objects, B.n_hcells, B.n_vcells, B.n_squares
    fam_a = {a: strict_functor(
        B, P, {b: a * no + b for b in range(no)},
        {k: A.h_id(a) * nh + k for k in range(nh)},
        {u: A.v_id(a) * nv + u for u in range(nv)},
        {om: A.sq_id_obj(a) * ns + om for om in range(ns)},
        name="(%s,-)" % A.objects[a]) for a in range(A.n_objects)}
    fam_b = {b: strict_functor(
        A, P, {a: a * no + b for a in range(A.n_objects)},
        {K: K * nh + B.h_id(b) for K in range(A.n_hcells)},
        {U: U * nv + B.v_id(b) for U in range(A.n_vcells)},
        {ze: ze * ns + B.sq_id_obj(b) for ze in range(A.n_squares)},
        name="(-,%s)" % B.objects[b]) for b in range(no)}
    hs, vs = _stored_cells(B, "h"), _stored_cells(B, "v")
    Hs, Vs = _stored_cells(A, "h"), _stored_cells(A, "v")
    kk = {(k, K): P.sq_v_id(K * nh + k) for k in hs for K in Hs}
    uk = {(u, K): A.sq_v_id(K) * ns + B.sq_h_id(u) for u in vs for K in Hs}
    ku = {(k, U): A.sq_h_id(U) * ns + B.sq_v_id(k) for k in hs for U in Vs}
    uu = {(u, U): P.sq_h_id(U * nv + u) for u in vs for U in Vs}
    return QuasiFunctor(A, B, P, fam_a, fam_b, kk, uk, ku, uu, name="pair")


PAIRING_FACTORS = [("walk_v", "walk_v"), ("walk_sq", "walk_v"),
                   ("walk_h", "walk_sq"), ("parity", "walk_v")]


@pytest.mark.parametrize("a, b", PAIRING_FACTORS)
def test_pairing_quasi_functor_is_lawful(a, b):
    """Vertical cells in both variables: the pairing quasi functor passes,
    strictifies to the identity of the product (the bifunctor theorem's
    base case), survives currying and factors through the tensor."""
    q = pairing_quasi(FIXTURES[a](), FIXTURES[b]())
    assert q.uk and (q.ku or a == "walk_h")  # walk_h has no free 1v-cell
    rep = check_quasi_functor(q, trivial_uU=True)
    assert rep.passed, rep.laws_failed()
    assert functor_equal(strictify0(q, q.C), identity_functor(q.C))
    back = uncurry0(curry0(q))
    assert (back.kk, back.uk, back.ku, back.uu) == (q.kk, q.uk, q.ku, q.uu)
    rep = verify_universal_property(q)
    assert rep.passed, rep.laws_failed()


def flip_parity_factor(P, s):
    """The square of P = parity x B whose parity factor has the other
    sign: the same boundary, another square."""
    A, B = P._factors
    sa, sb = divmod(s, B.n_squares)
    other = A.parity_index[A.sq_bounds[sa] + (1 - A.parity_sign[sa],)]
    return other * B.n_squares + sb


# the laws that fail when the last entry of each store of the pairing
# quasi functor on (parity, walk_v) takes the other sign
PAIRING_FLIP_LAWS = {
    "kk": ["(1_B,K)", "(k'k,K)", "(k,K)-l-nat", "(k,K)-r-nat"],
    "uk": ["(u,U)-r-nat"],
    "ku": ["(1_B,U)", "(k'k,U)", "(k,K)-r-nat", "(u,U)-l-nat"],
    "uu": ["(u,U)-r-nat"],
}


@pytest.mark.parametrize("store", sorted(PAIRING_FLIP_LAWS))
def test_pairing_quasi_functor_mutants(store):
    def mutant():
        q = pairing_quasi(parity(), walk_v())
        return q, getattr(q, store), max(getattr(q, store))

    q, entries, key = mutant()
    entries[key] = flip_parity_factor(q.C, entries[key])
    rep = check_quasi_functor(q)
    assert rep.laws_failed() == PAIRING_FLIP_LAWS[store]
    # of the four, only a flipped uu leaves the identity squares
    extra = [("uu-nontrivial", dict(zip("uU", key)))] if store == "uu" else []
    assert check_quasi_functor(q, trivial_uU=True).failures == (
        rep.failures + extra)
    q, entries, key = mutant()
    entries[key] = next(s for s in range(q.C.n_squares)
                        if q.C.sq_bounds[s] != q.C.sq_bounds[entries[key]])
    assert check_quasi_functor(q).laws_failed() == [store + "-boundary"]
    q, entries, key = mutant()
    del entries[key]
    assert check_quasi_functor(q).laws_failed() == [store + "-missing"]


def test_pairing_quasi_functor_labels_disagreeing_families():
    q = pairing_quasi(walk_v(), walk_v())
    q.fam_b[0] = q.fam_b[1]
    assert check_quasi_functor(q).failures == [
        ("agreement", {"a": 0, "b": 0}), ("agreement", {"a": 1, "b": 0})]


def test_interchanger_id_out_of_range_fails_its_boundary():
    q = sign_quasi({0: 0, 1: 1})
    q.kk[(0, 2)] = 10 ** 6
    assert check_quasi_functor(q).failures == [
        ("kk-boundary", {"k": 0, "K": 2})]


# -- cells between quasi functors -------------------------------------------


def test_identity_q_cells_pass():
    q = sign_quasi({0: 0, 1: 1})
    assert check_q_cell(identity_q_hor(q)).passed
    assert check_q_cell(identity_q_vert(q)).passed


def sign_q_hor(q1, q2):
    """Q-horizontal transformation between two sign quasi functors sharing
    their frame; the family deltas are forced by the compositor signs."""
    w, t, p = q1.A, q1.B, q1.C
    th_a = {}
    for a in range(w.n_objects):
        F, G = q1.fA(a), q2.fA(a)
        d = (p.parity_sign[F.compositor(0, 0)]
             + p.parity_sign[G.compositor(0, 0)]) % 2
        th_a[a] = HorTransform(F, G, {0: p.h_id(0)},
                               {0: p.sq_h_id(p.v_id(0))},
                               {0: p.parity_index[(0, 0, 0, 0, d)]})
    F, G = q1.fB(0), q2.fB(0)
    comp0 = {a: p.h_id(0) for a in range(w.n_objects)}
    comp_v = {u: p.sq_h_id(p.v_id(0)) for u in range(w.n_vcells)}
    # the walk-indexed family can carry identity deltas; the mixed law only
    # ties the point-family deltas to the interchanger signs
    delta = {K: p.sq_v_id(F.h(K)) for K in range(w.n_hcells)}
    th_b = {0: HorTransform(F, G, comp0, comp_v, delta)}
    return QHorTransform(q1, q2, th_a, th_b)


def test_sign_q_hor_passes():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    th = sign_q_hor(q1, q2)
    rep = check_q_cell(th)
    assert rep.passed, rep.laws_failed()


def test_q_hor_mixed_law_detected():
    # componentwise everything is fine, but the target interchanger signs
    # disagree with the family deltas, breaking only the mixed law
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    th = sign_q_hor(q1, q2)
    f = [x for x in range(q1.A.n_hcells) if q1.A.hnames[x] == "a"][0]
    img = q2.fB(0).h(f)
    q2.kk[(0, f)] = q1.C.parity_index[(img, img, 0, 0, 1)]
    rep = check_q_cell(th)
    assert not rep.passed
    assert set(rep.laws_failed()) == {"q-hor-1"}


def test_compose_q_cells():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    th = sign_q_hor(q1, q2)
    back = sign_q_hor(q2, q1)
    comp = vcompose_q_hor(th, back)
    assert check_q_cell(comp).passed
    with pytest.raises(ChainMismatch):
        vcompose_q_hor(th, th)
    v1 = identity_q_vert(q1)
    comp_v = vcompose_q_vert(v1, v1)
    assert check_q_cell(comp_v).passed


def identity_q_mod(q):
    top = identity_q_hor(q)
    bottom = identity_q_hor(q)
    left = identity_q_vert(q)
    right = identity_q_vert(q)
    m_a = {a: identity_modification(top.th_a[a]) for a in top.th_a}
    m_b = {b: identity_modification(top.th_b[b]) for b in top.th_b}
    from dblcheck.quasi import QModification
    return QModification(top, bottom, left, right, m_a, m_b)


def test_identity_q_mod_passes():
    q = sign_quasi({0: 0, 1: 1})
    m = identity_q_mod(q)
    rep = check_q_mod(m)
    assert rep.passed, rep.laws_failed()


# -- currying ---------------------------------------------------------------


def test_curry_roundtrip_functor():
    q = sign_quasi({0: 0, 1: 1})
    P = curry0(q)
    hom = P.cod
    rep = check_lax_functor(P)
    assert rep.passed, rep.laws_failed()
    assert curry0(q, hom) is P
    q2 = uncurry0(P)
    assert q2.fam_a[0] is q.fam_a[0] and q2.fam_a[1] is q.fam_a[1]
    assert q2.kk == q.kk and q2.uk == q.uk
    assert q2.ku == q.ku and q2.uu == q.uu
    for b in range(q.B.n_objects):
        got, want = q2.fB(b), q.fB(b)
        assert got.ob == want.ob and got.hmap == want.hmap
        assert got.comp == want.comp and got.unit == want.unit
    assert check_quasi_functor(q2).passed


def test_curry_roundtrip_distributive():
    q = distributive_quasi({(0, 0), (1, 1)}, {(0, 0), (1, 1), (0, 1)})
    P = curry0(q)
    assert check_lax_functor(P).passed
    q2 = uncurry0(P)
    assert check_quasi_functor(q2).passed


def test_curry_roundtrip_hor():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    th = sign_q_hor(q1, q2)
    hom = HomDoubleCat(q1.B, q1.C, HOP)
    tr = curry_cell(th, hom)
    rep = check_hor_transform(tr)
    assert rep.passed, rep.laws_failed()
    back = uncurry_cell(tr, hom)
    assert check_q_cell(back).passed
    for a in th.th_a:
        assert back.th_a[a].comp0 == th.th_a[a].comp0
        assert back.th_a[a].delta == th.th_a[a].delta
    assert back.th_b[0].comp0 == th.th_b[0].comp0
    assert back.th_b[0].delta == th.th_b[0].delta


def test_curry_roundtrip_vert():
    q = sign_quasi({0: 0, 1: 1})
    tv = identity_q_vert(q)
    hom = HomDoubleCat(q.B, q.C, HOP)
    tr = curry_cell(tv, hom)
    rep = check_vert_transform(tr)
    assert rep.passed, rep.laws_failed()
    back = uncurry_cell(tr, hom)
    assert check_q_cell(back).passed
    for a in tv.th_a:
        assert back.th_a[a].comp0 == tv.th_a[a].comp0


def test_curry_roundtrip_mod():
    q = sign_quasi({0: 0, 1: 1})
    m = identity_q_mod(q)
    hom = HomDoubleCat(q.B, q.C, HOP)
    mod = curry_mod(m, hom)
    back = uncurry_mod(mod, hom)
    assert check_q_mod(back).passed
    for a in m.m_a:
        for b in m.m_b:
            assert back.at(a, b) == m.at(a, b)


# -- the double category of quasi functors ----------------------------------


def test_q_hom_category_smoke():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    qh = q_hom_double_category(q1.A, q1.B, q1.C)
    a1 = qh.intern_quasi(q1)
    a2 = qh.intern_quasi(q2)
    assert a1 != a2
    assert qh.intern_quasi(q1) == a1
    th = sign_q_hor(q1, q2)
    f = qh.intern_q_hor(th)
    assert qh.hsrc[f] == a1 and qh.htgt[f] == a2
    g = qh.hcomp_h(qh.h_id(a1), f)
    assert qh.hsrc[g] == a1 and qh.htgt[g] == a2
    s = qh.sq_v_id(f)
    assert qh.sq_bounds[s][0] == f and qh.sq_bounds[s][1] == f
    u = qh.v_id(a1)
    s2 = qh.sq_h_id(u)
    assert qh.sq_bounds[s2][2] == u and qh.sq_bounds[s2][3] == u


def test_q_hom_public_intern_routes():
    # fresh identity payloads find the identity cells interned with q
    q = sign_quasi({0: 0, 1: 1})
    qh = q_hom_double_category(q.A, q.B, q.C)
    a = qh.intern_quasi(q)
    f = qh.intern_q_hor(identity_q_hor(q))
    assert f == qh.h_id(a)
    assert qh.intern_q_vert(identity_q_vert(q)) == qh.v_id(a)
    assert qh.intern_q_mod(identity_q_mod(q)) == qh.sq_v_id(f)
    assert (qh.n_hcells, qh.n_vcells, qh.n_squares) == (1, 1, 1)


def test_curry_cache_not_reused_after_collection(monkeypatch):
    # A collected quasi functor's address may be handed to a new one, and a
    # cache keyed by id() would then return the collected one's functor.
    # Every id() in the quasi module collides here, so such a cache fails
    # whatever the allocator does.
    monkeypatch.setattr(quasi, "id", lambda obj: 0, raising=False)
    q = sign_quasi({0: 0, 1: 1})
    w, t, p = q.A, q.B, q.C
    hom = HomDoubleCat(t, p, HOP)
    Pa = curry0(q, hom)
    del q
    gc.collect()
    q = sign_quasi({0: 1, 1: 0}, w=w, t=t, p=p)
    Pb = curry0(q, hom)
    assert Pb is not Pa
    assert [Pb.obj(a) for a in range(w.n_objects)] != \
        [Pa.obj(a) for a in range(w.n_objects)]
    assert check_quasi_functor(uncurry0(Pb)).passed


def _quasi_closed_form_counts(A, B):
    """Instance counts of every law of the mixed quasi functor catalogue on
    a quasi functor A x B -> C, in closed form over the cells of A and B."""
    def pairs(src, tgt):  # composable pairs: f then g with tgt f = src g
        return sum(src.count(x) for x in tgt)

    ah, av, bh, bv = A.n_hcells, A.n_vcells, B.n_hcells, B.n_vcells
    ao, bo = A.n_objects, B.n_objects
    a_hh, a_vv = pairs(A.hsrc, A.htgt), pairs(A.vsrc, A.vtgt)
    b_hh, b_vv = pairs(B.hsrc, B.htgt), pairs(B.vsrc, B.vtgt)
    a_sq, b_sq = len(list(A.iter_squares())), len(list(B.iter_squares()))
    return {
        "(1_B,K)": bo * ah, "(1_B,U)": bo * av,
        "(k,1_A)": ao * bh, "(u,1_A)": ao * bv,
        "(1^B,K)": bo * ah, "(k,1^A)": ao * bh,
        "(1^B,U)": bo * av, "(u,1^A)": ao * bv,
        "(k'k,K)": b_hh * ah, "(k,K'K)": a_hh * bh, "(u,K'K)": a_hh * bv,
        "(k'k,U)": b_hh * av,
        "(u/u',K)": b_vv * ah, "(u/u',U)": b_vv * av,
        "(k,U/U')": a_vv * bh, "(u,U/U')": a_vv * bv,
        "(k,K)-l-nat": b_sq * ah, "(u,U)-l-nat": b_sq * av,
        "(k,K)-r-nat": a_sq * bh, "(u,U)-r-nat": a_sq * bv,
    }


def _preorder_pair():
    from dblcheck.cli import _load_quasi, _read_doc
    return _load_quasi(_read_doc(os.path.join(
        os.path.dirname(__file__), "..", "fixtures", "preorder-pair.json")))


@pytest.mark.parametrize("make", [
    lambda: sign_quasi({0: 0, 1: 0}), lambda: sign_quasi({0: 0, 1: 1}),
    lambda: sign_quasi({0: 1, 1: 0}), lambda: sign_quasi({0: 1, 1: 1}),
    _preorder_pair, lambda: pairing_quasi(parity(), walk_v())],
    ids=["sign00", "sign01", "sign10", "sign11", "preorder-pair",
         "pairing"])
def test_quasi_catalogue_instance_counts(make):
    """The mixed quasi functor catalogue emits the closed-form number of
    instances of each law: for example ``(1_B,K)`` once per object of B and
    1h-cell of A."""
    q = make()
    emitted = Counter()
    quasi._quasi_laws(
        q, instances(lambda law, lhs, rhs, **w: emitted.update((law,))))
    assert emitted == _quasi_closed_form_counts(q.A, q.B)


def test_derived_unit_laws_fail_where_the_swap_is_not_invertible():
    """ROADMAP D6: on bool3 at carrier 3, the distributive law of T1 over
    T6 passes the quasi functor laws, but its swap, the interchanger at
    the identities, is not vertically invertible; so ``derive_unit_laws``
    cannot grant the two unit laws and names each as derived."""
    laws = enumerate_distributive_laws(bool_matrix_double_category(3), 3)
    law = next(L for L in laws if (L.mt.name, L.ms.name) == ("T1", "T6"))
    assert check_quasi_functor(law.quasi).passed
    assert law.d.vertical_inverse(law.swap) is None
    assert check_quasi_functor(law.quasi, derive_unit_laws=True).failures == [
        ("(1_B,K)", {"b": 0, "K": 0, "derived": True}),
        ("(k,1_A)", {"a": 0, "k": 0, "derived": True})]
