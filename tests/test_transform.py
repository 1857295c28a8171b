"""Tests for transformations and modifications."""

import collections

import pytest

from dblcheck import quasi, transform
from dblcheck.core import (
    FIXTURES, DoubleCat, bool_matrix_double_category, parity, trivial, walk_h,
    walk_sq)
from dblcheck.errors import ChainMismatch
from dblcheck.functor import (
    LaxDoubleFunctor, identity_functor, strict_functor)
from dblcheck.hom import enumerate_lax_functors
from dblcheck.quasi import identity_q_hor, identity_q_vert
from dblcheck.transform import (
    LAX, OPLAX, HorTransform, Modification, VertTransform,
    check_hor_transform, check_modification, check_vert_transform,
    hcompose_modifications, hcompose_pseudo, identity_hor_transform,
    identity_modification, identity_vert_transform, vcompose_hor,
    vcompose_modifications, vcompose_vert)

from law_rows import instances
from test_functor import parity_sign_functor
from test_quasi import sign_quasi


def sign_square(d, top, bottom, left, right, sign):
    return d.parity_index[(top, bottom, left, right, sign)]


def hot_to_sign(F, G):
    """Oplax transformation from the identity functor to the sign functor
    on parity: identity components, every structure square carrying sign 1.
    The compositor sign of G forces the constant delta sign."""
    d = F.dom
    comp0 = {0: d.h_id(0)}
    comp_v = {u: d.sq_h_id(u) for u in range(d.n_vcells)}
    delta = {f: sign_square(d, f, f, 0, 0, 1) for f in range(d.n_hcells)}
    return HorTransform(F, G, comp0, comp_v, delta, OPLAX, name="to_sign")


def hlt_from_sign(F, G):
    """Lax transformation from the sign functor to the identity functor."""
    d = F.dom
    comp0 = {0: d.h_id(0)}
    comp_v = {u: d.sq_h_id(u) for u in range(d.n_vcells)}
    delta = {f: sign_square(d, f, f, 0, 0, 1) for f in range(d.n_hcells)}
    return HorTransform(F, G, comp0, comp_v, delta, LAX, name="from_sign")


def vlt_to_sign(F, G):
    """Lax vertical transformation from the identity to the sign functor."""
    d = F.dom
    comp0 = {0: d.v_id(0)}
    comp_h = {f: sign_square(d, f, f, 0, 0, 1) for f in range(d.n_hcells)}
    comp_v = {u: d.sq_h_id(u) for u in range(d.n_vcells)}
    return VertTransform(F, G, comp0, comp_h, comp_v, LAX, name="to_sign0")


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("orientation", [OPLAX, LAX])
def test_identity_hor_transform_passes(name, orientation):
    d = FIXTURES[name]()
    t = identity_hor_transform(identity_functor(d), orientation)
    rep = check_hor_transform(t)
    assert rep.passed, rep.laws_failed()


@pytest.mark.parametrize("name", sorted(FIXTURES))
@pytest.mark.parametrize("orientation", [LAX, OPLAX])
def test_identity_vert_transform_passes(name, orientation):
    d = FIXTURES[name]()
    t = identity_vert_transform(identity_functor(d), orientation)
    rep = check_vert_transform(t)
    assert rep.passed, rep.laws_failed()


def test_sign_hor_transform_passes():
    F = identity_functor(parity())
    G = parity_sign_functor(1, d=F.dom)
    t = hot_to_sign(F, G)
    rep = check_hor_transform(t)
    assert rep.passed, rep.laws_failed()


def test_sign_hor_transform_lax_passes():
    d = parity()
    F = parity_sign_functor(1, d=d)
    G = identity_functor(d)
    t = hlt_from_sign(F, G)
    rep = check_hor_transform(t)
    assert rep.passed, rep.laws_failed()


def test_sign_vert_transform_passes():
    F = identity_functor(parity())
    G = parity_sign_functor(1, d=F.dom)
    t = vlt_to_sign(F, G)
    rep = check_vert_transform(t)
    assert rep.passed, rep.laws_failed()


def test_sign_vert_transform_oplax_passes():
    d = parity()
    F = parity_sign_functor(1, d=d)
    G = identity_functor(d)
    comp_h = {f: sign_square(d, f, f, 0, 0, 1) for f in range(d.n_hcells)}
    comp_v = {u: d.sq_h_id(u) for u in range(d.n_vcells)}
    t = VertTransform(F, G, {0: d.v_id(0)}, comp_h, comp_v, OPLAX)
    rep = check_vert_transform(t)
    assert rep.passed, rep.laws_failed()


def test_wrong_delta_sign_detected():
    F = identity_functor(parity())
    G = parity_sign_functor(1, d=F.dom)
    t = hot_to_sign(F, G)
    d = F.dom
    # zero out one structure square: the coherence with G's compositor breaks
    t.delta[1] = sign_square(d, 1, 1, 0, 0, 0)
    rep = check_hor_transform(t)
    assert not rep.passed
    assert any(law.startswith("h.o.t.") for law in rep.laws_failed())


def test_wrong_component_square_detected():
    F = identity_functor(parity())
    G = parity_sign_functor(1, d=F.dom)
    t = hot_to_sign(F, G)
    d = F.dom
    t.comp_v[1] = sign_square(d, 0, 0, 1, 1, 1)
    rep = check_hor_transform(t)
    assert not rep.passed
    laws = rep.laws_failed()
    assert "h.o.t.-3" in laws or "h.o.t.-5" in laws


def test_wrong_vert_structure_detected():
    F = identity_functor(parity())
    G = parity_sign_functor(1, d=F.dom)
    t = vlt_to_sign(F, G)
    d = F.dom
    t.comp_v[1] = sign_square(d, 0, 0, 1, 1, 1)
    rep = check_vert_transform(t)
    assert not rep.passed


def test_vcompose_hor_cancels_signs():
    d = parity()
    ident = identity_functor(d)
    sign = parity_sign_functor(1, d=d)
    al = hot_to_sign(ident, sign)
    be = HorTransform(sign, ident, {0: d.h_id(0)},
                      {u: d.sq_h_id(u) for u in range(d.n_vcells)},
                      {f: sign_square(d, f, f, 0, 0, 1)
                       for f in range(d.n_hcells)}, OPLAX, name="back")
    assert check_hor_transform(be).passed
    comp = vcompose_hor(al, be)
    rep = check_hor_transform(comp)
    assert rep.passed, rep.laws_failed()
    # the two sign-1 structure squares cancel to the identity transformation
    ref = identity_hor_transform(ident)
    assert all(comp.at(a) == ref.at(a) for a in range(d.n_objects))
    assert all(comp.delta_at(f) == ref.delta_at(f) for f in range(d.n_hcells))


def test_vcompose_vert_passes():
    d = parity()
    ident = identity_functor(d)
    sign = parity_sign_functor(1, d=d)
    al = vlt_to_sign(ident, sign)
    comp_h = {f: sign_square(d, f, f, 0, 0, 1) for f in range(d.n_hcells)}
    comp_v = {u: d.sq_h_id(u) for u in range(d.n_vcells)}
    be = VertTransform(sign, ident, {0: d.v_id(0)}, comp_h, comp_v, LAX)
    assert check_vert_transform(be).passed
    comp = vcompose_vert(al, be)
    rep = check_vert_transform(comp)
    assert rep.passed, rep.laws_failed()


def test_vcompose_rejects_mismatched_chain():
    d = parity()
    ident = identity_functor(d)
    sign = parity_sign_functor(1, d=d)
    al = hot_to_sign(ident, sign)
    with pytest.raises(ChainMismatch):
        vcompose_hor(al, al)


def _chain_cells():
    """Identity cells on the identity functor F of parity, the sign
    functor, and for each modification composite a pair whose shared edge
    is the identity on F in the first and, in the second, the same cell
    but for one square that carries sign 1."""
    d = parity()
    F, sign = identity_functor(d), parity_sign_functor(1, d=d)
    hor = lambda orientation=OPLAX: identity_hor_transform(F, orientation)
    vert = lambda orientation=LAX: identity_vert_transform(F, orientation)
    m, flipped = identity_modification(hor()), sign_square(d, 0, 0, 0, 0, 1)
    edge_v = VertTransform(F, F, vert().comp0, {**vert().comp_h, 0: flipped},
                           vert().comp_v)
    edge_h = HorTransform(F, F, hor().comp0, hor().comp_v,
                          {**hor().delta, 0: flipped})
    return collections.namedtuple(
        "ChainCells", "F sign hor vert m beside below")(
        F, sign, hor, vert, m, Modification(hor(), hor(), edge_v, vert(),
                                            m.comp),
        Modification(edge_h, hor(), vert(), vert(), m.comp))


# every ChainMismatch that transform.py raises, with its message; the
# last two pairs of modifications share an edge only up to one square
CHAIN_MISMATCHES = [
    ("frame", "endpoints must be parallel",
     lambda c: HorTransform(c.F, identity_functor(trivial()), {})),
    ("mod-top-bottom", "matching horizontal orientations",
     lambda c: Modification(c.hor(), c.hor(LAX), c.vert(), c.vert(), {})),
    ("mod-left-right", "matching vertical orientations",
     lambda c: Modification(c.hor(), c.hor(), c.vert(), c.vert(OPLAX), {})),
    ("mod-pairing", "unsupported orientation pairing",
     lambda c: Modification(c.hor(), c.hor(), c.vert(OPLAX), c.vert(OPLAX),
                            {})),
    ("vcompose-hor-orientation", "vcompose_hor needs matching orientations",
     lambda c: vcompose_hor(c.hor(), c.hor(LAX))),
    ("vcompose-vert-chain", "vcompose_vert needs alpha.G to be beta.F",
     lambda c: vcompose_vert(vlt_to_sign(c.F, c.sign),
                             vlt_to_sign(c.F, c.sign))),
    ("vcompose-vert-orientation", "vcompose_vert needs matching orientations",
     lambda c: vcompose_vert(c.vert(), c.vert(OPLAX))),
    ("hcompose-mod-functor", "shared vertical edge",
     lambda c: hcompose_modifications(c.m, identity_modification(
         identity_hor_transform(c.sign)))),
    ("vcompose-mod-functor", "shared horizontal edge",
     lambda c: vcompose_modifications(c.m, identity_modification(
         identity_hor_transform(c.sign)))),
    ("hcompose-mod-square", "shared vertical edge",
     lambda c: hcompose_modifications(c.m, c.beside)),
    ("vcompose-mod-square", "shared horizontal edge",
     lambda c: vcompose_modifications(c.m, c.below)),
]


@pytest.mark.parametrize("build, message",
                         [(b, m) for _, m, b in CHAIN_MISMATCHES],
                         ids=[case for case, _, _ in CHAIN_MISMATCHES])
def test_cells_that_do_not_chain_are_refused(build, message):
    with pytest.raises(ChainMismatch, match=message):
        build(_chain_cells())


def test_an_edge_equal_as_a_cell_chains():
    """A shared edge that is another object, whose squares a flat
    codomain derives where the first one stores them, is the same cell:
    the stored dicts differ, the keys do not."""
    F = identity_functor(trivial())
    m = identity_modification(identity_hor_transform(F))
    edge = identity_vert_transform(F)
    edge.comp_h.clear()
    composite = hcompose_modifications(m, Modification(
        m.top, m.bottom, edge, m.right, m.comp))
    assert check_modification(composite).passed


def walk_h_into_parity():
    d = walk_h()
    p = parity()
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "a"][0]
    hmap = {x: (1 if x == f else 0) for x in range(d.n_hcells)}
    vmap = {u: 0 for u in range(d.n_vcells)}
    sqmap = {s: p.parity_index[(hmap[d.sq_top(s)], hmap[d.sq_bottom(s)],
                                0, 0, 0)] for s in range(d.n_squares)}
    return strict_functor(d, p, {0: 0, 1: 0}, hmap, vmap, sqmap)


def theta_with_signs(K, m):
    """Modification on the identity transformations of K with component
    signs m[a] per object; valid exactly when all signs agree."""
    p = K.cod
    top = identity_hor_transform(K)
    bottom = identity_hor_transform(K)
    left = identity_vert_transform(K)
    right = identity_vert_transform(K)
    comp = {a: p.parity_index[(0, 0, 0, 0, m[a])]
            for a in range(K.dom.n_objects)}
    return Modification(top, bottom, left, right, comp)


def test_modification_constant_sign_passes():
    K = walk_h_into_parity()
    for m in ({0: 0, 1: 0}, {0: 1, 1: 1}):
        rep = check_modification(theta_with_signs(K, m))
        assert rep.passed, rep.laws_failed()


def test_modification_mixed_sign_fails():
    K = walk_h_into_parity()
    rep = check_modification(theta_with_signs(K, {0: 0, 1: 1}))
    assert not rep.passed
    assert "m.ho-vl.-1" in rep.laws_failed()


def test_modification_lax_oplax_pairing():
    d = parity()
    sign = parity_sign_functor(1, d=d)
    ident = identity_functor(d)
    al = hlt_from_sign(sign, ident)
    left = identity_vert_transform(sign, OPLAX)
    right = identity_vert_transform(ident, OPLAX)
    comp = {0: d.parity_index[(0, 0, 0, 0, 0)]}
    m = Modification(al, al, left, right, comp)
    rep = check_modification(m)
    assert rep.passed, rep.laws_failed()


def test_identity_modification_passes():
    K = walk_h_into_parity()
    m = identity_modification(identity_hor_transform(K))
    rep = check_modification(m)
    assert rep.passed, rep.laws_failed()


def test_compose_modifications():
    K = walk_h_into_parity()
    m1 = theta_with_signs(K, {0: 1, 1: 1})
    m2 = theta_with_signs(K, {0: 1, 1: 1})
    h = hcompose_modifications(m1, m2)
    assert check_modification(h).passed
    v = vcompose_modifications(m1, m2)
    assert check_modification(v).passed
    # the signs cancel in both composites
    p = K.cod
    assert all(p.parity_sign[h.at(a)] == 0 for a in range(K.dom.n_objects))
    assert all(p.parity_sign[v.at(a)] == 0 for a in range(K.dom.n_objects))


def test_hcompose_pseudo_identity_transforms():
    d = parity()
    ident = identity_functor(d)
    sign = parity_sign_functor(1, d=d)
    al = identity_hor_transform(ident)
    be = identity_hor_transform(sign)
    comp = hcompose_pseudo(al, be)
    rep = check_hor_transform(comp)
    assert rep.passed, rep.laws_failed()


def test_hcompose_pseudo_nontrivial():
    d = parity()
    ident = identity_functor(d)
    sign = parity_sign_functor(1, d=d)
    al = hot_to_sign(ident, sign)
    ident2 = identity_functor(d)
    be = identity_hor_transform(sign)
    # beta's functors start at sign = al.cod's codomain functor frame
    be = HorTransform(sign, sign, {0: d.h_id(0)},
                      {u: d.sq_h_id(u) for u in range(d.n_vcells)},
                      {f: d.sq_v_id(f) for f in range(d.n_hcells)}, OPLAX)
    comp = hcompose_pseudo(al, be)
    rep = check_hor_transform(comp)
    assert rep.passed, rep.laws_failed()


def test_flat_codomain_transform_derivation():
    b1 = bool_matrix_double_category(1)
    b2 = bool_matrix_double_category(2)
    ob = {a: b2.objects.index(b1.objects[a]) for a in range(b1.n_objects)}
    hmap = {f: b2.hindex[(b1.hsrc[f], b1.htgt[f], b1.hmat[f])]
            for f in range(b1.n_hcells)}
    vmap = {u: b2.vindex[(b1.vsrc[u], b1.vtgt[u], b1.vfun[u])]
            for u in range(b1.n_vcells)}
    F = strict_functor(b1, b2, ob, hmap, vmap)
    # components given, structure squares derived from the flat codomain
    t = HorTransform(F, F, {a: b2.h_id(F.obj(a)) for a in range(b1.n_objects)})
    rep = check_hor_transform(t)
    assert rep.passed, rep.laws_failed()
    t0 = VertTransform(F, F, {a: b2.v_id(F.obj(a)) for a in range(b1.n_objects)})
    rep = check_vert_transform(t0)
    assert rep.passed, rep.laws_failed()


def test_stored_square_with_undefined_boundary_reported():
    # the structure squares are stored, but their boundaries need the
    # composites R;R and W;W, which the codomain lacks: the well-formedness
    # check reports the missing composite instead of raising
    c = DoubleCat("no-RR")
    x = c.add_object("*")
    one = c.add_hcell("1_*", x, x, identity_of=x)
    r = c.add_hcell("R", x, x)
    v = c.add_vcell("1^*", x, x, identity_of=x)
    w = c.add_vcell("W", x, x)
    for f in (one, r):
        c.set_hh(one, f, f)
        c.set_hh(f, one, f)
    for u in (v, w):
        c.set_vv(v, u, u)
        c.set_vv(u, v, u)
    rr = c.add_square("rr", r, r, v, v)
    ww = c.add_square("ww", one, one, w, w)
    t = trivial()
    F = LaxDoubleFunctor(t, c, {0: x}, {0: r}, {0: v})
    rep = check_hor_transform(HorTransform(F, F, {0: r}, {0: rr}, {0: rr}))
    assert rep.failures == [("wf-structure-missing", {
        "hcell": 0, "error": "hcomp_h table missing entry (R, R)"})]
    G = LaxDoubleFunctor(t, c, {0: x}, {0: one}, {0: w})
    rep = check_vert_transform(VertTransform(G, G, {0: w}, {0: ww}, {0: ww}))
    assert rep.failures == [("wf-structure-missing", {
        "vcell": 0, "error": "vcomp_v table missing entry (W, W)"})]


def _parity_cell(kind):
    F = identity_functor(parity())
    if kind == "modification":
        return identity_modification(identity_hor_transform(F))
    return {"hor": identity_hor_transform,
            "vert": identity_vert_transform}[kind](F)


CHECKS = {"hor": check_hor_transform, "vert": check_vert_transform,
          "modification": check_modification}

# one entry of an identity transformation or modification on parity moved
# to a square of another boundary (square 0 is s[0000:0]) or to an id that
# parity lacks; every 1-cell of parity has a component's ends, so only an
# id out of range, or None, takes a component off them
PARITY_BOUNDARY_MUTANTS = [
    ("hor", "comp0", 0, 10 ** 6, ("wf-component-boundary", {"object": 0})),
    ("hor", "comp_v", 1, 0, ("wf-square-boundary", {"vcell": 1})),
    ("hor", "delta", 1, 0, ("wf-structure-boundary", {"hcell": 1})),
    ("hor", "delta", 1, 10 ** 6, ("wf-structure-boundary", {"hcell": 1})),
    ("vert", "comp0", 0, -1, ("wf-component-boundary", {"object": 0})),
    ("vert", "comp_h", 1, 0, ("wf-square-boundary", {"hcell": 1})),
    ("vert", "comp_v", 1, 0, ("wf-structure-boundary", {"vcell": 1})),
    ("modification", "comp", 0, 24,
     ("wf-component-boundary", {"object": 0})),
    ("modification", "comp", 0, 10 ** 6,
     ("wf-component-boundary", {"object": 0})),
    ("hor", "comp0", 0, None, ("wf-component-boundary", {"object": 0})),
    ("hor", "delta", 1, None, ("wf-structure-boundary", {"hcell": 1})),
    ("vert", "comp_h", 1, None, ("wf-square-boundary", {"hcell": 1})),
    ("modification", "comp", 0, None,
     ("wf-component-boundary", {"object": 0})),
]


@pytest.mark.parametrize("kind, field, key, image, failure",
                         PARITY_BOUNDARY_MUTANTS)
def test_parity_transform_boundary_mutants(kind, field, key, image, failure):
    t = _parity_cell(kind)
    getattr(t, field)[key] = image
    assert CHECKS[kind](t).failures == [failure]


def _without_top_component(m):
    del m.top.comp0[0]


def _without_functor_vcell(t):
    del t.F.vmap[0]


def _separate_g_without_object(t):
    t.G = identity_functor(t.dom)
    del t.G.ob[0]


# a cell on parity whose entry is present but whose frame cannot be read
# (it raises KeyError): the passes read an entry and its frame in one try,
# so the entry is missing, where the parent raised the KeyError
UNREADABLE_FRAMES = [
    ("modification", _without_top_component,
     ("wf-component-missing", {
         "object": 0, "error": "_bounds(0) read a missing entry: 0"})),
    ("hor", _without_functor_vcell,
     ("wf-square-missing", {
         "vcell": 0, "error": "_sq_v_bounds(0) read a missing entry: 0"})),
    ("hor", _separate_g_without_object,
     ("wf-component-missing", {"object": 0})),
]


@pytest.mark.parametrize("kind, damage, failure", UNREADABLE_FRAMES,
                         ids=lambda x: getattr(x, "__name__", None))
def test_entry_with_an_unreadable_frame_is_missing(kind, damage, failure):
    t = _parity_cell(kind)
    damage(t)
    assert CHECKS[kind](t).failures == [failure]


def test_an_unreadable_derived_square_names_its_accessor():
    """Over a flat codomain a left-out square is derived in its accessor,
    which then reads the missing entry."""
    t = identity_hor_transform(identity_functor(trivial()))
    t.comp_v.clear()
    del t.F.vmap[0]
    assert check_hor_transform(t).failures == [("wf-square-missing", {
        "vcell": 0, "error": "sq_v(0) read a missing entry: 0"})]


def _law_counts(laws, x):
    """Instances per law label of one catalogue run, through an emit that
    counts and evaluates nothing."""
    counts = collections.Counter()
    laws(x, instances(lambda law, lhs, rhs, **witness: counts.update((law,))))
    return dict(counts)


def _composable(n, src, tgt):
    return sum(tgt[x] == src[y] for x in range(n) for y in range(n))


@pytest.mark.parametrize("orientation", [OPLAX, LAX])
def test_catalogue_instance_counts(orientation):
    walk_sq_functor = next(enumerate_lax_functors(walk_sq(), parity()))
    for F in (identity_functor(parity()), walk_sq_functor):
        d = F.dom
        h_pairs = _composable(d.n_hcells, d.hsrc, d.htgt)
        v_pairs = _composable(d.n_vcells, d.vsrc, d.vtgt)
        n_squares = len(list(d.iter_squares()))
        hor = "h.o.t." if orientation == OPLAX else "h.l.t."
        t = identity_hor_transform(F, orientation)
        assert _law_counts(transform._hor_transform_laws, t) == {
            hor + "-1": h_pairs, hor + "-2": d.n_objects,
            "h.o.t.-3": v_pairs, "h.o.t.-4": d.n_objects,
            hor + "-5": n_squares}
        vert = "v.l.t." if orientation == LAX else "v.o.t."
        assert _law_counts(transform._vert_transform_laws,
                           identity_vert_transform(F, orientation)) == {
            "v.l.t.-1": h_pairs, "v.l.t.-2": d.n_objects,
            vert + "-3": v_pairs, "v.l.t.-4": d.n_objects,
            vert + "-5": n_squares}
        mod = "m.ho-vl." if orientation == OPLAX else "m.hl-vo."
        assert _law_counts(transform._modification_laws,
                           identity_modification(t)) == {
            mod + "-1": d.n_hcells, mod + "-2": d.n_vcells}


def test_q_cell_catalogue_instance_counts():
    q = sign_quasi({0: 0, 1: 1})
    A, B = q.A, q.B
    assert _law_counts(quasi._q_cell_laws, identity_q_hor(q)) == {
        "q-hor-1": B.n_hcells * A.n_hcells, "q-hor-2": B.n_vcells * A.n_hcells,
        "q-hor-3": B.n_hcells * A.n_vcells, "q-hor-4": B.n_vcells * A.n_vcells}
    assert _law_counts(quasi._q_cell_laws, identity_q_vert(q)) == {
        "q-vert-1": B.n_vcells * A.n_vcells,
        "q-vert-2": B.n_vcells * A.n_hcells,
        "q-vert-3": B.n_hcells * A.n_vcells,
        "q-vert-4": B.n_hcells * A.n_hcells}
