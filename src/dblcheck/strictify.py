"""Strictification of quasi functors and its partial inverse.

A quasi functor out of a pair of double categories whose mixed vertical
interchangers are all trivial can be packaged as a single lax double functor
out of the cartesian product; the compositor and unitor squares of the
result record the interchanger data.  Conversely a lax functor out of a
product unpacks into a quasi functor when its unitors are invertible and the
compositors along identity-padded factorizations are invertible.  Both
directions extend to horizontal and vertical transformations and to
modifications, each kind of transformation handled by one function
(``strictify_cell``, in the terms of ``quasi._cell_terms``, and
``destrictify_cell``), and the round trip is witnessed by an invertible
comparison cell in each direction.
"""

from functools import partial
from operator import attrgetter

from .core import (
    HCELL, OBJECT, SQUARE, VCELL, Record, ValidationReport, composable_pairs,
    dc_product, explicit_clone, product_cell, product_cells,
    product_projections)
from .errors import NontrivialUU, NotDecomposable, NotUnitary
from .functor import LaxDoubleFunctor
from .quasi import (
    _INTERCHANGERS, Q_TRANSFORMS, QHorTransform, QModification, QuasiFunctor,
    _cell_ends, _cell_terms, _memberwise, _quasi_key, _stored_cells,
    check_q_cell, check_q_mod, vcompose_q_hor)
from .transform import (
    OPLAX, TRANSFORM_KINDS, HorTransform, Modification, check_hor_transform,
    check_modification, transform_equal, vcompose_hor)


def product_dom(A, B):
    """Cartesian product of A and B with explicit square tables, one per
    pair of flat factors.

    Flat factors are cloned to the explicit backend first; the clone keeps
    every cell id, so indices computed against the originals stay valid.
    ``dc_product`` keeps the factors on the result, and ``_strictified``,
    a memo of the functors ``strictify0`` has built over it, is attached.
    The product of two flat factors is kept on A, keyed by B itself, and
    returned again while each factor has the 1-cells and predicate it was
    cloned with (``DoubleCat._flat_key``).  So the distributive laws of
    one enumeration, which share one terminal pair, are strictified over
    one domain.  An explicit factor gets a new product on every call.
    """
    key = (A._flat_key(), B._flat_key()) if A.flat and B.flat else None
    if key is not None:
        hit = vars(A).setdefault("_product_doms", {}).get(B)
        if hit is not None and hit[0] == key:
            return hit[1]
    dom = dc_product(explicit_clone(A), explicit_clone(B))
    dom._strictified = {}
    if key is not None:
        A._product_doms[B] = (key, dom)
    return dom


def _check_trivial_uu(q):
    for (u, U), s in q.uu.items():
        lv, rv = q._uu_bounds(u, U)[2:]
        if lv != rv or s != q.C.sq_h_id(lv):
            raise NontrivialUU(
                "strictification needs trivial mixed vertical interchangers")


def strictify0(q, dom=None):
    """Package a quasi functor as a lax functor out of the product.

    The horizontal image of a product 1-cell is "first factor then second",
    the square image pastes the two family images around the two mixed
    interchangers, and the compositors absorb one interchanger of the two
    horizontal factors together with the family compositors; the unitors
    set the two families' unitors side by side.  The result is cached on
    the domain, keyed by ``q`` itself, as ``quasi.curry0`` caches on the
    hom, and served again while q has the codomain and the cells
    (``quasi._quasi_key``) it was built from: the laws of one enumeration
    share a domain, so a q edited in place after its strictification
    would otherwise be served the functor of what it was.
    """
    if dom is None:
        dom = product_dom(q.A, q.B)
    hit = dom._strictified.get(q)
    if hit is not None and hit[0] == (q.C, _quasi_key(q)):
        return hit[1]
    _check_trivial_uu(q)
    C = q.C
    A, B = dom._factors
    ob = {x: q.obj(a, b) for x, a, b in product_cells(dom, OBJECT)}
    hmap = {x: C.hcomp_h(q.fB(B.hsrc[k]).h(K), q.fA(A.htgt[K]).h(k))
            for x, K, k in product_cells(dom, HCELL)}
    vmap = {x: C.vcomp_v(q.fB(B.vsrc[u]).v(U), q.fA(A.vtgt[U]).v(u))
            for x, U, u in product_cells(dom, VCELL)}
    sqmap = {}
    for x, ze, om in product_cells(dom, SQUARE):
        L, V = A.sq_bottom(ze), A.sq_right(ze)
        k, u = B.sq_top(om), B.sq_left(om)
        left = C.vcomp_sq(q.fB(B.vsrc[u]).sq(ze), q.sq_uk(u, L))
        right = C.vcomp_sq(q.sq_ku(k, V), q.fA(A.vtgt[V]).sq(om))
        sqmap[x] = C.hcomp_sq(left, right)
    proj1, proj2 = product_projections(A, B)
    comp = {}
    for f1, f2 in composable_pairs(dom.hsrc, dom.htgt):
        K, k = proj1(HCELL, f1), proj2(HCELL, f1)
        b = B.hsrc[k]
        Kp, kp = proj1(HCELL, f2), proj2(HCELL, f2)
        app = A.htgt[Kp]
        # the interchanger of k and K' between the outer images, over
        # the compositors of the two families side by side
        middle = C.hcomp_sq(C.hcomp_sq(C.sq_v_id(q.fB(b).h(K)),
                                       q.sq_kk(k, Kp)),
                            C.sq_v_id(q.fA(app).h(kp)))
        comp[(f1, f2)] = C.vcomp_sq(middle, C.hcomp_sq(
            q.fB(b).compositor(K, Kp), q.fA(app).compositor(k, kp)))
    unit = {x: C.hcomp_sq(q.fB(b).unitor(a), q.fA(a).unitor(b))
            for x, a, b in product_cells(dom, OBJECT)}
    P = LaxDoubleFunctor(dom, C, ob, hmap, vmap, sqmap, comp, unit,
                         name="st(%s)" % q.name)
    dom._strictified[q] = ((C, _quasi_key(q)), P)
    return P


def strictify_cell(t, dom=None):
    """Strictify a horizontal or vertical transformation between quasi
    functors, in the terms of ``quasi._cell_terms``.  The component at
    (a, b) is the members'.  On a product cell (Y, y) from (a, b) to
    (at, bt), a component square pastes th_b[b]'s on Y and th_a[at]'s on
    y across the components; a structure square pastes across them the
    two pastings along them of th_a[at]'s and th_b[b]'s structure squares
    with identities, in the kind's order."""
    if dom is None:
        dom = product_dom(t.q1.A, t.q1.B)
    P1 = strictify0(t.q1, dom)
    P2 = strictify0(t.q2, dom)
    q1, q2, th_a, th_b = t.q1, t.q2, t.th_a, t.th_b
    A, B = dom._factors
    hv, along, across, _, idsq, st, cp, order = _cell_terms(t)
    img = lambda F, x: getattr(F, hv)(x)
    comp0 = {x: t.at(a, b) for x, a, b in product_cells(dom, OBJECT)}
    squares = {}
    # the 1h-cells' field first, as a flat codomain interns in call order
    for field in sorted(t.kind.fields, key=attrgetter("cells")):
        c = field.cells
        squares[field] = out = {}
        for x, Y, y in product_cells(dom, HCELL if c == "h" else VCELL):
            b, at = _cell_ends(B, c, y)[0], _cell_ends(A, c, Y)[1]
            if c != hv:
                out[x] = across(cp(th_b[b], Y), cp(th_a[at], y))
                continue
            out[x] = across(*(p() for p in order((
                lambda: along(idsq(img(q1.fB(b), Y)), st(th_a[at], y)),
                lambda: along(st(th_b[b], Y), idsq(img(q2.fA(at), y)))))))
    return t.kind.cls(P1, P2, comp0, *map(squares.get, t.kind.fields),
                      t.kind.hop, name="st(%s)" % t.name)


def strictify_mod(m, dom=None):
    """Strictify a modification between quasi-level transformations."""
    if dom is None:
        dom = product_dom(m.top.q1.A, m.top.q1.B)
    top, bottom, left, right = (strictify_cell(t, dom) for t in (
        m.top, m.bottom, m.left, m.right))
    comp = {x: m.at(a, b) for x, a, b in product_cells(dom, OBJECT)}
    return Modification(top, bottom, left, right, comp,
                        name="st(%s)" % m.name)


def _split_pads(P, A, B):
    """Identity-padded cell indices of the product domain."""
    pair = partial(product_cell, P.dom)

    def pad_a(a):
        # B-indexed cells at a fixed A-object a
        return (lambda b: pair(OBJECT, a, b),
                lambda k: pair(HCELL, A.h_id(a), k),
                lambda u: pair(VCELL, A.v_id(a), u),
                lambda om: pair(SQUARE, A.sq_id_obj(a), om))

    def pad_b(b):
        return (lambda a: pair(OBJECT, a, b),
                lambda K: pair(HCELL, K, B.h_id(b)),
                lambda U: pair(VCELL, U, B.v_id(b)),
                lambda ze: pair(SQUARE, ze, B.sq_id_obj(b)))

    return pad_a, pad_b


def _restrict_functor(P, other, pad, name):
    """Lax functor on one factor obtained by padding with identities."""
    po, ph, pv, ps = pad
    ob = {x: P.obj(po(x)) for x in range(other.n_objects)}
    hmap = {f: P.h(ph(f)) for f in range(other.n_hcells)}
    vmap = {u: P.v(pv(u)) for u in range(other.n_vcells)}
    sqmap = {s: P.sq(ps(s)) for s in range(other.n_squares)}
    comp = {}
    for f, g in composable_pairs(other.hsrc, other.htgt):
        comp[(f, g)] = P.compositor(ph(f), ph(g))
    unit = {x: P.unitor(po(x)) for x in range(other.n_objects)}
    return LaxDoubleFunctor(other, P.cod, ob, hmap, vmap, sqmap, comp, unit,
                            name=name)


def _padded_compositor(P, A, B, K, k):
    """P's compositor on the product 1h-cell (K, k) factored as (K, 1)
    then (1, k)."""
    hcell = partial(product_cell, P.dom, HCELL)
    return P.compositor(hcell(K, B.h_id(B.hsrc[k])),
                        hcell(A.h_id(A.htgt[K]), k))


def is_decomposable(P, A, B):
    """Whether the compositors along identity-padded factorizations of
    every product 1h-cell are vertically invertible."""
    return all(
        P.cod.vertical_inverse(_padded_compositor(P, A, B, K, k)) is not None
        for _, K, k in product_cells(P.dom, HCELL))


def destrictify0(P, A, B):
    """Unpack a lax functor out of the product into a quasi functor.

    The families restrict P along identity padding; the horizontal
    interchanger composes one padded compositor with the vertical inverse
    of the other, so P must be decomposable; the unitors must be
    invertible for the comparison with the original to be an equivalence.
    The mixed vertical interchangers of the result are trivial.
    """
    if not is_decomposable(P, A, B):
        raise NotDecomposable(
            "identity-padded compositors are not invertible")
    C = P.cod
    if any(C.vertical_inverse(P.unitor(x)) is None
           for x in range(P.dom.n_objects)):
        raise NotUnitary("a unitor square is not invertible")
    pad_a, pad_b = _split_pads(P, A, B)
    fam_a = {a: _restrict_functor(P, B, pad_a(a), "%s|a%d" % (P.name, a))
             for a in range(A.n_objects)}
    fam_b = {b: _restrict_functor(P, A, pad_b(b), "%s|b%d" % (P.name, b))
             for b in range(B.n_objects)}

    pair = partial(product_cell, P.dom)

    def kk(k, K):
        fwd = P.compositor(pair(HCELL, A.h_id(A.hsrc[K]), k),
                           pair(HCELL, K, B.h_id(B.htgt[k])))
        back = _padded_compositor(P, A, B, K, k)
        return C.vcomp_sq(fwd, C.vertical_inverse(back))

    reads = {"kk": kk,
             "uk": lambda u, K: P.sq(pair(SQUARE, A.sq_v_id(K), B.sq_h_id(u))),
             "ku": lambda k, U: P.sq(pair(SQUARE, A.sq_h_id(U), B.sq_v_id(k))),
             "uu": lambda u, U: C.sq_h_id(P.v(pair(VCELL, U, u)))}
    stores = [{(x, y): reads[name](x, y) for x in _stored_cells(B, b_cells)
               for y in _stored_cells(A, a_cells)}
              for name, b_cells, a_cells in _INTERCHANGERS]
    return QuasiFunctor(A, B, C, fam_a, fam_b, *stores,
                        name="dst(%s)" % P.name)


def destrictify_cell(tr, A, B, q1=None, q2=None):
    """Unpack a horizontal or vertical transformation between product
    functors.  The member of each family at an object reads tr along that
    object's identity padding: its components and every square field of
    tr's kind."""
    kind = TRANSFORM_KINDS[type(tr)]
    if q1 is None:
        q1 = destrictify0(tr.F, A, B)
    if q2 is None:
        q2 = destrictify0(tr.G, A, B)
    reads = [(getattr(tr, field.accessor), field) for field in kind.fields]
    pad_a, pad_b = _split_pads(tr.F, A, B)

    def member(F, G, pad, dom):
        po, ph, pv, _ = pad
        cell = {"h": ph, "v": pv}
        return kind.cls(F, G, {x: tr.at(po(x)) for x in range(dom.n_objects)},
                        *({x: read(cell[field.cells](x))
                           for x in field.domain(dom)}
                          for read, field in reads), kind.hop)

    th_a = {a: member(q1.fam_a[a], q2.fam_a[a], pad_a(a), B)
            for a in range(A.n_objects)}
    th_b = {b: member(q1.fam_b[b], q2.fam_b[b], pad_b(b), A)
            for b in range(B.n_objects)}
    return Q_TRANSFORMS[kind.cls](q1, q2, th_a, th_b,
                                  name="dst(%s)" % tr.name)


def destrictify_mod(m, A, B):
    """Unpack a modification between product-level transformations."""
    q_tl = destrictify0(m.top.F, A, B)
    q_tr = destrictify0(m.top.G, A, B)
    q_bl = destrictify0(m.bottom.F, A, B)
    q_br = destrictify0(m.bottom.G, A, B)
    top = destrictify_cell(m.top, A, B, q_tl, q_tr)
    bottom = destrictify_cell(m.bottom, A, B, q_bl, q_br)
    left = destrictify_cell(m.left, A, B, q_tl, q_bl)
    right = destrictify_cell(m.right, A, B, q_tr, q_br)
    obj = partial(product_cell, m.top.F.dom, OBJECT)
    comps_a = {a: {b: m.at(obj(a, b)) for b in range(B.n_objects)}
               for a in range(A.n_objects)}
    comps_b = {b: {a: m.at(obj(a, b)) for a in range(A.n_objects)}
               for b in range(B.n_objects)}
    return QModification(
        top, bottom, left, right,
        _memberwise(Modification, top.th_a, bottom.th_a, left.th_a,
                    right.th_a, comps_a),
        _memberwise(Modification, top.th_b, bottom.th_b, left.th_b,
                    right.th_b, comps_b),
        name="dst(%s)" % m.name)


# -- round-trip comparison ---------------------------------------------------


class EquivalenceWitness(Record):
    """Round-trip data: the original quasi functor, its strictification,
    the quasi functor unpacked back out of it, the re-strictification, and
    the two comparison transformations."""
    __slots__ = ("q", "strict", "q_back", "strict_back", "kappa", "lam")

    def __init__(self, q, strict, q_back, strict_back, kappa, lam):
        self.q, self.strict, self.q_back = q, strict, q_back
        self.strict_back, self.kappa, self.lam = strict_back, kappa, lam


def comparison_hor(q, q_back):
    """The comparison from a quasi functor to its round trip.

    Components are identity 1h-cells; the structure squares pad a family
    image with the unitor of the other family.
    """
    A, B, C = q.A, q.B, q.C
    th_a, th_b = {}, {}
    for a in range(A.n_objects):
        th_a[a] = HorTransform(
            q.fam_a[a], q_back.fam_a[a],
            {b: C.h_id(q.obj(a, b)) for b in range(B.n_objects)},
            {u: C.sq_h_id(q.fA(a).v(u)) for u in range(B.n_vcells)},
            {k: C.hcomp_sq(q.fB(B.hsrc[k]).unitor(a),
                           C.sq_v_id(q.fA(a).h(k)))
             for k in range(B.n_hcells)}, OPLAX)
    for b in range(B.n_objects):
        th_b[b] = HorTransform(
            q.fam_b[b], q_back.fam_b[b],
            {a: C.h_id(q.obj(a, b)) for a in range(A.n_objects)},
            {U: C.sq_h_id(q.fB(b).v(U)) for U in range(A.n_vcells)},
            {K: C.hcomp_sq(C.sq_v_id(q.fB(b).h(K)),
                           q.fA(A.htgt[K]).unitor(b))
             for K in range(A.n_hcells)}, OPLAX)
    return QHorTransform(q, q_back, th_a, th_b, name="kappa")


def comparison_strict(P, P_back, A, B):
    """The comparison from the re-strictification back to the original
    strictification; the structure squares are the compositors along
    identity-padded factorizations."""
    C = P.cod
    comp0 = {o: C.h_id(P.obj(o)) for o in range(P.dom.n_objects)}
    comp_v = {w: C.sq_h_id(P.v(w)) for w in range(P.dom.n_vcells)}
    delta = {f: _padded_compositor(P, A, B, K, k)
             for f, K, k in product_cells(P.dom, HCELL)}
    return HorTransform(P_back, P, comp0, comp_v, delta, OPLAX, name="lambda")


def build_witnesses(q, dom=None):
    """Strictify, unpack, re-strictify, and build both comparison cells."""
    P = strictify0(q, dom)
    q_back = destrictify0(P, q.A, q.B)
    P_back = strictify0(q_back, P.dom)
    kappa = comparison_hor(q, q_back)
    lam = comparison_strict(P, P_back, q.A, q.B)
    return EquivalenceWitness(q, P, q_back, P_back, kappa, lam)


def _roundtrip(t, w1, w2):
    """Strictify then unpack a q-transformation, reusing the witnesses'
    round-trip endpoints."""
    return destrictify_cell(strictify_cell(t, w1.strict.dom), t.q1.A, t.q1.B,
                            w1.q_back, w2.q_back)


def kappa_vert(theta0, w1, w2):
    """The comparison modification framing a vertical transformation
    between quasi functors and its round trip; components are identity
    squares on the transformation's own components."""
    C = theta0.q1.C
    right = _roundtrip(theta0, w1, w2)
    member = lambda th, top, bottom, back: Modification(
        top, bottom, th, back, {x: C.sq_h_id(th.at(x)) for x in th.comp0})
    return QModification(
        w1.kappa, w2.kappa, theta0, right,
        _memberwise(member, theta0.th_a, w1.kappa.th_a, w2.kappa.th_a,
                    right.th_a),
        _memberwise(member, theta0.th_b, w1.kappa.th_b, w2.kappa.th_b,
                    right.th_b),
        name="kappa(%s)" % theta0.name)


def lambda_vert(sigma0, w1, w2):
    """The comparison modification framing a vertical transformation
    between strictifications and its round trip."""
    C = sigma0.cod
    A, B = w1.q.A, w1.q.B
    left = strictify_cell(destrictify_cell(sigma0, A, B,
                                           w1.q_back, w2.q_back),
                          w1.strict.dom)
    comp = {o: C.sq_h_id(sigma0.at(o)) for o in sigma0.comp0}
    return Modification(w1.lam, w2.lam, left, sigma0, comp,
                        name="lambda(%s)" % sigma0.name)


def _q_hor_equal(t1, t2):
    return all(transform_equal(x[k], y[k]) for x, y in (
        (t1.th_a, t2.th_a), (t1.th_b, t2.th_b)) for k in x)


def check_equivalence(witnesses, hor_cells=(), vert_cells=()):
    """Check the round-trip comparisons over one witness or a corpus.

    Per witness: the transformation laws of both comparison cells and the
    vertical invertibility of their globular structure squares.  For each
    supplied horizontal transformation between corpus members, naturality
    of both comparisons; for each vertical one, the laws of the framing
    comparison modifications.

    A lone witness does not pin its comparison cells: any lawful,
    invertible comparison passes.  Flipping kappa's structure square on
    walk_h's generator to the other parity sign (or lambda's on the
    product cell over it) keeps both cells lawful, since that square sits
    once on each side of every transformation law.  Only naturality
    against ``hor_cells`` tells the built comparison from such another.
    """
    if isinstance(witnesses, EquivalenceWitness):
        witnesses = [witnesses]
    rep = ValidationReport()
    for w in witnesses:
        rep.merge(check_q_cell(w.kappa), prefix="kappa.")
        rep.merge(check_hor_transform(w.lam), prefix="lambda.")
        if not rep.passed:
            return rep
        C = w.q.C
        for fam, dom in ((w.kappa.th_a, w.q.B), (w.kappa.th_b, w.q.A)):
            for th in fam.values():
                for f in range(dom.n_hcells):
                    if C.vertical_inverse(th.delta_at(f)) is None:
                        rep.add("kappa-not-invertible", hcell=f)
        for f in range(w.strict.dom.n_hcells):
            if C.vertical_inverse(w.lam.delta_at(f)) is None:
                rep.add("lambda-not-invertible", hcell=f)
    by_q = {id(w.q): w for w in witnesses}
    for t in hor_cells:
        w1, w2 = by_q[id(t.q1)], by_q[id(t.q2)]
        back = _roundtrip(t, w1, w2)
        lhs = vcompose_q_hor(t, w2.kappa)
        rhs = vcompose_q_hor(w1.kappa, back)
        if not _q_hor_equal(lhs, rhs):
            rep.add("kappa-naturality", cell=t.name)
        sig = strictify_cell(t, w1.strict.dom)
        sig_back = strictify_cell(back, w1.strict.dom)
        if not transform_equal(vcompose_hor(w1.lam, sig),
                                vcompose_hor(sig_back, w2.lam)):
            rep.add("lambda-naturality", cell=t.name)
    for t in vert_cells:
        w1, w2 = by_q[id(t.q1)], by_q[id(t.q2)]
        rep.merge(check_q_mod(kappa_vert(t, w1, w2)), prefix="kappa-vert.")
        sig = strictify_cell(t, w1.strict.dom)
        rep.merge(check_modification(lambda_vert(sig, w1, w2)),
                  prefix="lambda-vert.")
    return rep
