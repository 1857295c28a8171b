"""Strictification of quasi functors and its partial inverse.

A quasi functor out of a pair of double categories whose mixed vertical
interchangers are all trivial can be packaged as a single lax double functor
out of the cartesian product; the compositor and unitor squares of the
result record the interchanger data.  Conversely a lax functor out of a
product unpacks into a quasi functor when its unitors are invertible and the
compositors along identity-padded factorizations are invertible.  Both
directions extend to horizontal and vertical transformations and to
modifications, and the round trip is witnessed by an invertible comparison
cell in each direction.
"""

from dataclasses import dataclass

from .core import (
    CellRef, Gen, HComp, HCELL, SQUARE, VComp, VId, dc_product,
    eval_pasting, explicit_clone, ValidationReport)
from .errors import NontrivialUU, NotDecomposable, NotUnitary
from .functor import LaxDoubleFunctor
from .quasi import (
    QHorTransform, QModification, QuasiFunctor, QVertTransform, check_q_hor,
    check_q_mod, vcompose_q_hor)
from .transform import (
    LAX, OPLAX, HorTransform, Modification, VertTransform,
    check_hor_transform, check_modification, vcompose_hor)


def product_dom(A, B):
    """Cartesian product of A and B with explicit square tables.

    Flat factors are cloned to the explicit backend first; the clone keeps
    every cell id, so indices computed against the originals stay valid.
    ``dc_product`` keeps the factors on the result, and a memo of functors
    already built over this product is attached so repeated
    strictifications share one domain.
    """
    dom = dc_product(explicit_clone(A), explicit_clone(B))
    dom._strictified = {}
    return dom


def _dims(dom):
    e1, e2 = dom._factors
    return e2.n_objects, e2.n_hcells, e2.n_vcells, e2.n_squares


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
    horizontal factors together with the family compositors.  Compositor
    and unitor pastings are also kept as term/environment pairs on the
    result (gamma_terms, iota_terms) for inspection.
    """
    if dom is None:
        dom = product_dom(q.A, q.B)
    if id(q) in dom._strictified:
        return dom._strictified[id(q)][1]
    _check_trivial_uu(q)
    C = q.C
    A, B = dom._factors
    no2, nh2, nv2, ns2 = _dims(dom)
    ob, hmap, vmap, sqmap = {}, {}, {}, {}
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            ob[a * no2 + b] = q.obj(a, b)
    for K in range(A.n_hcells):
        ap = A.htgt[K]
        for k in range(B.n_hcells):
            b = B.hsrc[k]
            hmap[K * nh2 + k] = C.hcomp_h(q.fB(b).h(K), q.fA(ap).h(k))
    for U in range(A.n_vcells):
        at = A.vtgt[U]
        for u in range(B.n_vcells):
            b = B.vsrc[u]
            vmap[U * nv2 + u] = C.vcomp_v(q.fB(b).v(U), q.fA(at).v(u))
    for ze in range(A.n_squares):
        L, V = A.sq_bottom(ze), A.sq_right(ze)
        atp = A.vtgt[V]
        for om in range(B.n_squares):
            k, l = B.sq_top(om), B.sq_bottom(om)
            u, v = B.sq_left(om), B.sq_right(om)
            b = B.vsrc[u]
            left = C.vcomp_sq(q.fB(b).sq(ze), q.sq_uk(u, L))
            right = C.vcomp_sq(q.sq_ku(k, V), q.fA(atp).sq(om))
            sqmap[ze * ns2 + om] = C.hcomp_sq(left, right)
    comp, unit = {}, {}
    gamma_terms, iota_terms = {}, {}
    gamma = VComp(HComp(HComp(VId(Gen("BK")), Gen("kKp")), VId(Gen("kpA"))),
                  HComp(Gen("compB"), Gen("compA")))
    for f1 in range(dom.n_hcells):
        K, k = f1 // nh2, f1 % nh2
        b = B.hsrc[k]
        for f2 in range(dom.n_hcells):
            if dom.htgt[f1] != dom.hsrc[f2]:
                continue
            Kp, kp = f2 // nh2, f2 % nh2
            app = A.htgt[Kp]
            env = {"BK": CellRef(HCELL, q.fB(b).h(K)),
                   "kKp": CellRef(SQUARE, q.sq_kk(k, Kp)),
                   "kpA": CellRef(HCELL, q.fA(app).h(kp)),
                   "compB": CellRef(SQUARE, q.fB(b).compositor(K, Kp)),
                   "compA": CellRef(SQUARE, q.fA(app).compositor(k, kp))}
            gamma_terms[(f1, f2)] = (gamma, env)
            comp[(f1, f2)] = eval_pasting(C, gamma, env).id
    iota = HComp(Gen("unitB"), Gen("unitA"))
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            env = {"unitB": CellRef(SQUARE, q.fB(b).unitor(a)),
                   "unitA": CellRef(SQUARE, q.fA(a).unitor(b))}
            iota_terms[a * no2 + b] = (iota, env)
            unit[a * no2 + b] = eval_pasting(C, iota, env).id
    P = LaxDoubleFunctor(dom, C, ob, hmap, vmap, sqmap, comp, unit,
                         name="st(%s)" % q.name)
    P.gamma_terms = gamma_terms
    P.iota_terms = iota_terms
    P.source_quasi = q
    dom._strictified[id(q)] = (q, P)
    return P


def strictify_hor(t, dom=None):
    """Strictify a horizontal transformation between quasi functors."""
    if dom is None:
        dom = product_dom(t.q1.A, t.q1.B)
    P1 = strictify0(t.q1, dom)
    P2 = strictify0(t.q2, dom)
    C = t.q1.C
    A, B = dom._factors
    no2, nh2, nv2, _ = _dims(dom)
    comp0, comp_v, delta = {}, {}, {}
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            comp0[a * no2 + b] = t.th_a[a].at(b)
    for K in range(A.n_hcells):
        ap = A.htgt[K]
        for k in range(B.n_hcells):
            b = B.hsrc[k]
            delta[K * nh2 + k] = C.vcomp_sq(
                C.hcomp_sq(C.sq_v_id(t.q1.fB(b).h(K)), t.th_a[ap].delta_at(k)),
                C.hcomp_sq(t.th_b[b].delta_at(K),
                           C.sq_v_id(t.q2.fA(ap).h(k))))
    for U in range(A.n_vcells):
        at = A.vtgt[U]
        for u in range(B.n_vcells):
            b = B.vsrc[u]
            comp_v[U * nv2 + u] = C.vcomp_sq(t.th_b[b].sq_v(U),
                                             t.th_a[at].sq_v(u))
    return HorTransform(P1, P2, comp0, comp_v, delta, OPLAX,
                        name="st(%s)" % t.name)


def strictify_vert(t, dom=None):
    """Strictify a vertical transformation between quasi functors."""
    if dom is None:
        dom = product_dom(t.q1.A, t.q1.B)
    P1 = strictify0(t.q1, dom)
    P2 = strictify0(t.q2, dom)
    C = t.q1.C
    A, B = dom._factors
    no2, nh2, nv2, _ = _dims(dom)
    comp0, comp_h, comp_v = {}, {}, {}
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            comp0[a * no2 + b] = t.th_a[a].at(b)
    for K in range(A.n_hcells):
        ap = A.htgt[K]
        for k in range(B.n_hcells):
            b = B.hsrc[k]
            comp_h[K * nh2 + k] = C.hcomp_sq(t.th_b[b].sq_h(K),
                                             t.th_a[ap].sq_h(k))
    for U in range(A.n_vcells):
        at = A.vtgt[U]
        for u in range(B.n_vcells):
            b = B.vsrc[u]
            col1 = C.vcomp_sq(t.th_b[b].sq_v(U),
                              C.sq_h_id(t.q2.fA(at).v(u)))
            col2 = C.vcomp_sq(C.sq_h_id(t.q1.fB(b).v(U)),
                              t.th_a[at].sq_v(u))
            comp_v[U * nv2 + u] = C.hcomp_sq(col1, col2)
    return VertTransform(P1, P2, comp0, comp_h, comp_v, LAX,
                         name="st(%s)" % t.name)


def strictify_mod(m, dom=None):
    """Strictify a modification between quasi-level transformations."""
    if dom is None:
        dom = product_dom(m.top.q1.A, m.top.q1.B)
    top = strictify_hor(m.top, dom)
    bottom = strictify_hor(m.bottom, dom)
    left = strictify_vert(m.left, dom)
    right = strictify_vert(m.right, dom)
    A, B = dom._factors
    no2 = B.n_objects
    comp = {a * no2 + b: m.at(a, b)
            for a in range(A.n_objects) for b in range(B.n_objects)}
    return Modification(top, bottom, left, right, comp,
                        name="st(%s)" % m.name)


def _split_pads(P, A, B):
    """Identity-padded cell indices of the product domain."""
    no2, nh2, nv2, ns2 = _dims(P.dom)

    def pad_a(a):
        # B-indexed cells at a fixed A-object a
        return (lambda b: a * no2 + b,
                lambda k: A.h_id(a) * nh2 + k,
                lambda u: A.v_id(a) * nv2 + u,
                lambda om: A.sq_id_obj(a) * ns2 + om)

    def pad_b(b):
        return (lambda a: a * no2 + b,
                lambda K: K * nh2 + B.h_id(b),
                lambda U: U * nv2 + B.v_id(b),
                lambda ze: ze * ns2 + B.sq_id_obj(b))

    return pad_a, pad_b


def _restrict_functor(P, other, pad, name):
    """Lax functor on one factor obtained by padding with identities."""
    po, ph, pv, ps = pad
    ob = {x: P.obj(po(x)) for x in range(other.n_objects)}
    hmap = {f: P.h(ph(f)) for f in range(other.n_hcells)}
    vmap = {u: P.v(pv(u)) for u in range(other.n_vcells)}
    sqmap = {s: P.sq(ps(s)) for s in range(other.n_squares)}
    comp = {}
    for f in range(other.n_hcells):
        for g in range(other.n_hcells):
            if other.htgt[f] == other.hsrc[g]:
                comp[(f, g)] = P.compositor(ph(f), ph(g))
    unit = {x: P.unitor(po(x)) for x in range(other.n_objects)}
    return LaxDoubleFunctor(other, P.cod, ob, hmap, vmap, sqmap, comp, unit,
                            name=name)


def is_decomposable(P, A, B):
    """Whether the compositors along identity-padded factorizations of
    every product 1h-cell are vertically invertible."""
    no2, nh2, nv2, _ = _dims(P.dom)
    C = P.cod
    for K in range(A.n_hcells):
        a, ap = A.hsrc[K], A.htgt[K]
        for k in range(B.n_hcells):
            b = B.hsrc[k]
            s = P.compositor(K * nh2 + B.h_id(b), A.h_id(ap) * nh2 + k)
            if C.vertical_inverse(s) is None:
                return False
    return True


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
    no2, nh2, nv2, ns2 = _dims(P.dom)
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            if C.vertical_inverse(P.unitor(a * no2 + b)) is None:
                raise NotUnitary("a unitor square is not invertible")
    pad_a, pad_b = _split_pads(P, A, B)
    fam_a = {a: _restrict_functor(P, B, pad_a(a), "%s|a%d" % (P.name, a))
             for a in range(A.n_objects)}
    fam_b = {b: _restrict_functor(P, A, pad_b(b), "%s|b%d" % (P.name, b))
             for b in range(B.n_objects)}
    kk, uk, ku, uu = {}, {}, {}, {}
    for K in range(A.n_hcells):
        a, ap = A.hsrc[K], A.htgt[K]
        for k in range(B.n_hcells):
            b, bp = B.hsrc[k], B.htgt[k]
            fwd = P.compositor(A.h_id(a) * nh2 + k, K * nh2 + B.h_id(bp))
            back = P.compositor(K * nh2 + B.h_id(b), A.h_id(ap) * nh2 + k)
            kk[(k, K)] = C.vcomp_sq(fwd, C.vertical_inverse(back))
    for u in range(B.n_vcells):
        if B.is_v_identity(u):
            continue
        for K in range(A.n_hcells):
            uk[(u, K)] = P.sq(A.sq_v_id(K) * ns2 + B.sq_h_id(u))
    for k in range(B.n_hcells):
        for U in range(A.n_vcells):
            if A.is_v_identity(U):
                continue
            ku[(k, U)] = P.sq(A.sq_h_id(U) * ns2 + B.sq_v_id(k))
    for u in range(B.n_vcells):
        if B.is_v_identity(u):
            continue
        for U in range(A.n_vcells):
            if A.is_v_identity(U):
                continue
            uu[(u, U)] = C.sq_h_id(P.v(U * nv2 + u))
    return QuasiFunctor(A, B, C, fam_a, fam_b, kk, uk, ku, uu,
                        name="dst(%s)" % P.name)


def destrictify_hor(tr, A, B, q1=None, q2=None):
    """Unpack a horizontal transformation between product functors."""
    if q1 is None:
        q1 = destrictify0(tr.F, A, B)
    if q2 is None:
        q2 = destrictify0(tr.G, A, B)
    no2, nh2, nv2, _ = _dims(tr.F.dom)
    th_a, th_b = {}, {}
    for a in range(A.n_objects):
        th_a[a] = HorTransform(
            q1.fam_a[a], q2.fam_a[a],
            {b: tr.at(a * no2 + b) for b in range(B.n_objects)},
            {u: tr.sq_v(A.v_id(a) * nv2 + u) for u in range(B.n_vcells)},
            {k: tr.delta_at(A.h_id(a) * nh2 + k)
             for k in range(B.n_hcells)}, OPLAX)
    for b in range(B.n_objects):
        th_b[b] = HorTransform(
            q1.fam_b[b], q2.fam_b[b],
            {a: tr.at(a * no2 + b) for a in range(A.n_objects)},
            {U: tr.sq_v(U * nv2 + B.v_id(b)) for U in range(A.n_vcells)},
            {K: tr.delta_at(K * nh2 + B.h_id(b))
             for K in range(A.n_hcells)}, OPLAX)
    return QHorTransform(q1, q2, th_a, th_b, name="dst(%s)" % tr.name)


def destrictify_vert(tr, A, B, q1=None, q2=None):
    """Unpack a vertical transformation between product functors."""
    if q1 is None:
        q1 = destrictify0(tr.F, A, B)
    if q2 is None:
        q2 = destrictify0(tr.G, A, B)
    no2, nh2, nv2, _ = _dims(tr.F.dom)
    th_a, th_b = {}, {}
    for a in range(A.n_objects):
        th_a[a] = VertTransform(
            q1.fam_a[a], q2.fam_a[a],
            {b: tr.at(a * no2 + b) for b in range(B.n_objects)},
            {k: tr.sq_h(A.h_id(a) * nh2 + k) for k in range(B.n_hcells)},
            {u: tr.sq_v(A.v_id(a) * nv2 + u) for u in range(B.n_vcells)},
            LAX)
    for b in range(B.n_objects):
        th_b[b] = VertTransform(
            q1.fam_b[b], q2.fam_b[b],
            {a: tr.at(a * no2 + b) for a in range(A.n_objects)},
            {K: tr.sq_h(K * nh2 + B.h_id(b)) for K in range(A.n_hcells)},
            {U: tr.sq_v(U * nv2 + B.v_id(b)) for U in range(A.n_vcells)},
            LAX)
    return QVertTransform(q1, q2, th_a, th_b, name="dst(%s)" % tr.name)


def destrictify_mod(m, A, B):
    """Unpack a modification between product-level transformations."""
    q_tl = destrictify0(m.top.F, A, B)
    q_tr = destrictify0(m.top.G, A, B)
    q_bl = destrictify0(m.bottom.F, A, B)
    q_br = destrictify0(m.bottom.G, A, B)
    top = destrictify_hor(m.top, A, B, q_tl, q_tr)
    bottom = destrictify_hor(m.bottom, A, B, q_bl, q_br)
    left = destrictify_vert(m.left, A, B, q_tl, q_bl)
    right = destrictify_vert(m.right, A, B, q_tr, q_br)
    no2 = _dims(m.top.F.dom)[0]
    m_a, m_b = {}, {}
    for a in range(A.n_objects):
        m_a[a] = Modification(
            top.th_a[a], bottom.th_a[a], left.th_a[a], right.th_a[a],
            {b: m.at(a * no2 + b) for b in range(B.n_objects)})
    for b in range(B.n_objects):
        m_b[b] = Modification(
            top.th_b[b], bottom.th_b[b], left.th_b[b], right.th_b[b],
            {a: m.at(a * no2 + b) for a in range(A.n_objects)})
    return QModification(top, bottom, left, right, m_a, m_b,
                         name="dst(%s)" % m.name)


# -- round-trip comparison ---------------------------------------------------


@dataclass
class EquivalenceWitness:
    """Round-trip data: the original quasi functor, its strictification,
    the quasi functor unpacked back out of it, the re-strictification, and
    the two comparison transformations."""
    q: object
    strict: object
    q_back: object
    strict_back: object
    kappa: object
    lam: object


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
    no2, nh2, nv2, _ = _dims(P.dom)
    comp0 = {o: C.h_id(P.obj(o)) for o in range(P.dom.n_objects)}
    comp_v = {w: C.sq_h_id(P.v(w)) for w in range(P.dom.n_vcells)}
    delta = {}
    for f in range(P.dom.n_hcells):
        K, k = f // nh2, f % nh2
        b, ap = B.hsrc[k], A.htgt[K]
        delta[f] = P.compositor(K * nh2 + B.h_id(b),
                                A.h_id(ap) * nh2 + k)
    return HorTransform(P_back, P, comp0, comp_v, delta, OPLAX, name="lambda")


def build_witnesses(q, dom=None):
    """Strictify, unpack, re-strictify, and build both comparison cells."""
    P = strictify0(q, dom)
    q_back = destrictify0(P, q.A, q.B)
    P_back = strictify0(q_back, P.dom)
    kappa = comparison_hor(q, q_back)
    lam = comparison_strict(P, P_back, q.A, q.B)
    return EquivalenceWitness(q, P, q_back, P_back, kappa, lam)


def _roundtrip_hor(t, w1, w2):
    """Strictify then unpack a horizontal transformation, reusing the
    witnesses' round-trip endpoints."""
    tr = strictify_hor(t, w1.strict.dom)
    return destrictify_hor(tr, t.q1.A, t.q1.B, w1.q_back, w2.q_back)


def _roundtrip_vert(t, w1, w2):
    tr = strictify_vert(t, w1.strict.dom)
    return destrictify_vert(tr, t.q1.A, t.q1.B, w1.q_back, w2.q_back)


def kappa_vert(theta0, w1, w2):
    """The comparison modification framing a vertical transformation
    between quasi functors and its round trip; components are identity
    squares on the transformation's own components."""
    C = theta0.q1.C
    right = _roundtrip_vert(theta0, w1, w2)
    m_a, m_b = {}, {}
    for a, th in theta0.th_a.items():
        comp = {b: C.sq_h_id(th.at(b)) for b in th.comp0}
        m_a[a] = Modification(w1.kappa.th_a[a], w2.kappa.th_a[a],
                              th, right.th_a[a], comp)
    for b, th in theta0.th_b.items():
        comp = {a: C.sq_h_id(th.at(a)) for a in th.comp0}
        m_b[b] = Modification(w1.kappa.th_b[b], w2.kappa.th_b[b],
                              th, right.th_b[b], comp)
    return QModification(w1.kappa, w2.kappa, theta0, right, m_a, m_b,
                         name="kappa(%s)" % theta0.name)


def lambda_vert(sigma0, w1, w2):
    """The comparison modification framing a vertical transformation
    between strictifications and its round trip."""
    C = sigma0.cod
    A, B = w1.q.A, w1.q.B
    left = strictify_vert(destrictify_vert(sigma0, A, B,
                                           w1.q_back, w2.q_back),
                          w1.strict.dom)
    comp = {o: C.sq_h_id(sigma0.at(o)) for o in sigma0.comp0}
    return Modification(w1.lam, w2.lam, left, sigma0, comp,
                        name="lambda(%s)" % sigma0.name)


def _hor_cells_equal(t1, t2):
    """Componentwise equality of parallel horizontal transformations."""
    d = t1.dom
    if any(t1.at(a) != t2.at(a) for a in range(d.n_objects)):
        return False
    if any(t1.delta_at(f) != t2.delta_at(f) for f in range(d.n_hcells)):
        return False
    return all(t1.sq_v(u) == t2.sq_v(u) for u in range(d.n_vcells))


def _q_hor_equal(t1, t2):
    return (all(_hor_cells_equal(t1.th_a[a], t2.th_a[a]) for a in t1.th_a)
            and all(_hor_cells_equal(t1.th_b[b], t2.th_b[b])
                    for b in t1.th_b))


def check_equivalence(witnesses, hor_cells=(), vert_cells=()):
    """Check the round-trip comparisons over one witness or a corpus.

    Per witness: the transformation laws of both comparison cells and the
    vertical invertibility of their globular structure squares.  For each
    supplied horizontal transformation between corpus members, naturality
    of both comparisons; for each vertical one, the laws of the framing
    comparison modifications.
    """
    if isinstance(witnesses, EquivalenceWitness):
        witnesses = [witnesses]
    rep = ValidationReport()
    for w in witnesses:
        rep.merge(check_q_hor(w.kappa), prefix="kappa.")
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
        back = _roundtrip_hor(t, w1, w2)
        lhs = vcompose_q_hor(t, w2.kappa)
        rhs = vcompose_q_hor(w1.kappa, back)
        if not _q_hor_equal(lhs, rhs):
            rep.add("kappa-naturality", cell=t.name)
        sig = strictify_hor(t, w1.strict.dom)
        sig_back = strictify_hor(back, w1.strict.dom)
        if not _hor_cells_equal(vcompose_hor(w1.lam, sig),
                                vcompose_hor(sig_back, w2.lam)):
            rep.add("lambda-naturality", cell=t.name)
    for t in vert_cells:
        w1, w2 = by_q[id(t.q1)], by_q[id(t.q2)]
        rep.merge(check_q_mod(kappa_vert(t, w1, w2)), prefix="kappa-vert.")
        sig = strictify_vert(t, w1.strict.dom)
        rep.merge(check_modification(lambda_vert(sig, w1, w2)),
                  prefix="lambda-vert.")
    return rep
