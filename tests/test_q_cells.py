"""The q-cell laws and strictification against their written-out references.

``quasi`` writes the mixed laws of horizontal and vertical transformations
of quasi functors once, and ``strictify`` strictifies both kinds of q-cell
with one construction.  The references below are the two kinds written out
separately, as they stood before.  The differential runs both on a corpus
of q-cells and requires the same law instances (label, witness and both
sides, in report order), the same strictified cells and the same sequence
of codomain calls, arguments and results included: a flat codomain interns
the squares it composes in call order.
"""

import itertools

from dblcheck import quasi, strictify
from dblcheck.core import (
    HCELL, OBJECT, VCELL, bool_matrix_double_category, parity,
    product_cells, walk_sq)
from dblcheck.errors import DblError
from dblcheck.monads import enumerate_distributive_laws
from dblcheck.quasi import QVertTransform, identity_q_hor, identity_q_vert
from dblcheck.strictify import product_dom, strictify0
from dblcheck.transform import (
    LAX, OPLAX, HorTransform, VertTransform)

from law_rows import instances
from test_acceptance import flip
from test_quasi import (
    flip_parity_factor, pairing_quasi, sign_q_hor, sign_quasi)


# -- references --------------------------------------------------------------


def reference_q_hor_laws(t, emit):
    """Every mixed law instance of the q-horizontal transformation t."""
    q1, q2 = t.q1, t.q2
    A, B, C = q1.A, q1.B, q1.C
    vid = C.sq_v_id
    for k in range(B.n_hcells):
        b, bp = B.hsrc[k], B.htgt[k]
        for K in range(A.n_hcells):
            a, ap = A.hsrc[K], A.htgt[K]
            emit("q-hor-1",
                lambda k=k, K=K, a=a, ap=ap, b=b, bp=bp: C.vcomp_sq_many([
                    C.hcomp_sq(vid(q1.fA(a).h(k)), t.th_b[bp].delta_at(K)),
                    C.hcomp_sq(t.th_a[a].delta_at(k), vid(q2.fB(bp).h(K))),
                    C.hcomp_sq(vid(t.at(a, b)), q2.sq_kk(k, K))]),
                lambda k=k, K=K, a=a, ap=ap, b=b, bp=bp: C.vcomp_sq_many([
                    C.hcomp_sq(q1.sq_kk(k, K), vid(t.at(ap, bp))),
                    C.hcomp_sq(vid(q1.fB(b).h(K)), t.th_a[ap].delta_at(k)),
                    C.hcomp_sq(t.th_b[b].delta_at(K), vid(q2.fA(ap).h(k)))]),
                k=k, K=K)
    for u in range(B.n_vcells):
        b, bt = B.vsrc[u], B.vtgt[u]
        for K in range(A.n_hcells):
            a, ap = A.hsrc[K], A.htgt[K]
            emit("q-hor-2",
                lambda u=u, K=K, ap=ap, bt=bt: C.vcomp_sq(
                    C.hcomp_sq(q1.sq_uk(u, K), t.th_a[ap].sq_v(u)),
                    t.th_b[bt].delta_at(K)),
                lambda u=u, K=K, a=a, b=b: C.vcomp_sq(
                    t.th_b[b].delta_at(K),
                    C.hcomp_sq(t.th_a[a].sq_v(u), q2.sq_uk(u, K))),
                u=u, K=K)
    for k in range(B.n_hcells):
        b, bp = B.hsrc[k], B.htgt[k]
        for U in range(A.n_vcells):
            a, at = A.vsrc[U], A.vtgt[U]
            emit("q-hor-3",
                lambda k=k, U=U, at=at, bp=bp: C.vcomp_sq(
                    C.hcomp_sq(q1.sq_ku(k, U), t.th_b[bp].sq_v(U)),
                    t.th_a[at].delta_at(k)),
                lambda k=k, U=U, a=a, b=b: C.vcomp_sq(
                    t.th_a[a].delta_at(k),
                    C.hcomp_sq(t.th_b[b].sq_v(U), q2.sq_ku(k, U))),
                k=k, U=U)
    for u in range(B.n_vcells):
        b, bt = B.vsrc[u], B.vtgt[u]
        for U in range(A.n_vcells):
            a, at = A.vsrc[U], A.vtgt[U]
            emit("q-hor-4",
                lambda u=u, U=U, a=a, bt=bt: C.hcomp_sq(
                    q1.sq_uu(u, U),
                    C.vcomp_sq(t.th_a[a].sq_v(u), t.th_b[bt].sq_v(U))),
                lambda u=u, U=U, at=at, b=b: C.hcomp_sq(
                    C.vcomp_sq(t.th_b[b].sq_v(U), t.th_a[at].sq_v(u)),
                    q2.sq_uu(u, U)),
                u=u, U=U)


def reference_q_vert_laws(t, emit):
    """Every mixed law instance of the q-vertical transformation t."""
    q1, q2 = t.q1, t.q2
    A, B, C = q1.A, q1.B, q1.C
    hid = C.sq_h_id
    for u in range(B.n_vcells):
        b, bt = B.vsrc[u], B.vtgt[u]
        for U in range(A.n_vcells):
            a, at = A.vsrc[U], A.vtgt[U]
            emit("q-vert-1",
                lambda u=u, U=U, a=a, b=b, at=at, bt=bt: C.hcomp_sq_many([
                    C.vcomp_sq(hid(t.at(a, b)), q2.sq_uu(u, U)),
                    C.vcomp_sq(t.th_a[a].sq_v(u), hid(q2.fB(bt).v(U))),
                    C.vcomp_sq(hid(q1.fA(a).v(u)), t.th_b[bt].sq_v(U))]),
                lambda u=u, U=U, a=a, b=b, at=at, bt=bt: C.hcomp_sq_many([
                    C.vcomp_sq(t.th_b[b].sq_v(U), hid(q2.fA(at).v(u))),
                    C.vcomp_sq(hid(q1.fB(b).v(U)), t.th_a[at].sq_v(u)),
                    C.vcomp_sq(q1.sq_uu(u, U), hid(t.at(at, bt)))]),
                u=u, U=U)
    for u in range(B.n_vcells):
        b, bt = B.vsrc[u], B.vtgt[u]
        for K in range(A.n_hcells):
            a, ap = A.hsrc[K], A.htgt[K]
            emit("q-vert-2",
                lambda u=u, K=K, a=a, bt=bt: C.hcomp_sq(
                    t.th_a[a].sq_v(u),
                    C.vcomp_sq(q1.sq_uk(u, K), t.th_b[bt].sq_h(K))),
                lambda u=u, K=K, ap=ap, b=b: C.hcomp_sq(
                    C.vcomp_sq(t.th_b[b].sq_h(K), q2.sq_uk(u, K)),
                    t.th_a[ap].sq_v(u)),
                u=u, K=K)
    for k in range(B.n_hcells):
        b, bp = B.hsrc[k], B.htgt[k]
        for U in range(A.n_vcells):
            a, at = A.vsrc[U], A.vtgt[U]
            emit("q-vert-3",
                lambda k=k, U=U, b=b, at=at: C.hcomp_sq(
                    t.th_b[b].sq_v(U),
                    C.vcomp_sq(q1.sq_ku(k, U), t.th_a[at].sq_h(k))),
                lambda k=k, U=U, a=a, bp=bp: C.hcomp_sq(
                    C.vcomp_sq(t.th_a[a].sq_h(k), q2.sq_ku(k, U)),
                    t.th_b[bp].sq_v(U)),
                k=k, U=U)
    for k in range(B.n_hcells):
        b, bp = B.hsrc[k], B.htgt[k]
        for K in range(A.n_hcells):
            a, ap = A.hsrc[K], A.htgt[K]
            emit("q-vert-4",
                lambda k=k, K=K, b=b, ap=ap: C.vcomp_sq(
                    q1.sq_kk(k, K),
                    C.hcomp_sq(t.th_b[b].sq_h(K), t.th_a[ap].sq_h(k))),
                lambda k=k, K=K, a=a, bp=bp: C.vcomp_sq(
                    C.hcomp_sq(t.th_a[a].sq_h(k), t.th_b[bp].sq_h(K)),
                    q2.sq_kk(k, K)),
                k=k, K=K)


def reference_strictify_hor(t, dom=None):
    """Strictify a horizontal transformation between quasi functors."""
    if dom is None:
        dom = product_dom(t.q1.A, t.q1.B)
    P1 = strictify0(t.q1, dom)
    P2 = strictify0(t.q2, dom)
    C = t.q1.C
    A, B = dom._factors
    comp0 = {x: t.th_a[a].at(b) for x, a, b in product_cells(dom, OBJECT)}
    delta = {}
    for x, K, k in product_cells(dom, HCELL):
        ap, b = A.htgt[K], B.hsrc[k]
        delta[x] = C.vcomp_sq(
            C.hcomp_sq(C.sq_v_id(t.q1.fB(b).h(K)), t.th_a[ap].delta_at(k)),
            C.hcomp_sq(t.th_b[b].delta_at(K), C.sq_v_id(t.q2.fA(ap).h(k))))
    comp_v = {x: C.vcomp_sq(t.th_b[B.vsrc[u]].sq_v(U),
                            t.th_a[A.vtgt[U]].sq_v(u))
              for x, U, u in product_cells(dom, VCELL)}
    return HorTransform(P1, P2, comp0, comp_v, delta, OPLAX,
                        name="st(%s)" % t.name)


def reference_strictify_vert(t, dom=None):
    """Strictify a vertical transformation between quasi functors."""
    if dom is None:
        dom = product_dom(t.q1.A, t.q1.B)
    P1 = strictify0(t.q1, dom)
    P2 = strictify0(t.q2, dom)
    C = t.q1.C
    A, B = dom._factors
    comp0 = {x: t.th_a[a].at(b) for x, a, b in product_cells(dom, OBJECT)}
    comp_h = {x: C.hcomp_sq(t.th_b[B.hsrc[k]].sq_h(K),
                            t.th_a[A.htgt[K]].sq_h(k))
              for x, K, k in product_cells(dom, HCELL)}
    comp_v = {}
    for x, U, u in product_cells(dom, VCELL):
        at, b = A.vtgt[U], B.vsrc[u]
        col1 = C.vcomp_sq(t.th_b[b].sq_v(U), C.sq_h_id(t.q2.fA(at).v(u)))
        col2 = C.vcomp_sq(C.sq_h_id(t.q1.fB(b).v(U)), t.th_a[at].sq_v(u))
        comp_v[x] = C.hcomp_sq(col1, col2)
    return VertTransform(P1, P2, comp0, comp_h, comp_v, LAX,
                         name="st(%s)" % t.name)


REFERENCE = {HorTransform: (reference_q_hor_laws, reference_strictify_hor),
             VertTransform: (reference_q_vert_laws, reference_strictify_vert)}


def live_q_cell_laws(t, emit):
    """``quasi._q_cell_laws`` one instance at a time, as the references
    emit."""
    quasi._q_cell_laws(t, instances(emit))


LIVE = {HorTransform: (live_q_cell_laws, strictify.strictify_cell),
        VertTransform: (live_q_cell_laws, strictify.strictify_cell)}


# -- corpus ------------------------------------------------------------------


def _sign_pair():
    q1 = sign_quasi({0: 0, 1: 1})
    return q1, sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)


def sign_q_vert(q1, q2):
    """A q-vertical cell from q1 to q2 whose members carry the data of the
    identity q-vertical cell on q1."""
    ident = identity_q_vert(q1)
    member = lambda th, F, G: VertTransform(F, G, th.comp0, th.comp_h,
                                            th.comp_v, th.orientation)
    return QVertTransform(
        q1, q2, {a: member(th, q1.fA(a), q2.fA(a))
                 for a, th in ident.th_a.items()},
        {b: member(th, q1.fB(b), q2.fB(b)) for b, th in ident.th_b.items()},
        name="sign0")


def _flipped(make, flip_square, fam, key, store, x):
    def build():
        t = make()
        squares = getattr(getattr(t, fam)[key], store)
        squares[x] = flip_square(t.q1.C, squares[x])
        return t
    return build


def _with_flips(makers, flip_square):
    """The builders, each followed by the builders of its single flips of
    one member square."""
    out = {}
    for name, make in makers.items():
        out[name] = make
        t = make()
        for fam in ("th_a", "th_b"):
            for key, th in sorted(getattr(t, fam).items()):
                for store in ("comp_h", "comp_v", "delta"):
                    for x in sorted(getattr(th, store, ())):
                        out["%s:%s[%s].%s[%s]" % (
                            name, fam, key, store, x)] = _flipped(
                                make, flip_square, fam, key, store, x)
    return out


def parity_corpus():
    """Builders of q-cells, each on a fresh codomain: the identity q-cells
    of the four sign quasi functors, the sign q-cells of both kinds, the
    identity q-cells of the pairing quasi functor on (parity, walk_sq),
    whose variables both have free 1h- and 1v-cells, and every single
    flip of one member square of those."""
    makers = {"sign_q_hor": lambda: sign_q_hor(*_sign_pair()),
              "sign_q_vert": lambda: sign_q_vert(*_sign_pair())}
    for signs in itertools.product((0, 1), repeat=2):
        q = lambda signs=signs: sign_quasi(dict(enumerate(signs)))
        makers["id-hor%d%d" % signs] = lambda q=q: identity_q_hor(q())
        makers["id-vert%d%d" % signs] = lambda q=q: identity_q_vert(q())
    pair = lambda: pairing_quasi(parity(), walk_sq())
    return dict(_with_flips(makers, flip), **_with_flips(
        {"pair-hor": lambda: identity_q_hor(pair()),
         "pair-vert": lambda: identity_q_vert(pair())}, flip_parity_factor))


def bool2_corpus():
    """The identity q-cells of the quasi functors of the first six
    distributive laws on one fresh bool2, in order; bool2 is flat, so these
    share a codomain that interns in call order."""
    b2 = bool_matrix_double_category(2)
    laws = [lw for carrier in range(b2.n_objects)
            for lw in enumerate_distributive_laws(b2, carrier)]
    return [cell(lw.quasi) for lw in laws[:6]
            for cell in (identity_q_hor, identity_q_vert)]


# -- the differential --------------------------------------------------------


RECORDED = ("hcomp_sq", "vcomp_sq", "sq_v_id", "sq_h_id", "hcomp_h",
            "vcomp_v", "find_square")


def _record(C, sink):
    """Route C's recorded methods through wrappers that append each call,
    its arguments and its result or error to ``sink[0]``."""
    for name in RECORDED:
        def call(*args, _name=name, _method=getattr(C, name), **kw):
            try:
                out = _method(*args, **kw)
            except DblError as exc:
                sink[0].append((_name, args, kw, "raised", str(exc)))
                raise
            sink[0].append((_name, args, kw, out))
            return out
        setattr(C, name, call)


def _instances(laws, t):
    """The law instances of t, evaluated as ``ValidationReport.expect``
    does: the left side, then the right; a side that raises gives the
    error text."""
    out = []

    def emit(law, lhs, rhs, **witness):
        try:
            sides = (lhs(), rhs())
        except DblError as exc:
            sides = ("error", str(exc))
        out.append((law, witness, sides))
    laws(t, emit)
    return out


def _cell_data(s):
    """A strictified cell's class, name, orientation and square tables."""
    return type(s).__name__, s.F.name, s.G.name, {
        k: v for k, v in vars(s).items() if isinstance(v, (dict, str))}


def run_side(cells, impl):
    """For each cell in order: its law instances, its strictification and
    the codomain calls of each, with the implementation ``impl`` gives
    the cell's member kind."""
    sink, seen, out = [None], set(), []
    for t in cells:
        C = t.q1.C
        if id(C) not in seen:
            seen.add(id(C))
            _record(C, sink)
        laws, strict = impl[t.kind.cls]
        sink[0] = []
        instances = _instances(laws, t)
        law_calls, sink[0] = sink[0], []
        cell = _cell_data(strict(t))
        out.append((instances, law_calls, cell, sink[0]))
    return out


def _corpora():
    makers = parity_corpus()
    return ([("parity", list(makers), lambda: [m() for m in makers.values()]),
             ("bool2", None, bool2_corpus)])


def test_q_cell_code_matches_the_references():
    failing = set()
    n_failing = 0
    for corpus, names, build in _corpora():
        want = run_side(build(), REFERENCE)
        got = run_side(build(), LIVE)
        assert len(got) == len(want)
        for i, (g, w) in enumerate(zip(got, want)):
            name = names[i] if names else i
            for part, g_part, w_part in zip(
                    ("instances", "law calls", "strict cell", "strict calls"),
                    g, w):
                assert g_part == w_part, (corpus, name, part)
            for law, _, (lhs, rhs) in w[0]:
                if lhs != rhs:
                    failing.add(law)
                    n_failing += 1
    # the corpus fails every mixed law of both kinds
    assert failing == {"q-%s-%d" % (tag, n) for tag in ("hor", "vert")
                       for n in range(1, 5)}, sorted(failing)
    assert n_failing > 0


def test_corpus_size():
    """The parity corpus holds ten sign q-cells with nine member squares
    each and two pairing q-cells with twenty-eight, each with its single
    flips; the bool2 corpus holds twelve identity q-cells."""
    assert len(parity_corpus()) == 10 * (1 + 9) + 2 * (1 + 28)
    assert len(bool2_corpus()) == 12
