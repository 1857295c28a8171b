"""Quasi functors of two variables and their transformations.

A quasi functor from a pair of double categories (A, B) to C consists of a
lax functor fam_a[X]: B -> C for every object X of A and a lax functor
fam_b[Y]: A -> C for every object Y of B, agreeing on objects, together
with interchanger squares mixing a cell of one variable with a cell of the
other:

* kk[(k, K)]   for k a 1h-cell of B and K a 1h-cell of A,
* uk[(u, K)]   for u a 1v-cell of B (vertically globular sides),
* ku[(k, U)]   for U a 1v-cell of A,
* uu[(u, U)]   horizontally globular.

Entries with a vertical identity argument are identity squares and are
derived rather than stored.  The naming convention for the accessors keeps
the B-variable cell first, matching the index order of the square dicts.

The module also provides the cells between quasi functors (horizontal and
vertical transformations and modifications, all given by a pair of
families indexed by the objects of A and B), currying to and from the hom
double category, and the double category of quasi functors, interned on
demand through the same base as the hom (``hom.InternedDoubleCat``).

Each q-cell kind reads its transformation kind from ``TRANSFORM_KINDS``:
``check_q_cell`` runs the kind's checker on the members, and the mixed
laws are written once, in the terms ``_cell_terms`` reads from it.  The
curried 1-cells (``_curry_cell``) and uncurrying read the kind's fields.
``curry_hor`` and ``curry_vert`` stay one per kind: keeping the
codomain's call order would branch one body on the kind twice.
"""

from itertools import product

from .core import SquareField, ValidationReport, composable_pairs, row_keys
from .errors import ChainMismatch, DomainMismatch
from .functor import LaxDoubleFunctor, check_lax_functor, is_unitary
from .hom import (
    HOP, HOR, OBJ, SQ, VERT, HomDoubleCat, InternedDoubleCat, _functor_key,
    _vert_identity_square)
from .transform import (
    LAX, OPLAX, TRANSFORM_KINDS, HorTransform, Modification, VertTransform,
    check_modification, field_squares, hcompose_modifications,
    identity_hor_transform, identity_modification, identity_vert_transform,
    vcompose_hor, vcompose_modifications, vcompose_vert)


class QuasiFunctor:
    """Two compatible families of lax functors plus interchanger squares."""

    def __init__(self, A, B, C, fam_a, fam_b, kk=None, uk=None, ku=None,
                 uu=None, name="H"):
        self.A, self.B, self.C = A, B, C
        self.fam_a = dict(fam_a)
        self.fam_b = dict(fam_b)
        self.kk = dict(kk or {})
        self.uk = dict(uk or {})
        self.ku = dict(ku or {})
        self.uu = dict(uu or {})
        self.name = name

    def fA(self, a):
        return self.fam_a[a]

    def fB(self, b):
        return self.fam_b[b]

    def obj(self, a, b):
        return self.fA(a).obj(b)

    def sq_kk(self, k, K):
        return self.kk[(k, K)]

    def sq_uk(self, u, K):
        if self.B.is_v_identity(u):
            b = self.B.vsrc[u]
            return self.C.sq_v_id(self.fB(b).h(K))
        return self.uk[(u, K)]

    def sq_ku(self, k, U):
        if self.A.is_v_identity(U):
            a = self.A.vsrc[U]
            return self.C.sq_v_id(self.fA(a).h(k))
        return self.ku[(k, U)]

    def sq_uu(self, u, U):
        if self.B.is_v_identity(u):
            b = self.B.vsrc[u]
            return self.C.sq_h_id(self.fB(b).v(U))
        if self.A.is_v_identity(U):
            a = self.A.vsrc[U]
            return self.C.sq_h_id(self.fA(a).v(u))
        return self.uu[(u, U)]

    def _kk_bounds(self, k, K):
        """The boundary of the interchanger of 1h-cells k of B and K of A:
        vertically globular, from k's image then K's down to K's then
        k's."""
        A, B, C = self.A, self.B, self.C
        a, ap, b, bp = A.hsrc[K], A.htgt[K], B.hsrc[k], B.htgt[k]
        return (C.hcomp_h(self.fA(a).h(k), self.fB(bp).h(K)),
                C.hcomp_h(self.fB(b).h(K), self.fA(ap).h(k)),
                C.v_id(self.obj(a, b)), C.v_id(self.obj(ap, bp)))

    def _uk_bounds(self, u, K):
        """The interchanger of a 1v-cell u of B and a 1h-cell K of A has
        K's images on top and bottom and u's on the sides."""
        A, B = self.A, self.B
        a, ap, b, bt = A.hsrc[K], A.htgt[K], B.vsrc[u], B.vtgt[u]
        return (self.fB(b).h(K), self.fB(bt).h(K),
                self.fA(a).v(u), self.fA(ap).v(u))

    def _ku_bounds(self, k, U):
        """The interchanger of a 1h-cell k of B and a 1v-cell U of A has
        k's images on top and bottom and U's on the sides."""
        A, B = self.A, self.B
        a, at, b, bp = A.vsrc[U], A.vtgt[U], B.hsrc[k], B.htgt[k]
        return (self.fA(a).h(k), self.fA(at).h(k),
                self.fB(b).v(U), self.fB(bp).v(U))

    def _uu_bounds(self, u, U):
        """The boundary of the interchanger of 1v-cells u of B and U of A:
        horizontally globular, with U's image then u's on the left and
        u's then U's on the right."""
        A, B, C = self.A, self.B, self.C
        a, at, b, bt = A.vsrc[U], A.vtgt[U], B.vsrc[u], B.vtgt[u]
        return (C.h_id(self.obj(a, b)), C.h_id(self.obj(at, bt)),
                C.vcomp_v(self.fB(b).v(U), self.fA(at).v(u)),
                C.vcomp_v(self.fA(a).v(u), self.fB(bt).v(U)))

    def __repr__(self):
        return "QuasiFunctor(%s: (%s, %s) -> %s)" % (
            self.name, self.A.name, self.B.name, self.C.name)


# the interchanger stores in report order: each store's name, then whether
# the cells of B and of A in its keys are 1h-cells ("h") or 1v-cells ("v");
# the name's letters are the witness keys of the two cells, B's lower case
_INTERCHANGERS = (("kk", "h", "h"), ("uk", "v", "h"), ("ku", "h", "v"),
                  ("uu", "v", "v"))


def _stored_cells(d, kind):
    """The cells of d that key an interchanger store: every 1h-cell ("h"),
    or every non-identity 1v-cell ("v"), since an interchanger at a
    vertical identity is an identity square.  A store's keys (x, y) take x
    from B and y from A, B's outermost."""
    if kind == "h":
        return range(d.n_hcells)
    return [u for u in range(d.n_vcells) if not d.is_v_identity(u)]


# the interchanger stores in report order, as the square-field pass reads them
_INTERCHANGER_FIELDS = tuple(SquareField(
    "sq_" + name, "_%s_bounds" % name,
    lambda q, b=b, a=a: product(_stored_cells(q.B, b), _stored_cells(q.A, a)),
    name, (name[0], name[1].upper()), False) for name, b, a in _INTERCHANGERS)


def _check_quasi_wellformed(q):
    """Both families as lax functors and their agreement on objects, then
    each stored interchanger on the boundary its ``_*_bounds`` gives."""
    rep = _check_families(q.fam_a, q.fam_b, check_lax_functor, q.A, q.B,
                          "fam", "obj", "agreement")
    if rep.passed:
        rep.expect_squares(q, q.C, _INTERCHANGER_FIELDS)
    return rep


def check_quasi_functor(q, trivial_uU=False, unitary=False,
                        derive_unit_laws=False):
    """Check the quasi functor laws exhaustively.

    With trivial_uU, additionally require every mixed vertical interchanger
    to be an identity square; with unitary, require both families to be
    unitary lax functors.  With derive_unit_laws, the two unit coherence
    laws on horizontal interchangers are not evaluated directly; they are
    granted whenever the interchanger at an identity 1-cell is vertically
    invertible, which makes them consequences of the composition laws.
    """
    rep = _check_quasi_wellformed(q)
    if not rep.passed:
        return rep
    A, B, C = q.A, q.B, q.C
    emit = rep.expect
    if derive_unit_laws:
        def emit(law, keys, lhs, rhs, witness):
            if law not in ("(1_B,K)", "(k,1_A)"):
                return rep.expect(law, keys, lhs, rhs, witness)
            for key in keys:
                w = dict(zip(witness, key))
                s = (q.sq_kk(B.h_id(w["b"]), w["K"]) if law == "(1_B,K)"
                     else q.sq_kk(w["k"], A.h_id(w["a"])))
                if C.vertical_inverse(s) is None:
                    rep.add(law, **w, derived=True)
    _quasi_laws(q, emit)
    if trivial_uU:
        for u in range(B.n_vcells):
            for U in range(A.n_vcells):
                s = q.sq_uu(u, U)
                if (C.sq_left(s) != C.sq_right(s)
                        or s != C.sq_h_id(C.sq_left(s))):
                    rep.add("uu-nontrivial", u=u, U=U)
    if unitary:
        for a in range(A.n_objects):
            if not is_unitary(q.fA(a)):
                rep.add("fam-a-not-unitary", a=a)
        for b in range(B.n_objects):
            if not is_unitary(q.fB(b)):
                rep.add("fam-b-not-unitary", b=b)
    return rep


def _quasi_laws(q, emit):
    """Every mixed quasi functor law instance of q, in report order,
    emitted in rows as in ``functor._lax_functor_laws``; the family laws
    are not included.  A key starts with the witness cells; one with a
    composite argument ends with the composite, and a naturality key ends
    with its square's top, bottom, left and right.  Each name ``x`` of a
    side below is the left side of a law and ``x_r`` its right side.
    """
    A, B, C = q.A, q.B, q.C
    vid = C.sq_v_id
    hid = C.sq_h_id

    # unit coherence in the B-variable: ((1_B, K)) and ((1_B, U))
    one_K, one_K_r = (
        lambda b, K: C.vcomp_sq(
            C.hcomp_sq(q.fA(A.hsrc[K]).unitor(b), vid(q.fB(b).h(K))),
            q.sq_kk(B.h_id(b), K)),
        lambda b, K: C.hcomp_sq(vid(q.fB(b).h(K)),
                                q.fA(A.htgt[K]).unitor(b)))
    one_U, one_U_r = (
        lambda b, U: C.vcomp_sq(q.fA(A.vsrc[U]).unitor(b),
                                q.sq_ku(B.h_id(b), U)),
        lambda b, U: C.vcomp_sq(hid(q.fB(b).v(U)),
                                q.fA(A.vtgt[U]).unitor(b)))
    for b in range(B.n_objects):
        emit("(1_B,K)", row_keys(A.n_hcells, (b,)), one_K, one_K_r,
             ("b", "K"))
        emit("(1_B,U)", row_keys(A.n_vcells, (b,)), one_U, one_U_r,
             ("b", "U"))
    # unit coherence in the A-variable: ((k, 1_A)) and ((u, 1_A))
    k_one, k_one_r = (
        lambda a, k: C.hcomp_sq(q.fB(B.hsrc[k]).unitor(a),
                                vid(q.fA(a).h(k))),
        lambda a, k: C.vcomp_sq(
            C.hcomp_sq(vid(q.fA(a).h(k)), q.fB(B.htgt[k]).unitor(a)),
            q.sq_kk(k, A.h_id(a))))
    u_one, u_one_r = (
        lambda a, u: C.vcomp_sq(hid(q.fA(a).v(u)),
                                q.fB(B.vtgt[u]).unitor(a)),
        lambda a, u: C.vcomp_sq(q.fB(B.vsrc[u]).unitor(a),
                                q.sq_uk(u, A.h_id(a))))
    for a in range(A.n_objects):
        emit("(k,1_A)", row_keys(B.n_hcells, (a,)), k_one, k_one_r,
             ("a", "k"))
        emit("(u,1_A)", row_keys(B.n_vcells, (a,)), u_one, u_one_r,
             ("a", "u"))
    # vertical identity arguments collapse to identity squares
    emit("(1^B,K)", ((b, K) for K in range(A.n_hcells)
                     for b in range(B.n_objects)),
         lambda b, K: q.sq_uk(B.v_id(b), K),
         lambda b, K: vid(q.fB(b).h(K)), ("b", "K"))
    emit("(k,1^A)", ((a, k) for k in range(B.n_hcells)
                     for a in range(A.n_objects)),
         lambda a, k: q.sq_ku(k, A.v_id(a)),
         lambda a, k: vid(q.fA(a).h(k)), ("a", "k"))
    emit("(1^B,U)", ((b, U) for U in range(A.n_vcells)
                     for b in range(B.n_objects)),
         lambda b, U: q.sq_uu(B.v_id(b), U),
         lambda b, U: hid(q.fB(b).v(U)), ("b", "U"))
    emit("(u,1^A)", ((a, u) for u in range(B.n_vcells)
                     for a in range(A.n_objects)),
         lambda a, u: q.sq_uu(u, A.v_id(a)),
         lambda a, u: hid(q.fA(a).v(u)), ("a", "u"))
    # composite horizontal arguments: ((k'k, K)) and ((k, K'K))
    emit("(k'k,K)", ((k, kp, K, kc)
                     for k, kp in composable_pairs(B.hsrc, B.htgt)
                     for kc in (B.hcomp_h(k, kp),)
                     for K in range(A.n_hcells)),
         lambda k, kp, K, kc: C.vcomp_sq_many([
             C.hcomp_sq(vid(q.fA(A.hsrc[K]).h(k)), q.sq_kk(kp, K)),
             C.hcomp_sq(q.sq_kk(k, K), vid(q.fA(A.htgt[K]).h(kp))),
             C.hcomp_sq(vid(q.fB(B.hsrc[k]).h(K)),
                        q.fA(A.htgt[K]).compositor(k, kp))]),
         lambda k, kp, K, kc: C.vcomp_sq(
             C.hcomp_sq(q.fA(A.hsrc[K]).compositor(k, kp),
                        vid(q.fB(B.htgt[kp]).h(K))),
             q.sq_kk(kc, K)),
         ("k", "kp", "K"))
    k_KK, k_KK_r = (
        lambda k, K, Kp, Kc: C.vcomp_sq(
            C.hcomp_sq(vid(q.fA(A.hsrc[K]).h(k)),
                       q.fB(B.htgt[k]).compositor(K, Kp)),
            q.sq_kk(k, Kc)),
        lambda k, K, Kp, Kc: C.vcomp_sq_many([
            C.hcomp_sq(q.sq_kk(k, K), vid(q.fB(B.htgt[k]).h(Kp))),
            C.hcomp_sq(vid(q.fB(B.hsrc[k]).h(K)), q.sq_kk(k, Kp)),
            C.hcomp_sq(q.fB(B.hsrc[k]).compositor(K, Kp),
                       vid(q.fA(A.htgt[Kp]).h(k)))]))
    u_KK, u_KK_r = (
        lambda u, K, Kp, Kc: C.vcomp_sq(q.fB(B.vsrc[u]).compositor(K, Kp),
                                        q.sq_uk(u, Kc)),
        lambda u, K, Kp, Kc: C.vcomp_sq(
            C.hcomp_sq(q.sq_uk(u, K), q.sq_uk(u, Kp)),
            q.fB(B.vtgt[u]).compositor(K, Kp)))
    for K, Kp in composable_pairs(A.hsrc, A.htgt):
        Kc = A.hcomp_h(K, Kp)
        emit("(k,K'K)", row_keys(B.n_hcells, (), (K, Kp, Kc)),
             k_KK, k_KK_r, ("k", "K", "Kp"))
        emit("(u,K'K)", row_keys(B.n_vcells, (), (K, Kp, Kc)),
             u_KK, u_KK_r, ("u", "K", "Kp"))
    emit("(k'k,U)", ((k, kp, U, kc)
                     for k, kp in composable_pairs(B.hsrc, B.htgt)
                     for kc in (B.hcomp_h(k, kp),)
                     for U in range(A.n_vcells)),
         lambda k, kp, U, kc: C.vcomp_sq(
             C.hcomp_sq(q.sq_ku(k, U), q.sq_ku(kp, U)),
             q.fA(A.vtgt[U]).compositor(k, kp)),
         lambda k, kp, U, kc: C.vcomp_sq(q.fA(A.vsrc[U]).compositor(k, kp),
                                         q.sq_ku(kc, U)),
         ("k", "kp", "U"))
    # composite vertical arguments
    uu_K, uu_K_r = (
        lambda u, up, K, uc: q.sq_uk(uc, K),
        lambda u, up, K, uc: C.vcomp_sq(q.sq_uk(u, K), q.sq_uk(up, K)))
    uu_U, uu_U_r = (
        lambda u, up, U, uc: q.sq_uu(uc, U),
        lambda u, up, U, uc: C.hcomp_sq(
            C.vcomp_sq(q.sq_uu(u, U), hid(q.fA(A.vtgt[U]).v(up))),
            C.vcomp_sq(hid(q.fA(A.vsrc[U]).v(u)), q.sq_uu(up, U))))
    for u, up in composable_pairs(B.vsrc, B.vtgt):
        uc = B.vcomp_v(u, up)
        emit("(u/u',K)", row_keys(A.n_hcells, (u, up), (uc,)),
             uu_K, uu_K_r, ("u", "up", "K"))
        emit("(u/u',U)", row_keys(A.n_vcells, (u, up), (uc,)),
             uu_U, uu_U_r, ("u", "up", "U"))
    k_UU, k_UU_r = (
        lambda k, U, Up, Uc: q.sq_ku(k, Uc),
        lambda k, U, Up, Uc: C.vcomp_sq(q.sq_ku(k, U), q.sq_ku(k, Up)))
    u_UU, u_UU_r = (
        lambda u, U, Up, Uc: q.sq_uu(u, Uc),
        lambda u, U, Up, Uc: C.hcomp_sq(
            C.vcomp_sq(hid(q.fB(B.vsrc[u]).v(U)), q.sq_uu(u, Up)),
            C.vcomp_sq(q.sq_uu(u, U), hid(q.fB(B.vtgt[u]).v(Up)))))
    for U, Up in composable_pairs(A.vsrc, A.vtgt):
        Uc = A.vcomp_v(U, Up)
        emit("(k,U/U')", row_keys(B.n_hcells, (), (U, Up, Uc)),
             k_UU, k_UU_r, ("k", "U", "Up"))
        emit("(u,U/U')", row_keys(B.n_vcells, (), (U, Up, Uc)),
             u_UU, u_UU_r, ("u", "U", "Up"))
    # naturality in either variable
    kK_l, kK_l_r = (
        lambda om, K, k, l, u, v: C.vcomp_sq(
            q.sq_kk(k, K),
            C.hcomp_sq(q.sq_uk(u, K), q.fA(A.htgt[K]).sq(om))),
        lambda om, K, k, l, u, v: C.vcomp_sq(
            C.hcomp_sq(q.fA(A.hsrc[K]).sq(om), q.sq_uk(v, K)),
            q.sq_kk(l, K)))
    uU_l, uU_l_r = (
        lambda om, U, k, l, u, v: C.hcomp_sq(
            q.sq_uu(u, U),
            C.vcomp_sq(q.fA(A.vsrc[U]).sq(om), q.sq_ku(l, U))),
        lambda om, U, k, l, u, v: C.hcomp_sq(
            C.vcomp_sq(q.sq_ku(k, U), q.fA(A.vtgt[U]).sq(om)),
            q.sq_uu(v, U)))
    for om in B.iter_squares():
        sides = B.sq_bounds[om]
        emit("(k,K)-l-nat", row_keys(A.n_hcells, (om,), sides),
             kK_l, kK_l_r, ("square", "K"))
        emit("(u,U)-l-nat", row_keys(A.n_vcells, (om,), sides),
             uU_l, uU_l_r, ("square", "U"))
    kK_r, kK_r_r = (
        lambda ze, k, K, L, U, V: C.vcomp_sq(
            q.sq_kk(k, K),
            C.hcomp_sq(q.fB(B.hsrc[k]).sq(ze), q.sq_ku(k, V))),
        lambda ze, k, K, L, U, V: C.vcomp_sq(
            C.hcomp_sq(q.sq_ku(k, U), q.fB(B.htgt[k]).sq(ze)),
            q.sq_kk(k, L)))
    uU_r, uU_r_r = (
        lambda ze, u, K, L, U, V: C.hcomp_sq(
            q.sq_uu(u, U),
            C.vcomp_sq(q.sq_uk(u, K), q.fB(B.vtgt[u]).sq(ze))),
        lambda ze, u, K, L, U, V: C.hcomp_sq(
            C.vcomp_sq(q.fB(B.vsrc[u]).sq(ze), q.sq_uk(u, L)),
            q.sq_uu(u, V)))
    for ze in A.iter_squares():
        sides = A.sq_bounds[ze]
        emit("(k,K)-r-nat", row_keys(B.n_hcells, (ze,), sides),
             kK_r, kK_r_r, ("square", "k"))
        emit("(u,U)-r-nat", row_keys(B.n_vcells, (ze,), sides),
             uU_r, uU_r_r, ("square", "u"))


# -- cells between quasi functors -------------------------------------------


class _QTransform:
    """Transformation of quasi functors: a family of transformations of
    the class's ``kind`` in each variable, agreeing on components.  Left
    out, the name is the class's ``default_name``."""

    def __init__(self, q1, q2, th_a, th_b, name=None):
        self.q1, self.q2 = q1, q2
        self.th_a = dict(th_a)
        self.th_b = dict(th_b)
        self.name = self.default_name if name is None else name

    def at(self, a, b):
        return self.th_a[a].at(b)


class QHorTransform(_QTransform):
    """Horizontal transformation of quasi functors."""
    kind, default_name = TRANSFORM_KINDS[HorTransform], "theta"


class QVertTransform(_QTransform):
    """Vertical transformation of quasi functors."""
    kind, default_name = TRANSFORM_KINDS[VertTransform], "theta0"


# the q-cell class whose family members are of each transformation kind
Q_TRANSFORMS = {HorTransform: QHorTransform, VertTransform: QVertTransform}


class QModification:
    """Modification of quasi functor transformations."""

    def __init__(self, top, bottom, left, right, m_a, m_b, name="tau"):
        self.top, self.bottom = top, bottom
        self.left, self.right = left, right
        self.m_a = dict(m_a)
        self.m_b = dict(m_b)
        self.name = name

    def at(self, a, b):
        return self.m_a[a].at(b)


def _check_families(fam_a, fam_b, check, A, B, tag, at="at",
                    agreement="q-agreement"):
    """Check every member of both families (reported under tag-a[X]. and
    tag-b[Y].), then, if all pass, their agreement: the method ``at`` of
    the member at each a on b, and of the member at b on a."""
    rep = ValidationReport()
    for a in range(A.n_objects):
        rep.merge(check(fam_a[a]), prefix="%s-a[%s]." % (tag, A.objects[a]))
    for b in range(B.n_objects):
        rep.merge(check(fam_b[b]), prefix="%s-b[%s]." % (tag, B.objects[b]))
    if rep.passed:
        for a in range(A.n_objects):
            for b in range(B.n_objects):
                if getattr(fam_a[a], at)(b) != getattr(fam_b[b], at)(a):
                    rep.add(agreement, a=a, b=b)
    return rep


def check_q_cell(t):
    """The laws of t's kind on every member, then the four mixed laws."""
    q = t.q1
    rep = _check_families(t.th_a, t.th_b, t.kind.check, q.A, q.B, "th")
    if rep.passed:
        _q_cell_laws(t, rep.expect)
    return rep


def _cell_ends(d, cells, x):
    """The source and target objects of the 1h-cell ("h") or 1v-cell ("v")
    x of d."""
    return getattr(d, cells + "src")[x], getattr(d, cells + "tgt")[x]


def _cell_terms(t):
    """The terms in which a q-cell's laws and strictification are written
    once, read from its kind: the direction ("h" or "v") of the members'
    components; the codomain's composition of squares along them, its
    composition across them and the ``_many`` form of that; its identity
    square on a 1-cell along them; the members' structure and component
    squares, as functions of a member and a cell; and the order of a pair
    or list of pastings, reversed for the lax vertical kind."""
    component, structure = t.kind.fields
    hv, e, C = structure.cells, component.cells, t.q1.C
    return (hv, getattr(C, hv + "comp_sq"), getattr(C, e + "comp_sq"),
            getattr(C, e + "comp_sq_many"), getattr(C, "sq_%s_id" % e),
            lambda th, x: getattr(th, structure.accessor)(x),
            lambda th, x: getattr(th, component.accessor)(x),
            reversed if t.kind.hop == LAX else iter)


def _q_cell_laws(t, emit):
    """Every mixed law instance of the q-cell t, in report order, emitted
    in rows as in ``_quasi_laws``; a key is ``(x, y, a, ap, b, bp)``.

    Law n is on the n-th interchanger store in the order t's kind reads
    them: first the store whose two cells run along the members'
    components, then uk and ku, last the store whose two cells run across.
    Each law is written in the terms of ``_cell_terms``; x and y are the
    store's cells of B and A, from b to bp and from a to ap, and each
    pasting is a function of the key.
    """
    q1, q2, th_a, th_b = t.q1, t.q2, t.th_a, t.th_b
    A, B = q1.A, q1.B
    hv, along, across, across_many, idsq, st, cp, order = _cell_terms(t)
    img = lambda F, x: getattr(F, hv)(x)

    def along_both(I1, I2):
        l1, l2, l3 = order((
            lambda x, y, a, ap, b, bp: along(idsq(img(q1.fA(a), x)),
                                             st(th_b[bp], y)),
            lambda x, y, a, ap, b, bp: along(st(th_a[a], x),
                                             idsq(img(q2.fB(bp), y))),
            lambda x, y, a, ap, b, bp: along(idsq(t.at(a, b)), I2(x, y))))
        r1, r2, r3 = order((
            lambda x, y, a, ap, b, bp: along(I1(x, y), idsq(t.at(ap, bp))),
            lambda x, y, a, ap, b, bp: along(idsq(img(q1.fB(b), y)),
                                             st(th_a[ap], x)),
            lambda x, y, a, ap, b, bp: along(st(th_b[b], y),
                                             idsq(img(q2.fA(ap), x)))))
        return (lambda *k: across_many([l1(*k), l2(*k), l3(*k)]),
                lambda *k: across_many([r1(*k), r2(*k), r3(*k)]))

    def mixed(b_along, I1, I2):
        # X runs along the components and Y across them, from sX to tX
        # and from sY to tY; thX is the family indexed by X's variable
        thX, thY = (th_b, th_a) if b_along else (th_a, th_b)

        def framed(side):
            # side, a function of (x, y, X, sX, tX, Y, sY, tY), as a
            # function of a key
            if b_along:
                return lambda x, y, a, ap, b, bp: side(x, y, x, b, bp, y, a, ap)
            return lambda x, y, a, ap, b, bp: side(x, y, y, a, ap, x, b, bp)
        s1, s2 = order((lambda x, y, X, sX, tX, Y, sY, tY: st(thY[tY], X),
                        lambda x, y, X, sX, tX, Y, sY, tY: st(thY[sY], X)))
        l1, l2 = order((lambda x, y, X, sX, tX, Y, sY, tY: along(
            I1(x, y), cp(thX[tX], Y)), s1))
        r1, r2 = order((s2, lambda x, y, X, sX, tX, Y, sY, tY: along(
            cp(thX[sX], Y), I2(x, y))))
        return (framed(lambda *k: across(l1(*k), l2(*k))),
                framed(lambda *k: across(r1(*k), r2(*k))))

    def across_both(I1, I2):
        left, right = order((
            lambda x, y, a, ap, b, bp: across(cp(th_a[a], x), cp(th_b[bp], y)),
            lambda x, y, a, ap, b, bp: across(cp(th_b[b], y), cp(th_a[ap], x))))
        return (lambda x, y, *k: along(I1(x, y), left(x, y, *k)),
                lambda x, y, *k: along(right(x, y, *k), I2(x, y)))

    kk, uk, ku, uu = _INTERCHANGERS
    for n, (name, b_cells, a_cells) in enumerate(
            (kk, uk, ku, uu) if hv == "h" else (uu, uk, ku, kk), 1):
        I1, I2 = getattr(q1, "sq_" + name), getattr(q2, "sq_" + name)
        sides = (along_both(I1, I2) if n == 1 else across_both(I1, I2)
                 if n == 4 else mixed(b_cells == hv, I1, I2))
        emit("q-%s-%d" % (t.kind.tag, n),
             ((x, y, *_cell_ends(A, a_cells, y), b, bp)
              for x in range(getattr(B, "n_%scells" % b_cells))
              for b, bp in (_cell_ends(B, b_cells, x),)
              for y in range(getattr(A, "n_%scells" % a_cells))),
             *sides, (name[0], name[1].upper()))


def check_q_mod(m):
    """Componentwise modification laws; agreement of the two families."""
    q = m.top.q1
    return _check_families(m.m_a, m.m_b, check_modification, q.A, q.B, "m")


def _memberwise(op, *fams):
    """The family whose member at each index of the first of ``fams`` is
    op of the members of all of them there."""
    return {x: op(*(fam[x] for fam in fams)) for x in fams[0]}


def _vcompose_q(t1, t2, op):
    """Vertical composition of q-transformations, op composing members."""
    if t1.q2 is not t2.q1:
        raise ChainMismatch("q-transformation chain does not match")
    return type(t1)(t1.q1, t2.q2, _memberwise(op, t1.th_a, t2.th_a),
                    _memberwise(op, t1.th_b, t2.th_b),
                    name="%s/%s" % (t1.name, t2.name))


def vcompose_q_hor(t1, t2):
    """Componentwise vertical composition of q-horizontal transformations."""
    return _vcompose_q(t1, t2, vcompose_hor)


def vcompose_q_vert(t1, t2):
    """Componentwise composition of q-vertical transformations."""
    return _vcompose_q(t1, t2, vcompose_vert)


def hcompose_q_mod(m1, m2, top=None, bottom=None):
    """Memberwise horizontal composite; ``top`` and ``bottom`` as in
    ``hcompose_modifications``, and their members frame the members."""
    if top is None:
        top = vcompose_q_hor(m1.top, m2.top)
    if bottom is None:
        bottom = vcompose_q_hor(m1.bottom, m2.bottom)
    return QModification(
        top, bottom, m1.left, m2.right,
        _memberwise(hcompose_modifications, m1.m_a, m2.m_a, top.th_a,
                    bottom.th_a),
        _memberwise(hcompose_modifications, m1.m_b, m2.m_b, top.th_b,
                    bottom.th_b))


def vcompose_q_mod(m1, m2, left=None, right=None):
    """Memberwise vertical composite, framed as ``hcompose_q_mod``."""
    if left is None:
        left = vcompose_q_vert(m1.left, m2.left)
    if right is None:
        right = vcompose_q_vert(m1.right, m2.right)
    return QModification(
        m1.top, m2.bottom, left, right,
        _memberwise(vcompose_modifications, m1.m_a, m2.m_a, left.th_a,
                    right.th_a),
        _memberwise(vcompose_modifications, m1.m_b, m2.m_b, left.th_b,
                    right.th_b))


def _identity_q(q, cls, op):
    """The identity q-transformation of class cls, op making members."""
    return cls(q, q, _memberwise(op, q.fam_a), _memberwise(op, q.fam_b),
               name="id(%s)" % q.name)


def identity_q_hor(q):
    return _identity_q(q, QHorTransform, identity_hor_transform)


def identity_q_vert(q):
    return _identity_q(q, QVertTransform, identity_vert_transform)


# -- currying ---------------------------------------------------------------


def curry0(q, hom=None):
    """The lax functor A -> hom(B, C) corresponding to a quasi functor.

    Curried functors are cached per hom so that repeated calls hand back
    the same object; transformation and modification corners are compared
    by identity.  The cache is keyed by ``q`` itself and so keeps it alive:
    a key by ``id(q)`` would hand a collected functor's entry to a new
    quasi functor at the same address.
    """
    A, B, C = q.A, q.B, q.C
    if hom is None:
        hom = HomDoubleCat(B, C, HOP)
    if q in hom._curried:
        return hom._curried[q]
    ob, hmap, vmap, sqmap = {}, {}, {}, {}
    # local transform objects keep the corners anchored to this quasi
    # functor's own family objects; interning dedupes only the cell ids
    hts = {K: _curry_cell(q, HorTransform, K) for K in range(A.n_hcells)}
    vts = {U: _curry_cell(q, VertTransform, U) for U in range(A.n_vcells)}
    for a in range(A.n_objects):
        ob[a] = hom.intern_functor(q.fA(a))
    for K in range(A.n_hcells):
        hmap[K] = hom.intern_hor_transform(hts[K])
    for U in range(A.n_vcells):
        vmap[U] = hom.intern_vert_transform(vts[U])
    for ze in A.iter_squares():
        sqmap[ze] = hom.intern_modification(_curry_square(q, ze, hts, vts))
    comp, unit = {}, {}
    for K, Kp in composable_pairs(A.hsrc, A.htgt):
        comp[(K, Kp)] = hom.intern_modification(
            _curry_compositor(q, K, Kp, hts))
    for a in range(A.n_objects):
        unit[a] = hom.intern_modification(_curry_unitor(q, a, hts))
    P = LaxDoubleFunctor(A, hom, ob, hmap, vmap, sqmap, comp, unit,
                         name="curry(%s)" % q.name)
    hom._curried[q] = P
    return P


def _curry_cell(q, cls, X):
    """The transformation of kind cls that the curried functor gives the
    A-cell X, a 1-cell along that kind's components.  Each field reads
    the interchangers of X with the B-cells indexing it."""
    kind, A, B = TRANSFORM_KINDS[cls], q.A, q.B
    e = kind.cells
    reads = {b_cells: getattr(q, "sq_" + name)
             for name, b_cells, a_cells in _INTERCHANGERS if a_cells == e}
    a, ap = _cell_ends(A, e, X)
    return cls(q.fA(a), q.fA(ap),
               {b: getattr(q.fB(b), e)(X) for b in range(B.n_objects)},
               *({x: reads[f.cells](x, X) for x in f.domain(B)}
                 for f in kind.fields),
               kind.hop, name="(-,%s)" % getattr(A, e + "names")[X])


def _curry_square(q, ze, hts, vts):
    A, B = q.A, q.B
    K, L = A.sq_top(ze), A.sq_bottom(ze)
    U, V = A.sq_left(ze), A.sq_right(ze)
    comp = {b: q.fB(b).sq(ze) for b in range(B.n_objects)}
    return Modification(hts[K], hts[L], vts[U], vts[V], comp,
                        name="(-,%s)" % A.sq_names[ze])


def _curry_compositor(q, K, Kp, hts):
    A, B = q.A, q.B
    a, app = A.hsrc[K], A.htgt[Kp]
    top = vcompose_hor(hts[K], hts[Kp])
    bottom = hts[A.hcomp_h(K, Kp)]
    comp = {b: q.fB(b).compositor(K, Kp) for b in range(B.n_objects)}
    return Modification(top, bottom,
                        identity_vert_transform(q.fA(a)),
                        identity_vert_transform(q.fA(app)), comp)


def _curry_unitor(q, a, hts):
    B = q.B
    top = identity_hor_transform(q.fA(a))
    bottom = hts[q.A.h_id(a)]
    comp = {b: q.fB(b).unitor(a) for b in range(B.n_objects)}
    return Modification(top, bottom,
                        identity_vert_transform(q.fA(a)),
                        identity_vert_transform(q.fA(a)), comp)


def uncurry0(P):
    """The quasi functor corresponding to a lax functor into a hom."""
    hom = P.cod
    if not isinstance(hom, HomDoubleCat):
        raise DomainMismatch("uncurry0 needs a hom double category codomain")
    A = P.dom
    B, C = hom.B, hom.C
    fam_a = {a: hom.obj_payload[P.obj(a)] for a in range(A.n_objects)}
    fam_b = {}
    for b in range(B.n_objects):
        ob = {a: fam_a[a].obj(b) for a in range(A.n_objects)}
        hmap = {K: hom.h_payload[P.h(K)].at(b) for K in range(A.n_hcells)}
        vmap = {U: hom.v_payload[P.v(U)].at(b) for U in range(A.n_vcells)}
        sqmap = {ze: hom.sq_payload[P.sq(ze)].at(b) for ze in A.iter_squares()}
        comp = {}
        for K, Kp in composable_pairs(A.hsrc, A.htgt):
            comp[(K, Kp)] = hom.sq_payload[P.compositor(K, Kp)].at(b)
        unit = {a: hom.sq_payload[P.unitor(a)].at(b)
                for a in range(A.n_objects)}
        fam_b[b] = LaxDoubleFunctor(A, C, ob, hmap, vmap, sqmap, comp, unit,
                                    name="(%s,-)" % B.objects[b])
    # the interchanger at (x, y) reads the transformation that P gives the
    # A-cell y, of the kind whose components are y's cells, on the B-cell
    # x, through that kind's field on x's cells
    stores = []
    for _, b_cells, a_cells in _INTERCHANGERS:
        image = getattr(P, a_cells)
        payload = getattr(hom, a_cells + "_payload")
        field, = [f for kind in TRANSFORM_KINDS.values()
                  if kind.cells == a_cells
                  for f in kind.fields if f.cells == b_cells]
        stores.append({(x, y): getattr(payload[image(y)], field.accessor)(x)
                       for x in _stored_cells(B, b_cells)
                       for y in _stored_cells(A, a_cells)})
    return QuasiFunctor(A, B, C, fam_a, fam_b, *stores,
                        name="uncurry(%s)" % P.name)


def curry_hor(t, hom):
    """The horizontal transformation between curried functors."""
    A, B = t.q1.A, t.q1.B
    P1, P2 = curry0(t.q1, hom), curry0(t.q2, hom)
    comp0 = {a: hom.intern_hor_transform(t.th_a[a])
             for a in range(A.n_objects)}
    comp_v, delta = {}, {}
    for U in range(A.n_vcells):
        a, at = A.vsrc[U], A.vtgt[U]
        comp = {b: t.th_b[b].sq_v(U) for b in range(B.n_objects)}
        comp_v[U] = hom.intern_modification(Modification(
            t.th_a[a], t.th_a[at],
            _curry_cell(t.q1, VertTransform, U),
            _curry_cell(t.q2, VertTransform, U), comp))
    for K in range(A.n_hcells):
        a, ap = A.hsrc[K], A.htgt[K]
        top = vcompose_hor(_curry_cell(t.q1, HorTransform, K), t.th_a[ap])
        bottom = vcompose_hor(t.th_a[a], _curry_cell(t.q2, HorTransform, K))
        comp = {b: t.th_b[b].delta_at(K) for b in range(B.n_objects)}
        delta[K] = hom.intern_modification(Modification(
            top, bottom, identity_vert_transform(t.q1.fA(a)),
            identity_vert_transform(t.q2.fA(ap)), comp))
    return HorTransform(P1, P2, comp0, comp_v, delta, OPLAX,
                        name="curry(%s)" % t.name)


def uncurry_cell(tr, hom):
    """The q-cell of a horizontal or vertical transformation tr between
    curried functors.  Its A-family holds the hom cells of tr's components;
    its member at an object b of B reads every square field of tr's kind,
    each a modification, at b."""
    kind = TRANSFORM_KINDS[type(tr)]
    A, B = tr.dom, hom.B
    q1, q2 = uncurry0(tr.F), uncurry0(tr.G)
    payload = getattr(hom, kind.cells + "_payload")
    th_a = {a: payload[tr.at(a)] for a in range(A.n_objects)}
    mods = [[hom.sq_payload[s] for s in field] for field in field_squares(tr)]
    th_b = {b: kind.cls(q1.fB(b), q2.fB(b),
                        {a: th_a[a].at(b) for a in range(A.n_objects)},
                        *(dict(enumerate(m.at(b) for m in ms)) for ms in mods),
                        kind.hop, name="(%s,-)" % B.objects[b])
            for b in range(B.n_objects)}
    return Q_TRANSFORMS[kind.cls](q1, q2, th_a, th_b,
                                  name="uncurry(%s)" % tr.name)


def curry_vert(t, hom):
    """The vertical transformation between curried functors."""
    A, B = t.q1.A, t.q1.B
    P1, P2 = curry0(t.q1, hom), curry0(t.q2, hom)
    comp0 = {a: hom.intern_vert_transform(t.th_a[a])
             for a in range(A.n_objects)}
    comp_h, comp_v = {}, {}
    for K in range(A.n_hcells):
        a, ap = A.hsrc[K], A.htgt[K]
        comp = {b: t.th_b[b].sq_h(K) for b in range(B.n_objects)}
        comp_h[K] = hom.intern_modification(Modification(
            _curry_cell(t.q1, HorTransform, K),
            _curry_cell(t.q2, HorTransform, K), t.th_a[a], t.th_a[ap], comp))
    for U in range(A.n_vcells):
        a, at = A.vsrc[U], A.vtgt[U]
        top = identity_hor_transform(t.q1.fA(a))
        bottom = identity_hor_transform(t.q2.fA(at))
        left = vcompose_vert(t.th_a[a], _curry_cell(t.q2, VertTransform, U))
        right = vcompose_vert(_curry_cell(t.q1, VertTransform, U), t.th_a[at])
        comp = {b: t.th_b[b].sq_v(U) for b in range(B.n_objects)}
        comp_v[U] = hom.intern_modification(Modification(
            top, bottom, left, right, comp))
    return VertTransform(P1, P2, comp0, comp_h, comp_v, LAX,
                         name="curry(%s)" % t.name)


def curry_mod(m, hom):
    """The modification between curried transformations."""
    A = m.top.q1.A
    top = curry_hor(m.top, hom)
    bottom = curry_hor(m.bottom, hom)
    left = curry_vert(m.left, hom)
    right = curry_vert(m.right, hom)
    comp = {a: hom.intern_modification(m.m_a[a]) for a in range(A.n_objects)}
    return Modification(top, bottom, left, right, comp,
                        name="curry(%s)" % m.name)


def uncurry_mod(mod, hom):
    """The q-modification from a modification between curried cells."""
    A, B = mod.dom, hom.B
    top, bottom, left, right = (uncurry_cell(tr, hom) for tr in (
        mod.top, mod.bottom, mod.left, mod.right))
    m_a = {a: hom.sq_payload[mod.at(a)] for a in range(A.n_objects)}
    comps = {b: {a: m_a[a].at(b) for a in range(A.n_objects)}
             for b in range(B.n_objects)}
    m_b = _memberwise(Modification, top.th_b, bottom.th_b, left.th_b,
                      right.th_b, comps)
    return QModification(top, bottom, left, right, m_a, m_b,
                         name="uncurry(%s)" % mod.name)


# -- the double category of quasi functors ----------------------------------


def _quasi_key(q):
    A, B = q.A, q.B
    return ("quasi",
            tuple(_functor_key(q.fA(a)) for a in range(A.n_objects)),
            tuple(_functor_key(q.fB(b)) for b in range(B.n_objects)),
            tuple(sorted(q.kk.items())), tuple(sorted(q.uk.items())),
            tuple(sorted(q.ku.items())), tuple(sorted(q.uu.items())))


class QHomDoubleCat(InternedDoubleCat):
    """Lazily interned double category of quasi functors (A, B) -> C."""

    def __init__(self, A, B, C, name=None):
        super().__init__(name or "qhom(%s,%s;%s)" % (A.name, B.name, C.name))
        self.A, self.B, self.C = A, B, C

    def _key(self, kind, x, bounds):
        if kind == OBJ:
            return _quasi_key(x)
        A, B = self.A, self.B
        at = tuple(x.at(a, b) for a in range(A.n_objects)
                   for b in range(B.n_objects))
        if kind == SQ:
            return ("q-mod",) + bounds + (at,)
        # a q-transformation's key adds the field squares of every member
        return ("q-" + x.kind.tag,) + bounds + (at,) + tuple(map(
            field_squares, [x.th_a[a] for a in range(A.n_objects)]
            + [x.th_b[b] for b in range(B.n_objects)]))

    def _ends(self, t):
        return t.q1, t.q2

    def intern_quasi(self, q):
        return self._intern(OBJ, q)

    def intern_q_hor(self, t):
        return self._intern(HOR, t)

    def intern_q_vert(self, t):
        return self._intern(VERT, t)

    def intern_q_mod(self, m):
        return self._intern(SQ, m)

    def _id_payload(self, kind, q):
        return (identity_q_hor if kind == HOR else identity_q_vert)(q)

    def _sq_v_id_payload(self, t):
        m_a = {a: identity_modification(t.th_a[a]) for a in t.th_a}
        m_b = {b: identity_modification(t.th_b[b]) for b in t.th_b}
        return QModification(t, t, identity_q_vert(t.q1),
                             identity_q_vert(t.q2), m_a, m_b,
                             name="Id_%s" % t.name)

    def _sq_h_id_payload(self, t):
        m_a = {a: _vert_identity_square(t.th_a[a], OPLAX) for a in t.th_a}
        m_b = {b: _vert_identity_square(t.th_b[b], OPLAX) for b in t.th_b}
        return QModification(identity_q_hor(t.q1), identity_q_hor(t.q2),
                             t, t, m_a, m_b, name="Id^%s" % t.name)

    def _hh_op(self, t1, t2):
        return vcompose_q_hor(t1, t2)

    def _vv_op(self, t1, t2):
        return vcompose_q_vert(t1, t2)

    def _hs_op(self, m1, m2, top=None, bottom=None):
        return hcompose_q_mod(m1, m2, top, bottom)

    def _vs_op(self, m1, m2, left=None, right=None):
        return vcompose_q_mod(m1, m2, left, right)


def q_hom_double_category(A, B, C):
    """An empty, lazily interned double category of quasi functors."""
    return QHomDoubleCat(A, B, C)
