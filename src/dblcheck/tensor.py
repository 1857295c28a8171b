"""The strictification tensor of two double categories, by presentation.

The tensor product of A and B is given by generators and relations: one
generator per mixed cell (object with 1-cell, object with square, laxity
and unit cells for each generator family, and four kinds of interchanger
squares), and one relation per instance of the family functor laws and the
quasi functor laws.  The tensor is never materialized as a double category;
a strict functor out of it is exactly a boundary-preserving assignment of
target cells to generators under which every relation evaluates to an
equality, and that is checkable directly with pasting terms.

Vertical identities and their normalization are built into the term
builders: an object-with-identity-vertical generator is represented by the
identity term on the object generator, so the unit rules hold by
construction rather than as stored relations.
"""

from .core import (
    CellRef, Gen, HComp, HCELL, HId, OBJECT, SQUARE, VCELL, VComp, VId,
    eval_pasting)
from .errors import DomainMismatch, RelationViolated


def _vcomp_many(terms):
    out = terms[0]
    for t in terms[1:]:
        out = VComp(out, t)
    return out


class TensorPresentation:
    """Generators and relations presenting the tensor of A and B.

    Generator names are structured strings; relations are (label, lhs, rhs)
    triples of pasting terms over Gen leaves.  Term-builder methods return
    the normalized term for each mixed cell, collapsing identity vertical
    arguments.
    """

    def __init__(self, A, B):
        self.A, self.B = A, B
        if A.flat:
            A.materialize_flat_squares()
        if B.flat:
            B.materialize_flat_squares()
        self.obj_gens = ["o:%d:%d" % (a, b)
                         for a in range(A.n_objects)
                         for b in range(B.n_objects)]
        self.h_gens = (["Ak:%d:%d" % (a, k)
                        for a in range(A.n_objects)
                        for k in range(B.n_hcells)]
                       + ["KB:%d:%d" % (K, b)
                          for K in range(A.n_hcells)
                          for b in range(B.n_objects)])
        self.v_gens = (["Au:%d:%d" % (a, u)
                        for a in range(A.n_objects)
                        for u in range(B.n_vcells)
                        if not B.is_v_identity(u)]
                       + ["UB:%d:%d" % (U, b)
                          for U in range(A.n_vcells)
                          for b in range(B.n_objects)
                          if not A.is_v_identity(U)])
        self.sq_gens = []
        self.sq_gens += ["Aom:%d:%d" % (a, om)
                         for a in range(A.n_objects)
                         for om in range(B.n_squares)]
        self.sq_gens += ["zeB:%d:%d" % (ze, b)
                         for ze in range(A.n_squares)
                         for b in range(B.n_objects)]
        self.sq_gens += ["cA:%d:%d:%d" % (a, k, kp)
                         for a in range(A.n_objects)
                         for k in range(B.n_hcells)
                         for kp in range(B.n_hcells)
                         if B.htgt[k] == B.hsrc[kp]]
        self.sq_gens += ["uA:%d:%d" % (a, b)
                         for a in range(A.n_objects)
                         for b in range(B.n_objects)]
        self.sq_gens += ["cB:%d:%d:%d" % (b, K, Kp)
                         for b in range(B.n_objects)
                         for K in range(A.n_hcells)
                         for Kp in range(A.n_hcells)
                         if A.htgt[K] == A.hsrc[Kp]]
        self.sq_gens += ["uB:%d:%d" % (b, a)
                         for b in range(B.n_objects)
                         for a in range(A.n_objects)]
        self.sq_gens += ["kk:%d:%d" % (k, K)
                         for k in range(B.n_hcells)
                         for K in range(A.n_hcells)]
        self.sq_gens += ["uk:%d:%d" % (u, K)
                         for u in range(B.n_vcells)
                         if not B.is_v_identity(u)
                         for K in range(A.n_hcells)]
        self.sq_gens += ["ku:%d:%d" % (k, U)
                         for k in range(B.n_hcells)
                         for U in range(A.n_vcells)
                         if not A.is_v_identity(U)]
        self.sq_gens += ["uu:%d:%d" % (u, U)
                         for u in range(B.n_vcells)
                         if not B.is_v_identity(u)
                         for U in range(A.n_vcells)
                         if not A.is_v_identity(U)]
        self.relations = []
        self._family_relations()
        self._mixed_relations()

    # -- term builders -------------------------------------------------------

    def t_obj(self, a, b):
        return Gen("o:%d:%d" % (a, b))

    def t_ha(self, a, k):
        return Gen("Ak:%d:%d" % (a, k))

    def t_hb(self, K, b):
        return Gen("KB:%d:%d" % (K, b))

    def t_va(self, a, u):
        if self.B.is_v_identity(u):
            return VId(self.t_obj(a, self.B.vsrc[u]))
        return Gen("Au:%d:%d" % (a, u))

    def t_vb(self, U, b):
        if self.A.is_v_identity(U):
            return VId(self.t_obj(self.A.vsrc[U], b))
        return Gen("UB:%d:%d" % (U, b))

    def t_sqa(self, a, om):
        return Gen("Aom:%d:%d" % (a, om))

    def t_sqb(self, ze, b):
        return Gen("zeB:%d:%d" % (ze, b))

    def t_ca(self, a, k, kp):
        return Gen("cA:%d:%d:%d" % (a, k, kp))

    def t_ua(self, a, b):
        return Gen("uA:%d:%d" % (a, b))

    def t_cb(self, b, K, Kp):
        return Gen("cB:%d:%d:%d" % (b, K, Kp))

    def t_ub(self, b, a):
        return Gen("uB:%d:%d" % (b, a))

    def t_kk(self, k, K):
        return Gen("kk:%d:%d" % (k, K))

    def t_uk(self, u, K):
        if self.B.is_v_identity(u):
            return VId(self.t_hb(K, self.B.vsrc[u]))
        return Gen("uk:%d:%d" % (u, K))

    def t_ku(self, k, U):
        if self.A.is_v_identity(U):
            return VId(self.t_ha(self.A.vsrc[U], k))
        return Gen("ku:%d:%d" % (k, U))

    def t_uu(self, u, U):
        if self.B.is_v_identity(u):
            return HId(self.t_vb(U, self.B.vsrc[u]))
        if self.A.is_v_identity(U):
            return HId(self.t_va(self.A.vsrc[U], u))
        return Gen("uu:%d:%d" % (u, U))

    # -- relation schemata ---------------------------------------------------

    def _rel(self, label, lhs, rhs):
        self.relations.append((label, lhs, rhs))

    def _family_relations(self):
        A, B = self.A, self.B
        for a in range(A.n_objects):
            self._one_family(
                "fam-a", a, B,
                lambda k, a=a: self.t_ha(a, k),
                lambda u, a=a: self.t_va(a, u),
                lambda s, a=a: self.t_sqa(a, s),
                lambda k, kp, a=a: self.t_ca(a, k, kp),
                lambda x, a=a: self.t_ua(a, x))
        for b in range(B.n_objects):
            self._one_family(
                "fam-b", b, A,
                lambda K, b=b: self.t_hb(K, b),
                lambda U, b=b: self.t_vb(U, b),
                lambda s, b=b: self.t_sqb(s, b),
                lambda K, Kp, b=b: self.t_cb(b, K, Kp),
                lambda x, b=b: self.t_ub(b, x))

    def _one_family(self, tag, fixed, d, th, tv, ts, tc, tu):
        """Lax functor law instances for one generator family over d."""
        for u in range(d.n_vcells):
            for w in range(d.n_vcells):
                if d.vtgt[u] == d.vsrc[w]:
                    self._rel("%s.v1" % tag, tv(d.vcomp_v(u, w)),
                              VComp(tv(u), tv(w)))
        squares = list(d.iter_squares())
        for s1 in squares:
            for s2 in squares:
                if d.sq_bottom(s1) == d.sq_top(s2):
                    self._rel("%s.h1" % tag, ts(d.vcomp_sq(s1, s2)),
                              VComp(ts(s1), ts(s2)))
        for f in range(d.n_hcells):
            self._rel("%s.h2" % tag, ts(d.sq_v_id(f)), VId(th(f)))
        for f in range(d.n_hcells):
            for g in range(d.n_hcells):
                if d.htgt[f] != d.hsrc[g]:
                    continue
                for h in range(d.n_hcells):
                    if d.htgt[g] != d.hsrc[h]:
                        continue
                    self._rel(
                        "%s.hex" % tag,
                        VComp(HComp(tc(f, g), VId(th(h))),
                              tc(d.hcomp_h(f, g), h)),
                        VComp(HComp(VId(th(f)), tc(g, h)),
                              tc(f, d.hcomp_h(g, h))))
        for f in range(d.n_hcells):
            x, y = d.hsrc[f], d.htgt[f]
            self._rel("%s.u" % tag,
                      VComp(HComp(tu(x), VId(th(f))), tc(d.h_id(x), f)),
                      VId(th(f)))
            self._rel("%s.u" % tag,
                      VComp(HComp(VId(th(f)), tu(y)), tc(f, d.h_id(y))),
                      VId(th(f)))
        for s1 in squares:
            for s2 in squares:
                if d.sq_right(s1) != d.sq_left(s2):
                    continue
                self._rel(
                    "%s.c-nat" % tag,
                    VComp(HComp(ts(s1), ts(s2)),
                          tc(d.sq_bottom(s1), d.sq_bottom(s2))),
                    VComp(tc(d.sq_top(s1), d.sq_top(s2)),
                          ts(d.hcomp_sq(s1, s2))))
        for u in range(d.n_vcells):
            self._rel("%s.u-nat" % tag,
                      VComp(HId(tv(u)), tu(d.vtgt[u])),
                      VComp(tu(d.vsrc[u]), ts(d.sq_h_id(u))))

    def _mixed_relations(self):
        A, B = self.A, self.B
        for b in range(B.n_objects):
            one = B.h_id(b)
            for K in range(A.n_hcells):
                a, ap = A.hsrc[K], A.htgt[K]
                self._rel("(1_B,K)",
                          VComp(HComp(self.t_ua(a, b), VId(self.t_hb(K, b))),
                                self.t_kk(one, K)),
                          HComp(VId(self.t_hb(K, b)), self.t_ua(ap, b)))
            for U in range(A.n_vcells):
                a, at = A.vsrc[U], A.vtgt[U]
                self._rel("(1_B,U)",
                          VComp(self.t_ua(a, b), self.t_ku(one, U)),
                          VComp(HId(self.t_vb(U, b)), self.t_ua(at, b)))
        for a in range(A.n_objects):
            one = A.h_id(a)
            for k in range(B.n_hcells):
                b, bp = B.hsrc[k], B.htgt[k]
                self._rel("(k,1_A)",
                          HComp(self.t_ub(b, a), VId(self.t_ha(a, k))),
                          VComp(HComp(VId(self.t_ha(a, k)),
                                      self.t_ub(bp, a)),
                                self.t_kk(k, one)))
            for u in range(B.n_vcells):
                b, bt = B.vsrc[u], B.vtgt[u]
                self._rel("(u,1_A)",
                          VComp(HId(self.t_va(a, u)), self.t_ub(bt, a)),
                          VComp(self.t_ub(b, a), self.t_uk(u, one)))
        for k in range(B.n_hcells):
            for kp in range(B.n_hcells):
                if B.htgt[k] != B.hsrc[kp]:
                    continue
                kc = B.hcomp_h(k, kp)
                b, bpp = B.hsrc[k], B.htgt[kp]
                for K in range(A.n_hcells):
                    a, ap = A.hsrc[K], A.htgt[K]
                    self._rel(
                        "(k'k,K)",
                        _vcomp_many([
                            HComp(VId(self.t_ha(a, k)), self.t_kk(kp, K)),
                            HComp(self.t_kk(k, K), VId(self.t_ha(ap, kp))),
                            HComp(VId(self.t_hb(K, b)),
                                  self.t_ca(ap, k, kp))]),
                        VComp(HComp(self.t_ca(a, k, kp),
                                    VId(self.t_hb(K, bpp))),
                              self.t_kk(kc, K)))
                for U in range(A.n_vcells):
                    a, at = A.vsrc[U], A.vtgt[U]
                    self._rel(
                        "(k'k,U)",
                        VComp(HComp(self.t_ku(k, U), self.t_ku(kp, U)),
                              self.t_ca(at, k, kp)),
                        VComp(self.t_ca(a, k, kp), self.t_ku(kc, U)))
        for K in range(A.n_hcells):
            for Kp in range(A.n_hcells):
                if A.htgt[K] != A.hsrc[Kp]:
                    continue
                Kc = A.hcomp_h(K, Kp)
                a, app = A.hsrc[K], A.htgt[Kp]
                for k in range(B.n_hcells):
                    b, bp = B.hsrc[k], B.htgt[k]
                    self._rel(
                        "(k,K'K)",
                        VComp(HComp(VId(self.t_ha(a, k)),
                                    self.t_cb(bp, K, Kp)),
                              self.t_kk(k, Kc)),
                        _vcomp_many([
                            HComp(self.t_kk(k, K), VId(self.t_hb(Kp, bp))),
                            HComp(VId(self.t_hb(K, b)), self.t_kk(k, Kp)),
                            HComp(self.t_cb(b, K, Kp),
                                  VId(self.t_ha(app, k)))]))
                for u in range(B.n_vcells):
                    b, bt = B.vsrc[u], B.vtgt[u]
                    self._rel(
                        "(u,K'K)",
                        VComp(self.t_cb(b, K, Kp), self.t_uk(u, Kc)),
                        VComp(HComp(self.t_uk(u, K), self.t_uk(u, Kp)),
                              self.t_cb(bt, K, Kp)))
        for u in range(B.n_vcells):
            for up in range(B.n_vcells):
                if B.vtgt[u] != B.vsrc[up]:
                    continue
                uc = B.vcomp_v(u, up)
                for K in range(A.n_hcells):
                    self._rel("(u/u',K)", self.t_uk(uc, K),
                              VComp(self.t_uk(u, K), self.t_uk(up, K)))
                for U in range(A.n_vcells):
                    a, at = A.vsrc[U], A.vtgt[U]
                    self._rel(
                        "(u/u',U)", self.t_uu(uc, U),
                        HComp(VComp(self.t_uu(u, U),
                                    HId(self.t_va(at, up))),
                              VComp(HId(self.t_va(a, u)),
                                    self.t_uu(up, U))))
        for U in range(A.n_vcells):
            for Up in range(A.n_vcells):
                if A.vtgt[U] != A.vsrc[Up]:
                    continue
                Uc = A.vcomp_v(U, Up)
                for k in range(B.n_hcells):
                    self._rel("(k,U/U')", self.t_ku(k, Uc),
                              VComp(self.t_ku(k, U), self.t_ku(k, Up)))
                for u in range(B.n_vcells):
                    b, bt = B.vsrc[u], B.vtgt[u]
                    self._rel(
                        "(u,U/U')", self.t_uu(u, Uc),
                        HComp(VComp(HId(self.t_vb(U, b)), self.t_uu(u, Up)),
                              VComp(self.t_uu(u, U),
                                    HId(self.t_vb(Up, bt)))))
        for om in B.iter_squares():
            k, l = B.sq_top(om), B.sq_bottom(om)
            u, v = B.sq_left(om), B.sq_right(om)
            for K in range(A.n_hcells):
                a, ap = A.hsrc[K], A.htgt[K]
                self._rel(
                    "(k,K)-l-nat",
                    VComp(self.t_kk(k, K),
                          HComp(self.t_uk(u, K), self.t_sqa(ap, om))),
                    VComp(HComp(self.t_sqa(a, om), self.t_uk(v, K)),
                          self.t_kk(l, K)))
            for U in range(A.n_vcells):
                self._rel(
                    "(u,U)-l-nat",
                    HComp(self.t_uu(u, U),
                          VComp(self.t_sqa(self.A.vsrc[U], om),
                                self.t_ku(l, U))),
                    HComp(VComp(self.t_ku(k, U),
                                self.t_sqa(self.A.vtgt[U], om)),
                          self.t_uu(v, U)))
        for ze in A.iter_squares():
            K, L = A.sq_top(ze), A.sq_bottom(ze)
            U, V = A.sq_left(ze), A.sq_right(ze)
            for k in range(B.n_hcells):
                b, bp = B.hsrc[k], B.htgt[k]
                self._rel(
                    "(k,K)-r-nat",
                    VComp(self.t_kk(k, K),
                          HComp(self.t_sqb(ze, b), self.t_ku(k, V))),
                    VComp(HComp(self.t_ku(k, U), self.t_sqb(ze, bp)),
                          self.t_kk(k, L)))
            for u in range(B.n_vcells):
                b, bt = B.vsrc[u], B.vtgt[u]
                self._rel(
                    "(u,U)-r-nat",
                    HComp(self.t_uu(u, U),
                          VComp(self.t_uk(u, K), self.t_sqb(ze, bt))),
                    HComp(VComp(self.t_sqb(ze, b), self.t_uk(u, L)),
                          self.t_uu(u, V)))

    # -- reporting -----------------------------------------------------------

    def generators(self):
        return self.obj_gens + self.h_gens + self.v_gens + self.sq_gens

    def audit(self):
        """Relation counts per schema label."""
        counts = {}
        for label, _, _ in self.relations:
            counts[label] = counts.get(label, 0) + 1
        return counts

    def __repr__(self):
        return "TensorPresentation(%s (x) %s: %d generators, %d relations)" % (
            self.A.name, self.B.name, len(self.generators()),
            len(self.relations))


def tensor_presentation(A, B):
    """Build the generators-and-relations presentation of the tensor."""
    return TensorPresentation(A, B)


class JQuasiFunctor:
    """The universal quasi functor into the tensor, symbolically.

    Cell images are generator terms of the presentation; there is nothing
    to check, because every mixed law instance is a stored relation.
    """

    def __init__(self, pres):
        self.pres = pres
        self.A, self.B = pres.A, pres.B

    def obj(self, a, b):
        return self.pres.t_obj(a, b)

    def h_a(self, a, k):
        return self.pres.t_ha(a, k)

    def h_b(self, K, b):
        return self.pres.t_hb(K, b)

    def v_a(self, a, u):
        return self.pres.t_va(a, u)

    def v_b(self, U, b):
        return self.pres.t_vb(U, b)

    def sq_kk(self, k, K):
        return self.pres.t_kk(k, K)

    def sq_uk(self, u, K):
        return self.pres.t_uk(u, K)

    def sq_ku(self, k, U):
        return self.pres.t_ku(k, U)

    def sq_uu(self, u, U):
        return self.pres.t_uu(u, U)


def j_quasi_functor(A, B, pres=None):
    if pres is None:
        pres = tensor_presentation(A, B)
    return JQuasiFunctor(pres)


class StrictAssignment:
    """A boundary-preserving map from generators to cells of a target.

    env maps generator names to CellRefs of the target double category;
    evaluating a presentation term under env lands in the target.
    """

    def __init__(self, pres, target, env, name="Hbar"):
        self.pres = pres
        self.target = target
        self.env = dict(env)
        self.name = name

    def __getitem__(self, gen):
        return self.env[gen]

    def eval(self, term):
        return eval_pasting(self.target, term, self.env)

    def __repr__(self):
        return "StrictAssignment(%s: %d generators -> %s)" % (
            self.name, len(self.env), self.target.name)


def _assignment_env(q, pres):
    """The generator images induced by a quasi functor."""
    A, B = pres.A, pres.B
    env = {}
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            env["o:%d:%d" % (a, b)] = CellRef(OBJECT, q.obj(a, b))
            env["uA:%d:%d" % (a, b)] = CellRef(SQUARE, q.fA(a).unitor(b))
            env["uB:%d:%d" % (b, a)] = CellRef(SQUARE, q.fB(b).unitor(a))
    for a in range(A.n_objects):
        for k in range(B.n_hcells):
            env["Ak:%d:%d" % (a, k)] = CellRef(HCELL, q.fA(a).h(k))
        for u in range(B.n_vcells):
            if not B.is_v_identity(u):
                env["Au:%d:%d" % (a, u)] = CellRef(VCELL, q.fA(a).v(u))
        for om in range(B.n_squares):
            env["Aom:%d:%d" % (a, om)] = CellRef(SQUARE, q.fA(a).sq(om))
        for k in range(B.n_hcells):
            for kp in range(B.n_hcells):
                if B.htgt[k] == B.hsrc[kp]:
                    env["cA:%d:%d:%d" % (a, k, kp)] = CellRef(
                        SQUARE, q.fA(a).compositor(k, kp))
    for b in range(B.n_objects):
        for K in range(A.n_hcells):
            env["KB:%d:%d" % (K, b)] = CellRef(HCELL, q.fB(b).h(K))
        for U in range(A.n_vcells):
            if not A.is_v_identity(U):
                env["UB:%d:%d" % (U, b)] = CellRef(VCELL, q.fB(b).v(U))
        for ze in range(A.n_squares):
            env["zeB:%d:%d" % (ze, b)] = CellRef(SQUARE, q.fB(b).sq(ze))
        for K in range(A.n_hcells):
            for Kp in range(A.n_hcells):
                if A.htgt[K] == A.hsrc[Kp]:
                    env["cB:%d:%d:%d" % (b, K, Kp)] = CellRef(
                        SQUARE, q.fB(b).compositor(K, Kp))
    for k in range(B.n_hcells):
        for K in range(A.n_hcells):
            env["kk:%d:%d" % (k, K)] = CellRef(SQUARE, q.sq_kk(k, K))
    for u in range(B.n_vcells):
        if B.is_v_identity(u):
            continue
        for K in range(A.n_hcells):
            env["uk:%d:%d" % (u, K)] = CellRef(SQUARE, q.sq_uk(u, K))
    for k in range(B.n_hcells):
        for U in range(A.n_vcells):
            if not A.is_v_identity(U):
                env["ku:%d:%d" % (k, U)] = CellRef(SQUARE, q.sq_ku(k, U))
    for u in range(B.n_vcells):
        if B.is_v_identity(u):
            continue
        for U in range(A.n_vcells):
            if not A.is_v_identity(U):
                env["uu:%d:%d" % (u, U)] = CellRef(SQUARE, q.sq_uu(u, U))
    return env


def factorize(q, pres=None):
    """The strict assignment through which a quasi functor factors.

    Every relation of the presentation is evaluated in the target under the
    induced generator images; a violated relation means the input fails a
    quasi functor law and is raised as an internal consistency alarm.
    """
    if pres is None:
        pres = tensor_presentation(q.A, q.B)
    if pres.A is not q.A or pres.B is not q.B:
        raise DomainMismatch("presentation factors do not match the input")
    env = _assignment_env(q, pres)
    bar = StrictAssignment(pres, q.C, env, name="bar(%s)" % q.name)
    for label, lhs, rhs in pres.relations:
        if bar.eval(lhs) != bar.eval(rhs):
            raise RelationViolated("relation %s does not hold under the "
                                   "assignment" % label)
    return bar


def verify_universal_property(q, pres=None, bar=None):
    """Check factorization and generator-level uniqueness.

    The composite of the assignment with the universal quasi functor must
    reproduce the input cell by cell, the assignment must preserve every
    generator boundary, and every generator must be the image of a cell of
    the universal quasi functor, so that two strict assignments agreeing
    after the universal quasi functor agree on all generators.
    """
    from .core import ValidationReport
    if pres is None:
        pres = tensor_presentation(q.A, q.B)
    if bar is None:
        bar = factorize(q, pres)
    rep = ValidationReport()
    A, B, C = pres.A, pres.B, q.C
    J = JQuasiFunctor(pres)
    # the composite with J gives back the input
    checks = []
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            checks.append((J.obj(a, b), OBJECT, q.obj(a, b)))
        for k in range(B.n_hcells):
            checks.append((J.h_a(a, k), HCELL, q.fA(a).h(k)))
        for u in range(B.n_vcells):
            checks.append((J.v_a(a, u), VCELL, q.fA(a).v(u)))
    for b in range(B.n_objects):
        for K in range(A.n_hcells):
            checks.append((J.h_b(K, b), HCELL, q.fB(b).h(K)))
        for U in range(A.n_vcells):
            checks.append((J.v_b(U, b), VCELL, q.fB(b).v(U)))
    for k in range(B.n_hcells):
        for K in range(A.n_hcells):
            checks.append((J.sq_kk(k, K), SQUARE, q.sq_kk(k, K)))
    for u in range(B.n_vcells):
        for K in range(A.n_hcells):
            checks.append((J.sq_uk(u, K), SQUARE, q.sq_uk(u, K)))
        for U in range(A.n_vcells):
            checks.append((J.sq_uu(u, U), SQUARE, q.sq_uu(u, U)))
    for k in range(B.n_hcells):
        for U in range(A.n_vcells):
            checks.append((J.sq_ku(k, U), SQUARE, q.sq_ku(k, U)))
    for term, kind, want in checks:
        got = bar.eval(term)
        if got.kind != kind or got.id != want:
            rep.add("factor-mismatch", term=term, want=want, got=got)
    # boundary preservation of the assignment on 1-cell generators
    bounds = {}
    for a in range(A.n_objects):
        for k in range(B.n_hcells):
            bounds["Ak:%d:%d" % (a, k)] = (
                q.obj(a, B.hsrc[k]), q.obj(a, B.htgt[k]))
    for b in range(B.n_objects):
        for K in range(A.n_hcells):
            bounds["KB:%d:%d" % (K, b)] = (
                q.obj(A.hsrc[K], b), q.obj(A.htgt[K], b))
    for gen, (src, tgt) in bounds.items():
        f = bar[gen].id
        if C.hsrc[f] != src or C.htgt[f] != tgt:
            rep.add("factor-boundary", generator=gen)
    # uniqueness at generator level: every generator is a J-image
    covered = set(_assignment_env(q, pres))
    for gen in pres.generators():
        if gen not in covered:
            rep.add("uniqueness-uncovered", generator=gen)
    return rep
