"""The strictification tensor of two double categories, by presentation.

The tensor product of A and B is given by generators and relations: one
generator per mixed cell (object with 1-cell, object with square, laxity
and unit cells for each generator family, and four kinds of interchanger
squares), and one relation per instance of the family functor laws and the
quasi functor laws.  The relations are not written here: they come from
running the law catalogues the checkers use (``functor._lax_functor_laws``
and ``quasi._quasi_laws``) on the universal quasi functor J, whose
codomain builds pasting terms.  The tensor is never materialized as a
double category; a strict functor out of it is exactly a
boundary-preserving assignment of target cells to generators under which
every relation evaluates to an equality, and that is checkable directly
with pasting terms.

Vertical identities and their normalization are built into the term
builders: an object-with-identity-vertical generator is represented by the
identity term on the object generator, so the unit rules hold by
construction.  A law instance whose two sides build the same term is such
a rule and is not stored.
"""

from functools import partial

from .core import (
    CellRef, Gen, HComp, HCELL, HId, OBJECT, SQUARE, VCELL, VComp, VId,
    eval_pasting)
from .errors import DomainMismatch, RelationViolated
from .functor import _lax_functor_laws
from .quasi import _quasi_laws


def _vcomp_many(terms):
    out = terms[0]
    for t in terms[1:]:
        out = VComp(out, t)
    return out


class _Terms:
    """The codomain the law catalogues see when run on J: each composition
    or identity builds the pasting term instead of looking up a cell."""

    hcomp_sq = HComp
    vcomp_sq = vcomp_v = VComp
    sq_v_id = v_id = VId
    sq_h_id = HId
    vcomp_sq_many = staticmethod(_vcomp_many)


class _Family:
    """One generator family of J, read as a lax functor into the terms."""

    def __init__(self, dom, obj, h, v, sq, compositor, unitor):
        self.dom, self.cod = dom, _Terms
        self.obj, self.h, self.v, self.sq = obj, h, v, sq
        self.compositor, self.unitor = compositor, unitor


class TensorPresentation:
    """Generators and relations presenting the tensor of A and B.

    Generator names are structured strings; relations are (label, lhs, rhs)
    triples of pasting terms over Gen leaves: every law instance of the
    catalogues run on J, in catalogue order, except those whose two sides
    are the same term.  Term-builder methods return the normalized term for
    each mixed cell, collapsing identity vertical arguments.
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

        def emit(label, lhs, rhs, **witness):
            lhs, rhs = lhs(), rhs()
            if lhs != rhs:
                self.relations.append((label, lhs, rhs))

        J = JQuasiFunctor(self)
        for a in range(A.n_objects):
            _lax_functor_laws(J.fA(a), emit, "fam-a")
        for b in range(B.n_objects):
            _lax_functor_laws(J.fB(b), emit, "fam-b")
        _quasi_laws(J, emit)

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

    Cell images are generator terms of the presentation, and its codomain
    C builds pasting terms; there is nothing to check, because every law
    instance is a stored relation or holds by normalization.  fA(a) and
    fB(b) are the generator families as lax functors into the terms.
    """

    def __init__(self, pres):
        self.pres = pres
        self.A, self.B, self.C = pres.A, pres.B, _Terms
        p = pres
        self._fam_a = [
            _Family(p.B, partial(p.t_obj, a), partial(p.t_ha, a),
                    partial(p.t_va, a), partial(p.t_sqa, a),
                    partial(p.t_ca, a), partial(p.t_ua, a))
            for a in range(p.A.n_objects)]
        self._fam_b = [
            _Family(p.A, lambda a, b=b: p.t_obj(a, b),
                    lambda K, b=b: p.t_hb(K, b),
                    lambda U, b=b: p.t_vb(U, b),
                    lambda ze, b=b: p.t_sqb(ze, b),
                    partial(p.t_cb, b), partial(p.t_ub, b))
            for b in range(p.B.n_objects)]

    def fA(self, a):
        return self._fam_a[a]

    def fB(self, b):
        return self._fam_b[b]

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
