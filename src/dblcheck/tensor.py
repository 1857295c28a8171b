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

The generators come from one walk, ``_cells``, over the cells of a quasi
functor that a generator names.  Walked on J it gives the generator terms;
walked on J and an input side by side it gives the assignment of the input
and the cells its composite with J must reproduce.
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
        # J's cells in the order of _cells: the generator terms, and
        # normal forms for cells with a vertical identity argument
        J = JQuasiFunctor(self)
        self.j_cells = list(_cells(J))
        gens = {OBJECT: [], HCELL: [], VCELL: [], SQUARE: []}
        for kind, term in self.j_cells:
            if isinstance(term, Gen):
                gens[kind].append(term.name)
        self.obj_gens, self.h_gens, self.v_gens, self.sq_gens = (
            gens[OBJECT], gens[HCELL], gens[VCELL], gens[SQUARE])
        self.relations = []

        def emit(label, lhs, rhs, **witness):
            lhs, rhs = lhs(), rhs()
            if lhs != rhs:
                self.relations.append((label, lhs, rhs))

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


def _family_cells(F):
    """The cells of one generator family that a generator names: its
    unitors, then its images of 1h-cells, 1v-cells and squares, then its
    compositors."""
    D = F.dom
    for x in range(D.n_objects):
        yield SQUARE, F.unitor(x)
    for f in range(D.n_hcells):
        yield HCELL, F.h(f)
    for u in range(D.n_vcells):
        yield VCELL, F.v(u)
    for s in range(D.n_squares):
        yield SQUARE, F.sq(s)
    for f in range(D.n_hcells):
        for g in range(D.n_hcells):
            if D.htgt[f] == D.hsrc[g]:
                yield SQUARE, F.compositor(f, g)


def _cells(q):
    """(kind, cell) for every cell of q that a tensor generator names.

    The order is fixed by A and B alone, so walking the universal quasi
    functor J and any q from A and B side by side pairs each generator with
    its image under q.  On J, a cell with a vertical identity argument is a
    normal form, not a Gen.
    """
    A, B = q.A, q.B
    for a in range(A.n_objects):
        for b in range(B.n_objects):
            yield OBJECT, q.obj(a, b)
        yield from _family_cells(q.fA(a))
    for b in range(B.n_objects):
        yield from _family_cells(q.fB(b))
    for k in range(B.n_hcells):
        for K in range(A.n_hcells):
            yield SQUARE, q.sq_kk(k, K)
    for u in range(B.n_vcells):
        for K in range(A.n_hcells):
            yield SQUARE, q.sq_uk(u, K)
        for U in range(A.n_vcells):
            yield SQUARE, q.sq_uu(u, U)
    for k in range(B.n_hcells):
        for U in range(A.n_vcells):
            yield SQUARE, q.sq_ku(k, U)


def _assignment_env(q, pres):
    """The generator images induced by a quasi functor."""
    return {term.name: CellRef(kind, cell)
            for (kind, term), (_, cell) in zip(pres.j_cells, _cells(q))
            if isinstance(term, Gen)}


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
    # the composite with J gives back the input
    for (kind, term), (_, want) in zip(pres.j_cells, _cells(q)):
        got = bar.eval(term)
        if got.kind != kind or got.id != want:
            rep.add("factor-mismatch", term=term, want=want, got=got)
    # boundary preservation of the assignment on 1-cell generators
    bounds = {}
    for a in range(A.n_objects):
        for k in range(B.n_hcells):
            bounds[pres.t_ha(a, k).name] = (
                q.obj(a, B.hsrc[k]), q.obj(a, B.htgt[k]))
    for b in range(B.n_objects):
        for K in range(A.n_hcells):
            bounds[pres.t_hb(K, b).name] = (
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
