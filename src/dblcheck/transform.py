"""Transformations between lax double functors, and modifications.

Two families of transformations are supported, each in two orientations:

* horizontal transformations assign a horizontal 1-cell to every object.
  In the oplax orientation the structure square for a 1h-cell f: A -> B
  runs from "F(f) then alpha(B)" down to "alpha(A) then G(f)"; in the lax
  orientation it runs the other way.
* vertical transformations assign a vertical 1-cell to every object and
  are strict on objects in the horizontal direction; their structure
  square for a 1v-cell is horizontally globular, with the side order
  depending on the lax/oplax orientation.

A modification fills the square formed by two horizontal and two vertical
transformations; its two law sets pair horizontal-oplax with vertical-lax
and horizontal-lax with vertical-oplax.
"""

from .core import ValidationReport
from .errors import ChainMismatch, DblError, MalformedTables, NotPseudo
from .functor import _eq

OPLAX = "oplax"
LAX = "lax"


def _same_frame(F, G):
    if F.dom is not G.dom or F.cod is not G.cod:
        raise ChainMismatch("transformation endpoints must be parallel functors")


def _same_functor(F, G):
    """Identity or componentwise equality; interning in hom categories can
    hand back distinct but equal functor objects."""
    from .functor import functor_equal
    return F is G or functor_equal(F, G)


def _derive(cod, store, key, bounds, what):
    """A stored square, or over a flat codomain the one with the boundary
    ``bounds(key)`` (then stored)."""
    if key in store:
        return store[key]
    if cod.flat:
        s = cod.find_square(*bounds(key))
        if s is None:
            raise MalformedTables("no codomain square for %s" % what)
        store[key] = s
        return s
    raise MalformedTables("%s missing and codomain not flat" % what)


class HorTransform:
    """Horizontal transformation between parallel lax double functors.

    comp0 maps objects to 1h-cells; comp_v maps 1v-cells to squares; delta
    maps 1h-cells to the globular structure squares.  With a flat codomain
    missing comp_v and delta entries are derived from their boundary.
    """

    def __init__(self, F, G, comp0, comp_v=None, delta=None,
                 orientation=OPLAX, name="alpha"):
        _same_frame(F, G)
        self.F, self.G = F, G
        self.dom, self.cod = F.dom, F.cod
        self.comp0 = dict(comp0)
        self.comp_v = dict(comp_v or {})
        self.delta = dict(delta or {})
        self.orientation = orientation
        self.name = name

    def at(self, a):
        return self.comp0[a]

    def sq_v(self, u):
        """The square on a 1v-cell u, with the components on top and bottom."""
        return _derive(self.cod, self.comp_v, u, self._sq_v_bounds,
                       "component square")

    def _sq_v_bounds(self, u):
        d = self.dom
        return (self.at(d.vsrc[u]), self.at(d.vtgt[u]),
                self.F.v(u), self.G.v(u))

    def delta_at(self, f):
        """The globular structure square on a 1h-cell f."""
        return _derive(self.cod, self.delta, f, self._delta_bounds,
                       "structure square")

    def _delta_bounds(self, f):
        d, c = self.dom, self.cod
        a, b = d.hsrc[f], d.htgt[f]
        upper = c.hcomp_h(self.F.h(f), self.at(b))
        lower = c.hcomp_h(self.at(a), self.G.h(f))
        if self.orientation == LAX:
            upper, lower = lower, upper
        return upper, lower, c.v_id(self.F.obj(a)), c.v_id(self.G.obj(b))

    def __repr__(self):
        return "HorTransform(%s: %s => %s, %s)" % (
            self.name, self.F.name, self.G.name, self.orientation)


class VertTransform:
    """Vertical transformation between parallel lax double functors.

    comp0 maps objects to 1v-cells; comp_h maps 1h-cells to squares with
    the functor images on top and bottom; comp_v maps 1v-cells to
    horizontally globular squares whose side order depends on the
    orientation (lax: component-then-G on the left; oplax: swapped).
    """

    def __init__(self, F, G, comp0, comp_h=None, comp_v=None,
                 orientation=LAX, name="alpha0"):
        _same_frame(F, G)
        self.F, self.G = F, G
        self.dom, self.cod = F.dom, F.cod
        self.comp0 = dict(comp0)
        self.comp_h = dict(comp_h or {})
        self.comp_v = dict(comp_v or {})
        self.orientation = orientation
        self.name = name

    def at(self, a):
        return self.comp0[a]

    def sq_h(self, f):
        return _derive(self.cod, self.comp_h, f, self._sq_h_bounds,
                       "component square")

    def _sq_h_bounds(self, f):
        d = self.dom
        return (self.F.h(f), self.G.h(f),
                self.at(d.hsrc[f]), self.at(d.htgt[f]))

    def sq_v(self, u):
        return _derive(self.cod, self.comp_v, u, self._sq_v_bounds,
                       "structure square")

    def _sq_v_bounds(self, u):
        d, c = self.dom, self.cod
        a, at_ = d.vsrc[u], d.vtgt[u]
        left = c.vcomp_v(self.at(a), self.G.v(u))
        right = c.vcomp_v(self.F.v(u), self.at(at_))
        if self.orientation == OPLAX:
            left, right = right, left
        return c.h_id(self.F.obj(a)), c.h_id(self.G.obj(at_)), left, right

    def __repr__(self):
        return "VertTransform(%s: %s => %s, %s)" % (
            self.name, self.F.name, self.G.name, self.orientation)


class Modification:
    """A square of transformations filled by component squares.

    top and bottom are horizontal transformations (same orientation), left
    and right are vertical transformations (same orientation); comp maps
    each object A to a square with top(A) above, bottom(A) below, left(A)
    on the left and right(A) on the right.
    """

    def __init__(self, top, bottom, left, right, comp, name="Theta"):
        if top.orientation != bottom.orientation:
            raise ChainMismatch("modification needs matching horizontal orientations")
        if left.orientation != right.orientation:
            raise ChainMismatch("modification needs matching vertical orientations")
        if {top.orientation, left.orientation} not in ({OPLAX, LAX},):
            # horizontal oplax pairs with vertical lax and conversely
            raise ChainMismatch("unsupported orientation pairing")
        if not (_same_functor(top.F, left.F) and _same_functor(top.G, right.F)
                and _same_functor(bottom.F, left.G)
                and _same_functor(bottom.G, right.G)):
            raise ChainMismatch("modification corners do not close")
        self.top, self.bottom = top, bottom
        self.left, self.right = left, right
        self.comp = dict(comp)
        self.name = name
        self.dom, self.cod = top.dom, top.cod

    def at(self, a):
        if a in self.comp:
            return self.comp[a]
        if self.cod.flat:
            s = self.cod.find_square(self.top.at(a), self.bottom.at(a),
                                     self.left.at(a), self.right.at(a))
            if s is None:
                raise MalformedTables("no codomain square for a component")
            self.comp[a] = s
            return s
        raise MalformedTables("component missing and codomain not flat")

    def __repr__(self):
        return "Modification(%s)" % self.name


# -- identities -------------------------------------------------------------


def identity_hor_transform(F, orientation=OPLAX):
    """Identity horizontal transformation; all structure squares are
    identity squares."""
    d, c = F.dom, F.cod
    comp0 = {a: c.h_id(F.obj(a)) for a in range(d.n_objects)}
    comp_v = {u: c.sq_h_id(F.v(u)) for u in range(d.n_vcells)}
    delta = {f: c.sq_v_id(F.h(f)) for f in range(d.n_hcells)}
    return HorTransform(F, F, comp0, comp_v, delta, orientation,
                        name="id(%s)" % F.name)


def identity_vert_transform(F, orientation=LAX):
    """Identity vertical transformation; all structure squares are
    identity squares."""
    d, c = F.dom, F.cod
    comp0 = {a: c.v_id(F.obj(a)) for a in range(d.n_objects)}
    comp_h = {f: c.sq_v_id(F.h(f)) for f in range(d.n_hcells)}
    comp_v = {u: c.sq_h_id(F.v(u)) for u in range(d.n_vcells)}
    return VertTransform(F, F, comp0, comp_h, comp_v, orientation,
                         name="id(%s)" % F.name)


def identity_modification(alpha):
    """The identity modification on a horizontal transformation, filled in
    with the transformation's component squares over identity verticals."""
    F, G = alpha.F, alpha.G
    orientation = LAX if alpha.orientation == OPLAX else OPLAX
    left = identity_vert_transform(F, orientation)
    right = identity_vert_transform(G, orientation)
    comp = {a: alpha.cod.sq_v_id(alpha.at(a)) for a in range(alpha.dom.n_objects)}
    return Modification(alpha, alpha, left, right, comp,
                        name="id(%s)" % alpha.name)


# -- checking ---------------------------------------------------------------


def _check_hor_wellformed(rep, t):
    d, c = t.dom, t.cod
    for a in range(d.n_objects):
        if a not in t.comp0:
            rep.add("wf-component-missing", object=a)
            continue
        f = t.comp0[a]
        if c.hsrc[f] != t.F.obj(a) or c.htgt[f] != t.G.obj(a):
            rep.add("wf-component-boundary", object=a)
    if not rep.passed:
        return
    for u in range(d.n_vcells):
        try:
            s, want = t.sq_v(u), t._sq_v_bounds(u)
        except DblError as exc:
            rep.add("wf-square-missing", vcell=u, error=str(exc))
            continue
        if c.sq_bounds[s] != want:
            rep.add("wf-square-boundary", vcell=u)
    for f in range(d.n_hcells):
        try:
            s, want = t.delta_at(f), t._delta_bounds(f)
        except DblError as exc:
            rep.add("wf-structure-missing", hcell=f, error=str(exc))
            continue
        if c.sq_bounds[s] != want:
            rep.add("wf-structure-boundary", hcell=f)


def check_hor_transform(t):
    """Check the horizontal transformation laws for either orientation.

    Labels: h.o.t.-1/2 (oplax coherence with compositors and unitors) or
    h.l.t.-1/2 for the lax orientation; h.o.t.-3/4 (vertical functoriality
    of the component squares, shared by both orientations); h.o.t.-5 or
    h.l.t.-5 (naturality over arbitrary squares).
    """
    rep = ValidationReport()
    _check_hor_wellformed(rep, t)
    if not rep.passed:
        return rep
    d, c = t.dom, t.cod
    F, G = t.F, t.G
    oplax = t.orientation == OPLAX
    for f in range(d.n_hcells):
        for g in range(d.n_hcells):
            if d.htgt[f] != d.hsrc[g]:
                continue
            a, b2, c2 = d.hsrc[f], d.htgt[f], d.htgt[g]
            if oplax:
                _eq(rep, "h.o.t.-1",
                    lambda f=f, g=g, c2=c2: c.vcomp_sq(
                        c.hcomp_sq(F.compositor(f, g), c.sq_v_id(t.at(c2))),
                        t.delta_at(d.hcomp_h(f, g))),
                    lambda f=f, g=g, a=a: c.vcomp_sq_many([
                        c.hcomp_sq(c.sq_v_id(F.h(f)), t.delta_at(g)),
                        c.hcomp_sq(t.delta_at(f), c.sq_v_id(G.h(g))),
                        c.hcomp_sq(c.sq_v_id(t.at(a)), G.compositor(f, g))]),
                    first=f, second=g)
            else:
                _eq(rep, "h.l.t.-1",
                    lambda f=f, g=g, a=a: c.vcomp_sq(
                        c.hcomp_sq(c.sq_v_id(t.at(a)), G.compositor(f, g)),
                        t.delta_at(d.hcomp_h(f, g))),
                    lambda f=f, g=g, c2=c2: c.vcomp_sq_many([
                        c.hcomp_sq(t.delta_at(f), c.sq_v_id(G.h(g))),
                        c.hcomp_sq(c.sq_v_id(F.h(f)), t.delta_at(g)),
                        c.hcomp_sq(F.compositor(f, g), c.sq_v_id(t.at(c2)))]),
                    first=f, second=g)
    for a in range(d.n_objects):
        if oplax:
            _eq(rep, "h.o.t.-2",
                lambda a=a: c.vcomp_sq(
                    c.hcomp_sq(F.unitor(a), c.sq_v_id(t.at(a))),
                    t.delta_at(d.h_id(a))),
                lambda a=a: c.hcomp_sq(c.sq_v_id(t.at(a)), G.unitor(a)),
                object=a)
        else:
            _eq(rep, "h.l.t.-2",
                lambda a=a: c.vcomp_sq(
                    c.hcomp_sq(c.sq_v_id(t.at(a)), G.unitor(a)),
                    t.delta_at(d.h_id(a))),
                lambda a=a: c.hcomp_sq(F.unitor(a), c.sq_v_id(t.at(a))),
                object=a)
    for u in range(d.n_vcells):
        for w in range(d.n_vcells):
            if d.vtgt[u] == d.vsrc[w]:
                _eq(rep, "h.o.t.-3",
                    lambda u=u, w=w: t.sq_v(d.vcomp_v(u, w)),
                    lambda u=u, w=w: c.vcomp_sq(t.sq_v(u), t.sq_v(w)),
                    first=u, second=w)
    for a in range(d.n_objects):
        _eq(rep, "h.o.t.-4",
            lambda a=a: t.sq_v(d.v_id(a)),
            lambda a=a: c.sq_v_id(t.at(a)), object=a)
    for s in d.iter_squares():
        f, g = d.sq_top(s), d.sq_bottom(s)
        u, v = d.sq_left(s), d.sq_right(s)
        if oplax:
            _eq(rep, "h.o.t.-5",
                lambda s=s, g=g, v=v: c.vcomp_sq(
                    c.hcomp_sq(F.sq(s), t.sq_v(v)), t.delta_at(g)),
                lambda s=s, f=f, u=u: c.vcomp_sq(
                    t.delta_at(f), c.hcomp_sq(t.sq_v(u), G.sq(s))),
                square=s)
        else:
            _eq(rep, "h.l.t.-5",
                lambda s=s, g=g, u=u: c.vcomp_sq(
                    c.hcomp_sq(t.sq_v(u), G.sq(s)), t.delta_at(g)),
                lambda s=s, f=f, v=v: c.vcomp_sq(
                    t.delta_at(f), c.hcomp_sq(F.sq(s), t.sq_v(v))),
                square=s)
    return rep


def _check_vert_wellformed(rep, t):
    d, c = t.dom, t.cod
    for a in range(d.n_objects):
        if a not in t.comp0:
            rep.add("wf-component-missing", object=a)
            continue
        u = t.comp0[a]
        if c.vsrc[u] != t.F.obj(a) or c.vtgt[u] != t.G.obj(a):
            rep.add("wf-component-boundary", object=a)
    if not rep.passed:
        return
    for f in range(d.n_hcells):
        try:
            s, want = t.sq_h(f), t._sq_h_bounds(f)
        except DblError as exc:
            rep.add("wf-square-missing", hcell=f, error=str(exc))
            continue
        if c.sq_bounds[s] != want:
            rep.add("wf-square-boundary", hcell=f)
    for u in range(d.n_vcells):
        try:
            s, want = t.sq_v(u), t._sq_v_bounds(u)
        except DblError as exc:
            rep.add("wf-structure-missing", vcell=u, error=str(exc))
            continue
        if c.sq_bounds[s] != want:
            rep.add("wf-structure-boundary", vcell=u)


def check_vert_transform(t):
    """Check the vertical transformation laws for either orientation.

    Labels: v.l.t.-1/2 (coherence with compositors and unitors, shared),
    v.l.t.-3 or v.o.t.-3 (vertical functoriality of the structure squares),
    v.l.t.-4 (structure on identities, shared), v.l.t.-5 or v.o.t.-5
    (naturality over arbitrary squares).
    """
    rep = ValidationReport()
    _check_vert_wellformed(rep, t)
    if not rep.passed:
        return rep
    d, c = t.dom, t.cod
    F, G = t.F, t.G
    lax = t.orientation == LAX
    for f in range(d.n_hcells):
        for g in range(d.n_hcells):
            if d.htgt[f] != d.hsrc[g]:
                continue
            _eq(rep, "v.l.t.-1",
                lambda f=f, g=g: c.vcomp_sq(
                    c.hcomp_sq(t.sq_h(f), t.sq_h(g)), G.compositor(f, g)),
                lambda f=f, g=g: c.vcomp_sq(
                    F.compositor(f, g), t.sq_h(d.hcomp_h(f, g))),
                first=f, second=g)
    for a in range(d.n_objects):
        _eq(rep, "v.l.t.-2",
            lambda a=a: c.vcomp_sq(F.unitor(a), t.sq_h(d.h_id(a))),
            lambda a=a: c.vcomp_sq(c.sq_h_id(t.at(a)), G.unitor(a)),
            object=a)
    for u in range(d.n_vcells):
        for w in range(d.n_vcells):
            if d.vtgt[u] != d.vsrc[w]:
                continue
            if lax:
                _eq(rep, "v.l.t.-3",
                    lambda u=u, w=w: _vlt3_lhs(t, u, w),
                    lambda u=u, w=w: t.sq_v(d.vcomp_v(u, w)),
                    first=u, second=w)
            else:
                _eq(rep, "v.o.t.-3",
                    lambda u=u, w=w: _vot3_lhs(t, u, w),
                    lambda u=u, w=w: t.sq_v(d.vcomp_v(u, w)),
                    first=u, second=w)
    for a in range(d.n_objects):
        _eq(rep, "v.l.t.-4",
            lambda a=a: t.sq_v(d.v_id(a)),
            lambda a=a: c.sq_h_id(t.at(a)), object=a)
    for s in d.iter_squares():
        f, g = d.sq_top(s), d.sq_bottom(s)
        u, v = d.sq_left(s), d.sq_right(s)
        if lax:
            _eq(rep, "v.l.t.-5",
                lambda s=s, g=g, u=u: c.hcomp_sq(
                    t.sq_v(u), c.vcomp_sq(F.sq(s), t.sq_h(g))),
                lambda s=s, f=f, v=v: c.hcomp_sq(
                    c.vcomp_sq(t.sq_h(f), G.sq(s)), t.sq_v(v)),
                square=s)
        else:
            _eq(rep, "v.o.t.-5",
                lambda s=s, g=g, v=v: c.hcomp_sq(
                    c.vcomp_sq(F.sq(s), t.sq_h(g)), t.sq_v(v)),
                lambda s=s, f=f, u=u: c.hcomp_sq(
                    t.sq_v(u), c.vcomp_sq(t.sq_h(f), G.sq(s))),
                square=s)
    return rep


def _vlt3_lhs(t, u, w):
    """Staircase pasting for the lax structure square on a composite."""
    c = t.cod
    col1 = c.vcomp_sq(t.sq_v(u), c.sq_h_id(t.G.v(w)))
    col2 = c.vcomp_sq(c.sq_h_id(t.F.v(u)), t.sq_v(w))
    return c.hcomp_sq(col1, col2)


def _vot3_lhs(t, u, w):
    """Staircase pasting for the oplax structure square on a composite."""
    c = t.cod
    col1 = c.vcomp_sq(c.sq_h_id(t.F.v(u)), t.sq_v(w))
    col2 = c.vcomp_sq(t.sq_v(u), c.sq_h_id(t.G.v(w)))
    return c.hcomp_sq(col1, col2)


def check_modification(m):
    """Check the modification laws for the orientation pairing in use.

    Labels: m.ho-vl.-1/2 when the horizontal transformations are oplax and
    the vertical ones lax; m.hl-vo.-1/2 for the other pairing.
    """
    rep = ValidationReport()
    d, c = m.dom, m.cod
    for a in range(d.n_objects):
        try:
            s = m.at(a)
        except DblError as exc:
            rep.add("wf-component-missing", object=a, error=str(exc))
            continue
        want = (m.top.at(a), m.bottom.at(a), m.left.at(a), m.right.at(a))
        if c.sq_bounds[s] != want:
            rep.add("wf-component-boundary", object=a)
    if not rep.passed:
        return rep
    al, be = m.top, m.bottom
    al0, be0 = m.left, m.right
    hor_oplax = al.orientation == OPLAX
    for f in range(d.n_hcells):
        a, b = d.hsrc[f], d.htgt[f]
        if hor_oplax:
            _eq(rep, "m.ho-vl.-1",
                lambda f=f, b=b: c.vcomp_sq(
                    c.hcomp_sq(al0.sq_h(f), m.at(b)), be.delta_at(f)),
                lambda f=f, a=a: c.vcomp_sq(
                    al.delta_at(f), c.hcomp_sq(m.at(a), be0.sq_h(f))),
                hcell=f)
        else:
            _eq(rep, "m.hl-vo.-1",
                lambda f=f, b=b: c.vcomp_sq(
                    al.delta_at(f), c.hcomp_sq(al0.sq_h(f), m.at(b))),
                lambda f=f, a=a: c.vcomp_sq(
                    c.hcomp_sq(m.at(a), be0.sq_h(f)), be.delta_at(f)),
                hcell=f)
    for u in range(d.n_vcells):
        a, at_ = d.vsrc[u], d.vtgt[u]
        if hor_oplax:
            _eq(rep, "m.ho-vl.-2",
                lambda u=u, at_=at_: c.hcomp_sq(
                    al0.sq_v(u), c.vcomp_sq(al.sq_v(u), m.at(at_))),
                lambda u=u, a=a: c.hcomp_sq(
                    c.vcomp_sq(m.at(a), be.sq_v(u)), be0.sq_v(u)),
                vcell=u)
        else:
            _eq(rep, "m.hl-vo.-2",
                lambda u=u, at_=at_: c.hcomp_sq(
                    c.vcomp_sq(al.sq_v(u), m.at(at_)), be0.sq_v(u)),
                lambda u=u, a=a: c.hcomp_sq(
                    al0.sq_v(u), c.vcomp_sq(m.at(a), be.sq_v(u))),
                vcell=u)
    return rep


# -- composition ------------------------------------------------------------


def vcompose_hor(al, be):
    """Composite of horizontal transformations alpha: F => G, beta: G => H."""
    if not _same_functor(al.G, be.F):
        raise ChainMismatch("vcompose_hor needs alpha.G to be beta.F")
    if al.orientation != be.orientation:
        raise ChainMismatch("vcompose_hor needs matching orientations")
    d, c = al.dom, al.cod
    comp0 = {a: c.hcomp_h(al.at(a), be.at(a)) for a in range(d.n_objects)}
    comp_v = {u: c.hcomp_sq(al.sq_v(u), be.sq_v(u)) for u in range(d.n_vcells)}
    delta = {}
    for f in range(d.n_hcells):
        a, b = d.hsrc[f], d.htgt[f]
        if al.orientation == OPLAX:
            delta[f] = c.vcomp_sq(
                c.hcomp_sq(al.delta_at(f), c.sq_v_id(be.at(b))),
                c.hcomp_sq(c.sq_v_id(al.at(a)), be.delta_at(f)))
        else:
            delta[f] = c.vcomp_sq(
                c.hcomp_sq(c.sq_v_id(al.at(a)), be.delta_at(f)),
                c.hcomp_sq(al.delta_at(f), c.sq_v_id(be.at(b))))
    return HorTransform(al.F, be.G, comp0, comp_v, delta, al.orientation,
                        name="%s/%s" % (al.name, be.name))


def vcompose_vert(al, be):
    """Composite of vertical transformations alpha0: F => G, beta0: G => H."""
    if not _same_functor(al.G, be.F):
        raise ChainMismatch("vcompose_vert needs alpha.G to be beta.F")
    if al.orientation != be.orientation:
        raise ChainMismatch("vcompose_vert needs matching orientations")
    d, c = al.dom, al.cod
    comp0 = {a: c.vcomp_v(al.at(a), be.at(a)) for a in range(d.n_objects)}
    comp_h = {f: c.vcomp_sq(al.sq_h(f), be.sq_h(f)) for f in range(d.n_hcells)}
    comp_v = {}
    for u in range(d.n_vcells):
        a, at_ = d.vsrc[u], d.vtgt[u]
        if al.orientation == LAX:
            col1 = c.vcomp_sq(c.sq_h_id(al.at(a)), be.sq_v(u))
            col2 = c.vcomp_sq(al.sq_v(u), c.sq_h_id(be.at(at_)))
        else:
            col1 = c.vcomp_sq(al.sq_v(u), c.sq_h_id(be.at(at_)))
            col2 = c.vcomp_sq(c.sq_h_id(al.at(a)), be.sq_v(u))
        comp_v[u] = c.hcomp_sq(col1, col2)
    return VertTransform(al.F, be.G, comp0, comp_h, comp_v, al.orientation,
                         name="%s/%s" % (al.name, be.name))


def _same_transform(t1, t2):
    return t1 is t2 or (_same_functor(t1.F, t2.F)
                        and _same_functor(t1.G, t2.G)
                        and t1.orientation == t2.orientation
                        and t1.comp0 == t2.comp0)


def hcompose_modifications(m1, m2):
    """Paste modifications side by side along a shared vertical transformation."""
    if not _same_transform(m1.right, m2.left):
        raise ChainMismatch("hcompose_modifications needs a shared vertical edge")
    c = m1.cod
    comp = {a: c.hcomp_sq(m1.at(a), m2.at(a)) for a in range(m1.dom.n_objects)}
    return Modification(vcompose_hor(m1.top, m2.top),
                        vcompose_hor(m1.bottom, m2.bottom),
                        m1.left, m2.right, comp,
                        name="%s|%s" % (m1.name, m2.name))


def vcompose_modifications(m1, m2):
    """Stack modifications along a shared horizontal transformation."""
    if not _same_transform(m1.bottom, m2.top):
        raise ChainMismatch("vcompose_modifications needs a shared horizontal edge")
    c = m1.cod
    comp = {a: c.vcomp_sq(m1.at(a), m2.at(a)) for a in range(m1.dom.n_objects)}
    return Modification(m1.top, m2.bottom,
                        vcompose_vert(m1.left, m2.left),
                        vcompose_vert(m1.right, m2.right), comp,
                        name="%s/%s" % (m1.name, m2.name))


def _inv_or_raise(c, s):
    inv = c.vertical_inverse(s)
    if inv is None:
        raise NotPseudo("a compositor or unitor square is not invertible")
    return inv


def whisker_functor_hor(H, al):
    """Whisker a horizontal oplax transformation alpha: F => G with a
    pseudo functor H after it, giving H(alpha): HF => HG.

    The structure square conjugates H of the original structure square by
    H's compositors, so H must be pseudo.
    """
    if al.cod is not H.dom:
        raise ChainMismatch("whisker_functor_hor needs alpha.cod to be H.dom")
    if al.orientation != OPLAX:
        raise ChainMismatch("whiskering is implemented for the oplax orientation")
    from .functor import compose_lax
    d = al.dom
    e = H.cod
    HF = compose_lax(al.F, H)
    HG = compose_lax(al.G, H)
    comp0 = {a: H.h(al.at(a)) for a in range(d.n_objects)}
    comp_v = {u: H.sq(al.sq_v(u)) for u in range(d.n_vcells)}
    delta = {}
    for f in range(d.n_hcells):
        a, b = d.hsrc[f], d.htgt[f]
        delta[f] = e.vcomp_sq_many([
            H.compositor(al.F.h(f), al.at(b)),
            H.sq(al.delta_at(f)),
            _inv_or_raise(e, H.compositor(al.at(a), al.G.h(f)))])
    return HorTransform(HF, HG, comp0, comp_v, delta, OPLAX,
                        name="%s(%s)" % (H.name, al.name)), HF, HG


def hcompose_pseudo(al, be):
    """Horizontal composite of horizontal oplax transformations
    alpha: F => G (over A -> B) and beta: F' => G' (over B -> C), where F'
    is pseudo.  The result runs from F'F to G'G."""
    if al.cod is not be.dom:
        raise ChainMismatch("hcompose_pseudo needs alpha.cod to be beta.dom")
    wal, FpF, FpG = whisker_functor_hor(be.F, al)
    d, e = al.dom, be.cod
    from .functor import compose_lax
    GpG = compose_lax(al.G, be.G)
    comp0 = {a: e.hcomp_h(wal.at(a), be.at(al.G.obj(a)))
             for a in range(d.n_objects)}
    comp_v = {u: e.hcomp_sq(wal.sq_v(u), be.sq_v(al.G.v(u)))
              for u in range(d.n_vcells)}
    delta = {}
    for f in range(d.n_hcells):
        a, b = d.hsrc[f], d.htgt[f]
        delta[f] = e.vcomp_sq(
            e.hcomp_sq(wal.delta_at(f), e.sq_v_id(be.at(al.G.obj(b)))),
            e.hcomp_sq(e.sq_v_id(wal.at(a)), be.delta_at(al.G.h(f))))
    return HorTransform(FpF, GpG, comp0, comp_v, delta, OPLAX,
                        name="%s*%s" % (be.name, al.name))
