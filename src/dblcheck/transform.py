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

Each law is written once for both orientations.  A lax law is its oplax
twin with two pastings swapped; the vertical naturality law and the
modification laws also swap their two sides.  The tables
``_HOR_PASTINGS``, ``_VERT_PASTINGS`` and ``_MODIFICATION_PASTINGS`` give
each orientation its labels and the order of each swapped pair, so a check
looks its orientation up once and then emits one instance per loop step;
``vcompose_hor`` and ``vcompose_vert`` order the two factors of a
composite structure square from ``_COMPOSITE_FACTORS`` the same way.

``TRANSFORM_KINDS`` gives each kind its tag (its flavor field in
``hom.HomFlavor`` and its document kind), its orientation in the flavor
``hop``, its law catalogue, its checker and its square fields in
constructor order, the component squares, then the structure squares:
``sq_v``/``delta_at`` for horizontal and ``sq_h``/``sq_v`` for vertical
transformations.  A field names its accessor and bounds method, the
domain cells indexing it (``h`` or ``v``), its ``wf-`` label and witness
key, and the attribute storing it; the structure field's cells are the
components'.  Every dispatch on the kind outside this module reads the
table, which sits below the checkers and is read only at call time.
``transform_equal`` compares the cells ``_transform_key`` files under.
"""

from collections import namedtuple
from operator import attrgetter

from .core import (
    CellMap, SquareField, ValidationReport, composable_pairs, row_keys)
from .errors import ChainMismatch, NotPseudo
from .functor import _derive_square, functor_equal

OPLAX = "oplax"
LAX = "lax"


def _same_frame(F, G):
    if F.dom is not G.dom or F.cod is not G.cod:
        raise ChainMismatch("transformation endpoints must be parallel functors")


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
        try:
            return self.comp_v[u]
        except KeyError:
            pass
        return _derive_square(self.cod, self.comp_v, u, self._sq_v_bounds,
                              "component square")

    def _sq_v_bounds(self, u):
        d = self.dom
        return (self.at(d.vsrc[u]), self.at(d.vtgt[u]),
                self.F.v(u), self.G.v(u))

    def delta_at(self, f):
        """The globular structure square on a 1h-cell f."""
        try:
            return self.delta[f]
        except KeyError:
            pass
        return _derive_square(self.cod, self.delta, f, self._delta_bounds,
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
        try:
            return self.comp_h[f]
        except KeyError:
            pass
        return _derive_square(self.cod, self.comp_h, f, self._sq_h_bounds,
                              "component square")

    def _sq_h_bounds(self, f):
        d = self.dom
        return (self.F.h(f), self.G.h(f),
                self.at(d.hsrc[f]), self.at(d.htgt[f]))

    def sq_v(self, u):
        try:
            return self.comp_v[u]
        except KeyError:
            pass
        return _derive_square(self.cod, self.comp_v, u, self._sq_v_bounds,
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
        if not (functor_equal(top.F, left.F) and functor_equal(top.G, right.F)
                and functor_equal(bottom.F, left.G)
                and functor_equal(bottom.G, right.G)):
            raise ChainMismatch("modification corners do not close")
        self.top, self.bottom = top, bottom
        self.left, self.right = left, right
        self.comp = dict(comp)
        self.name = name
        self.dom, self.cod = top.dom, top.cod

    def at(self, a):
        try:
            return self.comp[a]
        except KeyError:
            pass
        return _derive_square(self.cod, self.comp, a, self._bounds,
                              "a component")

    def _bounds(self, a):
        """The component's boundary: the four transformations' components."""
        return (self.top.at(a), self.bottom.at(a),
                self.left.at(a), self.right.at(a))

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


def _check(t, laws):
    """The 1-cell maps and then the squares of t that ``_WELLFORMED`` names,
    then the catalogue ``laws``: each step once the ones before it pass."""
    (maps, fields), rep = _WELLFORMED[type(t)], ValidationReport()
    rep.expect_cells(t, t.cod, maps)
    if rep.passed:
        rep.expect_squares(t, t.cod, fields)
    if rep.passed:
        laws(t, rep.expect)
    return rep


def check_hor_transform(t):
    """Check the horizontal transformation laws for either orientation.

    Labels: h.o.t.-1/2 (oplax coherence with compositors and unitors) or
    h.l.t.-1/2 for the lax orientation; h.o.t.-3/4 (vertical functoriality
    of the component squares, shared by both orientations); h.o.t.-5 or
    h.l.t.-5 (naturality over arbitrary squares).
    """
    return _check(t, _hor_transform_laws)


def _hor_pastings():
    """Per orientation, the labels of the horizontal laws that differ and
    their swapped pairs.  Each pair holds the F-side and the G-side
    pasting, in oplax order: the compositor terms and the structure-square
    columns of h.*-1, the unitor terms of h.*-2 and the naturality
    pastings of h.*-5."""
    pairs = (
        (lambda t, f, g: t.cod.hcomp_sq(
            t.F.compositor(f, g), t.cod.sq_v_id(t.at(t.dom.htgt[g]))),
         lambda t, f, g: t.cod.hcomp_sq(
             t.cod.sq_v_id(t.at(t.dom.hsrc[f])), t.G.compositor(f, g))),
        (lambda t, f, g: t.cod.hcomp_sq(
            t.cod.sq_v_id(t.F.h(f)), t.delta_at(g)),
         lambda t, f, g: t.cod.hcomp_sq(
             t.delta_at(f), t.cod.sq_v_id(t.G.h(g)))),
        (lambda t, a: t.cod.hcomp_sq(t.F.unitor(a), t.cod.sq_v_id(t.at(a))),
         lambda t, a: t.cod.hcomp_sq(t.cod.sq_v_id(t.at(a)), t.G.unitor(a))),
        (lambda t, s: t.cod.hcomp_sq(t.F.sq(s), t.sq_v(t.dom.sq_right(s))),
         lambda t, s: t.cod.hcomp_sq(t.sq_v(t.dom.sq_left(s)), t.G.sq(s))))
    return {OPLAX: (("h.o.t.-1", "h.o.t.-2", "h.o.t.-5"), pairs),
            LAX: (("h.l.t.-1", "h.l.t.-2", "h.l.t.-5"),
                  tuple(pair[::-1] for pair in pairs))}


_HOR_PASTINGS = _hor_pastings()


def _hor_transform_laws(t, emit):
    """Every horizontal transformation law instance of t, in report order,
    emitted in rows as in ``functor._lax_functor_laws``."""
    d, c = t.dom, t.cod
    ((h1, h2, h5), ((comp1, comp2), (col1, col2), (unit1, unit2),
                    (nat1, nat2))) = _HOR_PASTINGS[t.orientation]
    emit(h1, composable_pairs(d.hsrc, d.htgt),
         lambda f, g: c.vcomp_sq(comp1(t, f, g),
                                 t.delta_at(d.hcomp_h(f, g))),
         lambda f, g: c.vcomp_sq_many(
             [col1(t, f, g), col2(t, f, g), comp2(t, f, g)]),
         ("first", "second"))
    emit(h2, row_keys(d.n_objects),
         lambda a: c.vcomp_sq(unit1(t, a), t.delta_at(d.h_id(a))),
         lambda a: unit2(t, a), ("object",))
    emit("h.o.t.-3", composable_pairs(d.vsrc, d.vtgt),
         lambda u, w: t.sq_v(d.vcomp_v(u, w)),
         lambda u, w: c.vcomp_sq(t.sq_v(u), t.sq_v(w)), ("first", "second"))
    emit("h.o.t.-4", row_keys(d.n_objects),
         lambda a: t.sq_v(d.v_id(a)), lambda a: c.sq_v_id(t.at(a)),
         ("object",))
    emit(h5, zip(d.iter_squares()),
         lambda s: c.vcomp_sq(nat1(t, s), t.delta_at(d.sq_bottom(s))),
         lambda s: c.vcomp_sq(t.delta_at(d.sq_top(s)), nat2(t, s)),
         ("square",))


def check_vert_transform(t):
    """Check the vertical transformation laws for either orientation.

    Labels: v.l.t.-1/2 (coherence with compositors and unitors, shared),
    v.l.t.-3 or v.o.t.-3 (vertical functoriality of the structure squares),
    v.l.t.-4 (structure on identities, shared), v.l.t.-5 or v.o.t.-5
    (naturality over arbitrary squares).
    """
    return _check(t, _vert_transform_laws)


def _vert_pastings():
    """Per orientation, the labels of the vertical laws that differ, the
    two columns of v.*-3 (structure squares over identities, in lax order)
    and the factors of the two sides of v.*-5, which pastes the F side,
    F(s) over the bottom component, and the G side, the top component over
    G(s), each beside a structure square."""
    columns = (
        lambda t, u, w: t.cod.vcomp_sq(t.sq_v(u), t.cod.sq_h_id(t.G.v(w))),
        lambda t, u, w: t.cod.vcomp_sq(t.cod.sq_h_id(t.F.v(u)), t.sq_v(w)))
    side_f = lambda t, s: t.cod.vcomp_sq(t.F.sq(s), t.sq_h(t.dom.sq_bottom(s)))
    side_g = lambda t, s: t.cod.vcomp_sq(t.sq_h(t.dom.sq_top(s)), t.G.sq(s))
    left = lambda t, s: t.sq_v(t.dom.sq_left(s))
    right = lambda t, s: t.sq_v(t.dom.sq_right(s))
    return {LAX: (("v.l.t.-3", "v.l.t.-5"), columns,
                  ((left, side_f), (side_g, right))),
            OPLAX: (("v.o.t.-3", "v.o.t.-5"), columns[::-1],
                    ((side_f, right), (left, side_g)))}


_VERT_PASTINGS = _vert_pastings()


def _vert_transform_laws(t, emit):
    """Every vertical transformation law instance of t, in report order,
    emitted in rows as in ``functor._lax_functor_laws``."""
    d, c = t.dom, t.cod
    F, G = t.F, t.G
    ((v3, v5), (col1, col2),
     ((l1, l2), (r1, r2))) = _VERT_PASTINGS[t.orientation]
    emit("v.l.t.-1", composable_pairs(d.hsrc, d.htgt),
         lambda f, g: c.vcomp_sq(c.hcomp_sq(t.sq_h(f), t.sq_h(g)),
                                 G.compositor(f, g)),
         lambda f, g: c.vcomp_sq(F.compositor(f, g), t.sq_h(d.hcomp_h(f, g))),
         ("first", "second"))
    emit("v.l.t.-2", row_keys(d.n_objects),
         lambda a: c.vcomp_sq(F.unitor(a), t.sq_h(d.h_id(a))),
         lambda a: c.vcomp_sq(c.sq_h_id(t.at(a)), G.unitor(a)), ("object",))
    emit(v3, composable_pairs(d.vsrc, d.vtgt),
         lambda u, w: c.hcomp_sq(col1(t, u, w), col2(t, u, w)),
         lambda u, w: t.sq_v(d.vcomp_v(u, w)), ("first", "second"))
    emit("v.l.t.-4", row_keys(d.n_objects),
         lambda a: t.sq_v(d.v_id(a)), lambda a: c.sq_h_id(t.at(a)),
         ("object",))
    emit(v5, zip(d.iter_squares()),
         lambda s: c.hcomp_sq(l1(t, s), l2(t, s)),
         lambda s: c.hcomp_sq(r1(t, s), r2(t, s)), ("square",))


class _Field(namedtuple("_Field", "accessor bounds cells label key store")):
    """A square field of a transformation kind: the names of its accessor
    and bounds methods, the domain cells indexing it (``"h"`` or ``"v"``),
    its ``wf-`` label and witness key, and the attribute storing it."""
    __slots__ = ()

    def domain(self, d):
        return range(d.n_hcells if self.cells == "h" else d.n_vcells)

    def keys(self, t):
        """The keys of the square-field pass on t."""
        return zip(self.domain(t.dom))


class _Kind(namedtuple("_Kind", "cls tag hop fields laws check")):
    __slots__ = ()

    @property
    def cells(self):
        """The components' cells, ``"h"`` or ``"v"``: the structure field's."""
        return self.fields[1].cells


TRANSFORM_KINDS = {kind.cls: kind for kind in (
    _Kind(HorTransform, "hor", OPLAX, (
        _Field("sq_v", "_sq_v_bounds", "v", "square", "vcell", "comp_v"),
        _Field("delta_at", "_delta_bounds", "h", "structure", "hcell",
               "delta")), _hor_transform_laws, check_hor_transform),
    _Kind(VertTransform, "vert", LAX, (
        _Field("sq_h", "_sq_h_bounds", "h", "square", "hcell", "comp_h"),
        _Field("sq_v", "_sq_v_bounds", "v", "structure", "vcell",
               "comp_v")), _vert_transform_laws, check_vert_transform))}


# per class, the 1-cell maps and square fields ``_check`` reads: a
# transformation's components run from F's image of their object to G's,
# and a derived square's witness carries ``error``
_WELLFORMED = {kind.cls: ((CellMap(
    "comp0", kind.cells + "src", kind.cells + "tgt", "n_objects",
    lambda t, a: (t.F.obj(a), t.G.obj(a)), "wf-component", "object"),),
    tuple(SquareField(
        f.accessor, f.bounds, f.keys, "wf-" + f.label, (f.key,), True)
        for f in kind.fields)) for kind in TRANSFORM_KINDS.values()}
_WELLFORMED[Modification] = ((), (SquareField(
    "at", "_bounds", lambda m: row_keys(m.dom.n_objects), "wf-component",
    ("object",), True),))


def field_squares(t):
    """The squares of t on the domain cells of its kind's two fields, in
    table order; written out, since a loop would cost the keys a generator."""
    d = t.dom
    first, second = TRANSFORM_KINDS[type(t)].fields
    return (tuple(map(getattr(t, first.accessor), first.domain(d))),
            tuple(map(getattr(t, second.accessor), second.domain(d))))


def _transform_key(t, ends=()):
    """t's kind's tag, ``ends`` (a hom's cells of t's functors), t's
    orientation, components and field squares: a hom files t under it."""
    return ((TRANSFORM_KINDS[type(t)].tag,) + ends
            + (t.orientation, tuple(map(t.at, range(t.dom.n_objects))))
            + field_squares(t))


# per class, what a transformation stores: its orientation and its dicts
_STORED = {kind.cls: attrgetter("orientation", "comp0", *(
    f.store for f in kind.fields)) for kind in TRANSFORM_KINDS.values()}


def transform_equal(t1, t2):
    """Whether t1 and t2 are one cell: of one class, between equal
    functors, with equal ``_transform_key``s.  Equal stored dicts, met by
    most chain checks in a hom, decide it first: they fix every square."""
    stored = _STORED[type(t1)]
    return t1 is t2 or (
        type(t1) is type(t2) and functor_equal(t1.F, t2.F)
        and functor_equal(t1.G, t2.G)
        and (stored(t1) == stored(t2)
             or _transform_key(t1) == _transform_key(t2)))


def check_modification(m):
    """Check the modification laws for the orientation pairing in use.

    Labels: m.ho-vl.-1/2 when the horizontal transformations are oplax and
    the vertical ones lax; m.hl-vo.-1/2 for the other pairing.
    """
    return _check(m, _modification_laws)


def _modification_pastings():
    """Per horizontal orientation, the labels of the modification laws and
    the factors of their sides.  Each law pastes the component at one end
    of a cell with the left transformation's square (the top pasting) and
    the component at the other end with the right one's (the bottom
    pasting), each beside a structure square of the horizontal ones."""
    top1 = lambda m, f: m.cod.hcomp_sq(m.left.sq_h(f), m.at(m.dom.htgt[f]))
    bottom1 = lambda m, f: m.cod.hcomp_sq(m.at(m.dom.hsrc[f]), m.right.sq_h(f))
    top2 = lambda m, u: m.cod.vcomp_sq(m.top.sq_v(u), m.at(m.dom.vtgt[u]))
    bottom2 = lambda m, u: m.cod.vcomp_sq(m.at(m.dom.vsrc[u]), m.bottom.sq_v(u))
    above = lambda m, f: m.top.delta_at(f)
    below = lambda m, f: m.bottom.delta_at(f)
    left = lambda m, u: m.left.sq_v(u)
    right = lambda m, u: m.right.sq_v(u)
    return {OPLAX: (("m.ho-vl.-1", "m.ho-vl.-2"),
                    ((top1, below), (above, bottom1)),
                    ((left, top2), (bottom2, right))),
            LAX: (("m.hl-vo.-1", "m.hl-vo.-2"),
                  ((above, top1), (bottom1, below)),
                  ((top2, right), (left, bottom2)))}


_MODIFICATION_PASTINGS = _modification_pastings()


def _modification_laws(m, emit):
    """Every modification law instance of m, in report order, emitted in
    rows as in ``functor._lax_functor_laws``."""
    d, c = m.dom, m.cod
    ((m1, m2), ((l1, l2), (r1, r2)),
     ((k1, k2), (s1, s2))) = _MODIFICATION_PASTINGS[m.top.orientation]
    emit(m1, row_keys(d.n_hcells),
         lambda f: c.vcomp_sq(l1(m, f), l2(m, f)),
         lambda f: c.vcomp_sq(r1(m, f), r2(m, f)), ("hcell",))
    emit(m2, row_keys(d.n_vcells),
         lambda u: c.hcomp_sq(k1(m, u), k2(m, u)),
         lambda u: c.hcomp_sq(s1(m, u), s2(m, u)), ("vcell",))


# -- composition ------------------------------------------------------------


def _composite_factors():
    """The two factors of a composite structure square per orientation:
    for horizontal transformations the rows, alpha's on top when oplax,
    for vertical ones the columns, beta's on the left when lax."""
    rows = (lambda al, be, f: al.cod.hcomp_sq(
                al.delta_at(f), al.cod.sq_v_id(be.at(al.dom.htgt[f]))),
            lambda al, be, f: al.cod.hcomp_sq(
                al.cod.sq_v_id(al.at(al.dom.hsrc[f])), be.delta_at(f)))
    columns = (lambda al, be, u: al.cod.vcomp_sq(
                   al.cod.sq_h_id(al.at(al.dom.vsrc[u])), be.sq_v(u)),
               lambda al, be, u: al.cod.vcomp_sq(
                   al.sq_v(u), al.cod.sq_h_id(be.at(al.dom.vtgt[u]))))
    return {OPLAX: (rows, columns[::-1]), LAX: (rows[::-1], columns)}


_COMPOSITE_FACTORS = _composite_factors()


def vcompose_hor(al, be):
    """Composite of horizontal transformations alpha: F => G, beta: G => H."""
    if not functor_equal(al.G, be.F):
        raise ChainMismatch("vcompose_hor needs alpha.G to be beta.F")
    if al.orientation != be.orientation:
        raise ChainMismatch("vcompose_hor needs matching orientations")
    d, c = al.dom, al.cod
    comp0 = {a: c.hcomp_h(al.at(a), be.at(a)) for a in range(d.n_objects)}
    comp_v = {u: c.hcomp_sq(al.sq_v(u), be.sq_v(u)) for u in range(d.n_vcells)}
    upper, lower = _COMPOSITE_FACTORS[al.orientation][0]
    delta = {f: c.vcomp_sq(upper(al, be, f), lower(al, be, f))
             for f in range(d.n_hcells)}
    return HorTransform(al.F, be.G, comp0, comp_v, delta, al.orientation,
                        name="%s/%s" % (al.name, be.name))


def vcompose_vert(al, be):
    """Composite of vertical transformations alpha0: F => G, beta0: G => H."""
    if not functor_equal(al.G, be.F):
        raise ChainMismatch("vcompose_vert needs alpha.G to be beta.F")
    if al.orientation != be.orientation:
        raise ChainMismatch("vcompose_vert needs matching orientations")
    d, c = al.dom, al.cod
    comp0 = {a: c.vcomp_v(al.at(a), be.at(a)) for a in range(d.n_objects)}
    comp_h = {f: c.vcomp_sq(al.sq_h(f), be.sq_h(f)) for f in range(d.n_hcells)}
    left, right = _COMPOSITE_FACTORS[al.orientation][1]
    comp_v = {u: c.hcomp_sq(left(al, be, u), right(al, be, u))
              for u in range(d.n_vcells)}
    return VertTransform(al.F, be.G, comp0, comp_h, comp_v, al.orientation,
                         name="%s/%s" % (al.name, be.name))


def hcompose_modifications(m1, m2, top=None, bottom=None):
    """Paste modifications side by side along a shared vertical
    transformation.  ``top`` and ``bottom`` are the composites of the two
    tops and of the two bottoms, for a caller that holds them already;
    left out, they are composed here.  Either way the corners must close."""
    if not transform_equal(m1.right, m2.left):
        raise ChainMismatch("hcompose_modifications needs a shared vertical edge")
    c = m1.cod
    comp = {a: c.hcomp_sq(m1.at(a), m2.at(a)) for a in range(m1.dom.n_objects)}
    if top is None:
        top = vcompose_hor(m1.top, m2.top)
    if bottom is None:
        bottom = vcompose_hor(m1.bottom, m2.bottom)
    return Modification(top, bottom, m1.left, m2.right, comp,
                        name="%s|%s" % (m1.name, m2.name))


def vcompose_modifications(m1, m2, left=None, right=None):
    """Stack modifications along a shared horizontal transformation;
    ``left`` and ``right`` as the frame in ``hcompose_modifications``."""
    if not transform_equal(m1.bottom, m2.top):
        raise ChainMismatch("vcompose_modifications needs a shared horizontal edge")
    c = m1.cod
    comp = {a: c.vcomp_sq(m1.at(a), m2.at(a)) for a in range(m1.dom.n_objects)}
    if left is None:
        left = vcompose_vert(m1.left, m2.left)
    if right is None:
        right = vcompose_vert(m1.right, m2.right)
    return Modification(m1.top, m2.bottom, left, right, comp,
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
    wal, FpF, _ = whisker_functor_hor(be.F, al)
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
