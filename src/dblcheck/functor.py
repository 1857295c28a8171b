"""Lax double functors between finite strict double categories.

A lax double functor maps cells kind-by-kind, strictly preserves the
vertical structure, and carries a compositor square for every composable
pair of horizontal 1-cells plus a unitor square for every object.  The
compositor for the pair (f, g), with f first, is a vertically globular
square from F(f) then F(g) down to F(f then g); the unitor for an object A
goes from the identity on F(A) down to F(1_A).
"""

import functools
from itertools import product

from .core import (
    CellMap, SquareField, ValidationReport, composable_pairs,
    composable_triples, flat_validation_steps, row_keys, square_partners,
    validate_double_category)
from .errors import DomainMismatch, MalformedTables


class LaxDoubleFunctor:
    """Cell maps plus compositor and unitor data.

    ob, hmap, vmap, sqmap are dicts from domain cell ids to codomain cell
    ids; comp maps composable pairs (f, g) of 1h-cells to squares; unit maps
    objects to squares.  When the codomain is flat, sqmap entries may be
    omitted and are derived from the image boundary.
    """

    def __init__(self, dom, cod, ob, hmap, vmap, sqmap=None,
                 comp=None, unit=None, name="F"):
        self.dom = dom
        self.cod = cod
        self.ob = dict(ob)
        self.hmap = dict(hmap)
        self.vmap = dict(vmap)
        self.sqmap = dict(sqmap or {})
        self.comp = dict(comp or {})
        self.unit = dict(unit or {})
        self.name = name

    def obj(self, a):
        return self.ob[a]

    def h(self, f):
        return self.hmap[f]

    def v(self, u):
        return self.vmap[u]

    def sq(self, s):
        try:
            return self.sqmap[s]
        except KeyError:
            pass
        return _derive_square(self.cod, self.sqmap, s, self._sq_bounds,
                              "a square's image")

    def _sq_bounds(self, s):
        """The boundary of the image of square s: its sides' images."""
        d = self.dom
        return (self.h(d.sq_top(s)), self.h(d.sq_bottom(s)),
                self.v(d.sq_left(s)), self.v(d.sq_right(s)))

    def _compositor_bounds(self, f, g):
        """From the composite of the images of f and g down to the image of
        their composite, between vertical identities."""
        d, c = self.dom, self.cod
        return (c.hcomp_h(self.h(f), self.h(g)), self.h(d.hcomp_h(f, g)),
                c.v_id(self.obj(d.hsrc[f])), c.v_id(self.obj(d.htgt[g])))

    def _unitor_bounds(self, a):
        """From the identity on the image of a down to the image of 1_a."""
        d, c = self.dom, self.cod
        b = self.obj(a)
        return c.h_id(b), self.h(d.h_id(a)), c.v_id(b), c.v_id(b)

    def compositor(self, f, g):
        try:
            return self.comp[f, g]
        except KeyError:
            raise MalformedTables(
                "compositor missing for a composable pair") from None

    def unitor(self, a):
        try:
            return self.unit[a]
        except KeyError:
            raise MalformedTables("unitor missing for an object") from None

    def __repr__(self):
        return "LaxDoubleFunctor(%s: %s -> %s)" % (
            self.name, self.dom.name, self.cod.name)


def identity_functor(d):
    """The identity functor, strict: identity compositors and unitors."""
    ids = lambda n: {x: x for x in range(n)}
    return strict_functor(d, d, ids(d.n_objects), ids(d.n_hcells),
                          ids(d.n_vcells), None if d.flat else ids(d.n_squares),
                          name="id_%s" % d.name)


def strict_functor(dom, cod, ob, hmap, vmap, sqmap=None, name="F"):
    """Wrap strictly functorial cell maps with identity compositors."""
    F = LaxDoubleFunctor(dom, cod, ob, hmap, vmap, sqmap, name=name)
    for f, g in composable_pairs(dom.hsrc, dom.htgt):
        F.comp[(f, g)] = cod.sq_v_id(cod.hcomp_h(F.h(f), F.h(g)))
    for a in range(dom.n_objects):
        F.unit[a] = cod.sq_v_id(cod.h_id(F.obj(a)))
    return F


def _derive_square(cod, store, key, bounds, what):
    """Over a flat codomain, the square with the boundary ``bounds(key)``,
    then stored; called for a key that is not stored yet."""
    if cod.flat:
        s = cod.find_square(*bounds(key))
        if s is None:
            raise MalformedTables("no codomain square for %s" % what)
        store[key] = s
        return s
    raise MalformedTables("%s missing and codomain not flat" % what)


# a functor's 1-cell maps and squares, as ``check_wellformed`` reads them
_CELL_MAPS = (
    CellMap("hmap", "hsrc", "htgt", "n_hcells", lambda F, f: (
        F.obj(F.dom.hsrc[f]), F.obj(F.dom.htgt[f])), "wf-hcell", "hcell"),
    CellMap("vmap", "vsrc", "vtgt", "n_vcells", lambda F, u: (
        F.obj(F.dom.vsrc[u]), F.obj(F.dom.vtgt[u])), "wf-vcell", "vcell"))
_SQUARE_FIELDS = (
    SquareField("sq", "_sq_bounds", lambda F: zip(F.dom.iter_squares()),
                "wf-square", ("square",), True),
    SquareField("compositor", "_compositor_bounds", lambda F: composable_pairs(
        F.dom.hsrc, F.dom.htgt), "wf-compositor", ("first", "second"), False),
    SquareField("unitor", "_unitor_bounds", lambda F: row_keys(
        F.dom.n_objects), "wf-unitor", ("object",), False))


def check_wellformed(F):
    """Boundary preservation of all cell maps and the extra square data."""
    rep = ValidationReport()
    d, c = F.dom, F.cod
    for a in range(d.n_objects):
        x = F.ob.get(a)
        if x is None or not 0 <= x < c.n_objects:
            rep.add("wf-object", object=a)
    if rep.passed:
        rep.expect_cells(F, c, _CELL_MAPS)
    if rep.passed:
        rep.expect_squares(F, c, _SQUARE_FIELDS)
    return rep


def check_lax_functor(F):
    """Exhaustive check of the lax double functor laws.

    Law labels: lx.f.v1 and lx.f.v2 (strictness on vertical 1-cells),
    lx.f.h1 and lx.f.h2 (strictness on vertical square composition),
    lx.f.hex (compositor associativity), lx.f.u (compositor unit),
    lx.f.c-nat (compositor naturality), lx.f.u-nat (unitor naturality).

    Flat reduction: in a flat double category a square is its boundary.
    When the domain and the codomain are flat and pass
    ``validate_double_category``, closure makes both sides of every square
    law exist, and once F is well formed and v1 and v2 hold, the 1-cell
    laws of the codomain give the two sides one boundary.  So h1, h2, hex,
    u, c-nat and u-nat hold, and a passing report lists them under
    ``reduced`` with their instance counts instead of evaluating them.
    This is tried only where those counts exceed a bound on the work of
    the validation.  Otherwise, and whenever a precondition fails, every
    instance is evaluated, so a failing report is the full catalogue's.
    """
    rep = check_wellformed(F)
    if not rep.passed:
        return rep
    counts = _reduction_counts(F)
    if counts is not None and _flat_categories_valid(F):
        head = ValidationReport()
        _lax_functor_laws(F, head.expect, "lx.f", square_laws=False)
        if head.passed:
            rep.reduced = counts
            return rep
    _lax_functor_laws(F, rep.expect, "lx.f")
    return rep


def _reduction_counts(F):
    """The instance counts of the square laws of F when F's domain and
    codomain are flat and the counts exceed a bound on the work of
    validating both; None otherwise."""
    d, c = F.dom, F.cod
    if not (c.flat and d.flat):
        return None
    # validating c visits every pair of its 1-cells of each kind, while d
    # has at most (nh nv)^2 squares, so at most twice that squared
    # composable pairs of them, and at most nh^3 composable triples: a
    # small domain goes back before either category is scanned
    nh, nv = d.n_hcells, d.n_vcells
    if (2 * (nh * nv) ** 4 + nh ** 3 + 3 * nh + nv
            <= c.n_hcells ** 2 + c.n_vcells ** 2):
        return None
    counts = _square_law_counts(d)
    work = flat_validation_steps(d)
    if c is not d:
        work += flat_validation_steps(c)
    return counts if sum(counts.values()) > work else None


def _square_law_counts(d):
    """The instance counts of the square laws of ``_lax_functor_laws`` on a
    functor out of the flat d, in closed form, in report order.  The scan
    interns no square, so square ids stay as the check assigns them."""
    _, _, h1, h2, hex_, unit, c_nat, u_nat = _law_labels("lx.f")
    beside, below = square_partners(list(d.iter_flat_boundaries()))
    horizontal, vertical = sum(map(len, beside)), sum(map(len, below))
    return {h1: vertical, h2: d.n_hcells,
            hex_: composable_triples(d.hsrc, d.htgt),
            unit: 2 * d.n_hcells, c_nat: horizontal, u_nat: d.n_vcells}


def _flat_categories_valid(F):
    """Both ends of F pass an exhaustive validation; one pass when they
    are the same category."""
    ends = (F.dom,) if F.dom is F.cod else (F.dom, F.cod)
    return all(validate_double_category(x).passed for x in ends)


@functools.lru_cache(maxsize=None)
def _law_labels(tag):
    return tuple("%s.%s" % (tag, law) for law in (
        "v1", "v2", "h1", "h2", "hex", "u", "c-nat", "u-nat"))


def _lax_functor_laws(F, emit, tag, square_laws=True):
    """Every lax functor law instance of F, in report order.

    The instances go out in rows, one ``emit(law, keys, lhs, rhs,
    witness)`` per run of consecutive instances of one law: ``keys``
    yields the instances' argument tuples, read lazily in report order;
    ``lhs`` and ``rhs`` are the two sides as functions of a key's
    entries, built once per law over F and its codomain; ``witness``
    names a failing instance's witness fields, the key's first entries.
    The checker evaluates the sides on concrete cells; the tensor
    presentation runs this catalogue on the generator families, whose
    codomain builds pasting terms, and stores the instances as relations.
    With ``square_laws=False`` only the 1-cell laws v1 and v2 are emitted.
    """
    d, c = F.dom, F.cod
    v1, v2, h1, h2, hex_, unit, c_nat, u_nat = _law_labels(tag)
    emit(v1, composable_pairs(d.vsrc, d.vtgt),
         lambda u, w: F.v(d.vcomp_v(u, w)),
         lambda u, w: c.vcomp_v(F.v(u), F.v(w)), ("first", "second"))
    emit(v2, row_keys(d.n_objects),
         lambda a: F.v(d.v_id(a)), lambda a: c.v_id(F.obj(a)), ("object",))
    if not square_laws:
        return
    # a flat d lists its squares in scan order, which the pairs keep
    squares = list(d.iter_squares())
    beside, below = square_partners([d.sq_bounds[s] for s in squares])
    emit(h1, ((s1, squares[j]) for i, s1 in enumerate(squares)
              for j in below[i]),
         lambda s1, s2: F.sq(d.vcomp_sq(s1, s2)),
         lambda s1, s2: c.vcomp_sq(F.sq(s1), F.sq(s2)), ("top", "bottom"))
    emit(h2, row_keys(d.n_hcells),
         lambda f: F.sq(d.sq_v_id(f)), lambda f: c.sq_v_id(F.h(f)),
         ("hcell",))
    emit(hex_, ((f, g, h) for f, g in composable_pairs(d.hsrc, d.htgt)
                for h in range(d.n_hcells) if d.htgt[g] == d.hsrc[h]),
         lambda f, g, h: c.vcomp_sq(
             c.hcomp_sq(F.compositor(f, g), c.sq_v_id(F.h(h))),
             F.compositor(d.hcomp_h(f, g), h)),
         lambda f, g, h: c.vcomp_sq(
             c.hcomp_sq(c.sq_v_id(F.h(f)), F.compositor(g, h)),
             F.compositor(f, d.hcomp_h(g, h))),
         ("first", "second", "third"))

    def unit_side(f, side):
        if side == "left":
            a = d.hsrc[f]
            return c.vcomp_sq(c.hcomp_sq(F.unitor(a), c.sq_v_id(F.h(f))),
                              F.compositor(d.h_id(a), f))
        b = d.htgt[f]
        return c.vcomp_sq(c.hcomp_sq(c.sq_v_id(F.h(f)), F.unitor(b)),
                          F.compositor(f, d.h_id(b)))
    emit(unit, product(range(d.n_hcells), ("left", "right")),
         unit_side, lambda f, side: c.sq_v_id(F.h(f)), ("hcell", "side"))
    emit(c_nat, ((s1, squares[j]) for i, s1 in enumerate(squares)
                 for j in beside[i]),
         lambda s1, s2: c.vcomp_sq(
             c.hcomp_sq(F.sq(s1), F.sq(s2)),
             F.compositor(d.sq_bottom(s1), d.sq_bottom(s2))),
         lambda s1, s2: c.vcomp_sq(
             F.compositor(d.sq_top(s1), d.sq_top(s2)),
             F.sq(d.hcomp_sq(s1, s2))),
         ("left", "right"))
    emit(u_nat, row_keys(d.n_vcells),
         lambda u: c.vcomp_sq(c.sq_h_id(F.v(u)), F.unitor(d.vtgt[u])),
         lambda u: c.vcomp_sq(F.unitor(d.vsrc[u]), F.sq(d.sq_h_id(u))),
         ("vcell",))


def is_unitary(F):
    """True when every unitor square is vertically invertible."""
    c = F.cod
    for a in range(F.dom.n_objects):
        if c.vertical_inverse(F.unitor(a)) is None:
            return False
    return True


def is_pseudo(F):
    """True when every unitor and compositor square is vertically invertible."""
    if not is_unitary(F):
        return False
    d, c = F.dom, F.cod
    for f, g in composable_pairs(d.hsrc, d.htgt):
        if c.vertical_inverse(F.compositor(f, g)) is None:
            return False
    return True


def is_strict(F):
    """True when every unitor and compositor square is an identity square."""
    d, c = F.dom, F.cod
    for a in range(d.n_objects):
        if F.unitor(a) != c.sq_v_id(c.h_id(F.obj(a))):
            return False
    for f, g in composable_pairs(d.hsrc, d.htgt):
        if F.compositor(f, g) != c.sq_v_id(c.hcomp_h(F.h(f), F.h(g))):
            return False
    return True


def compose_lax(F, G):
    """The composite functor "F then G" of F: C -> D and G: D -> E."""
    if F.cod is not G.dom:
        raise DomainMismatch("compose_lax needs F.cod to be G.dom")
    d, e = F.dom, G.cod
    ob = {a: G.obj(F.obj(a)) for a in range(d.n_objects)}
    hmap = {f: G.h(F.h(f)) for f in range(d.n_hcells)}
    vmap = {u: G.v(F.v(u)) for u in range(d.n_vcells)}
    sqmap = {s: G.sq(F.sq(s)) for s in d.iter_squares()}
    comp = {}
    for f, g in composable_pairs(d.hsrc, d.htgt):
        comp[(f, g)] = e.vcomp_sq(G.compositor(F.h(f), F.h(g)),
                                  G.sq(F.compositor(f, g)))
    unit = {a: e.vcomp_sq(G.unitor(F.obj(a)), G.sq(F.unitor(a)))
            for a in range(d.n_objects)}
    return LaxDoubleFunctor(d, e, ob, hmap, vmap, sqmap, comp, unit,
                            name="%s;%s" % (F.name, G.name))


def functor_equal(F, G):
    """Componentwise equality of two functors with the same boundary."""
    if F.dom is not G.dom or F.cod is not G.cod:
        return False
    d = F.dom
    if any(F.obj(a) != G.obj(a) for a in range(d.n_objects)):
        return False
    if any(F.h(f) != G.h(f) for f in range(d.n_hcells)):
        return False
    if any(F.v(u) != G.v(u) for u in range(d.n_vcells)):
        return False
    if any(F.sq(s) != G.sq(s) for s in d.iter_squares()):
        return False
    for f, g in composable_pairs(d.hsrc, d.htgt):
        if F.compositor(f, g) != G.compositor(f, g):
            return False
    return all(F.unitor(a) == G.unitor(a) for a in range(d.n_objects))
