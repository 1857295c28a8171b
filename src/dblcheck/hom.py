"""Hom double categories of functors, transformations and modifications.

For double categories B and C, the hom double category has lax double
functors B -> C as objects, horizontal transformations as 1h-cells,
vertical transformations as 1v-cells, and modifications as squares.  The
flavor fixes the orientations (horizontal oplax with vertical lax by
default, or the swapped pairing) and may restrict the 1v-cells to strict
vertical transformations or the objects to unitary functors.

Cells are interned on demand: the category starts empty and grows as
functors and transformations are added or produced by composition.  Every
cell keeps its semantic payload, so composition is computed on payloads
and deduplicated through a canonical key.  ``InternedDoubleCat`` holds
that scheme once; ``HomDoubleCat`` here and ``quasi.QHomDoubleCat`` add
only their keys, endpoints, identities and payload compositions.
"""

from heapq import merge
from itertools import product as iproduct

from .core import (
    DoubleCat, FrozenRecord, ValidationReport, composable_pairs, init_field)
from .errors import EnumerationBound, NotHomCodomain
from .functor import LaxDoubleFunctor, check_lax_functor, is_unitary
from .transform import (
    LAX, OPLAX, TRANSFORM_KINDS, HorTransform, Modification, VertTransform,
    check_hor_transform, check_modification, check_vert_transform,
    field_squares, hcompose_modifications, identity_hor_transform,
    identity_modification, identity_vert_transform, vcompose_hor,
    vcompose_modifications, vcompose_vert)


class HomFlavor(FrozenRecord):
    """Orientation and restriction choices for a hom double category."""
    __slots__ = ("hor", "vert", "vert_strict", "unitary_only")

    def __init__(self, hor=OPLAX, vert=LAX, vert_strict=False,
                 unitary_only=False):
        init_field(self, "hor", hor)
        init_field(self, "vert", vert)
        init_field(self, "vert_strict", vert_strict)
        init_field(self, "unitary_only", unitary_only)


HOP = HomFlavor()
HOP_STAR = HomFlavor(hor=LAX, vert=OPLAX)
ST = HomFlavor(vert_strict=True)
ST_U = HomFlavor(vert_strict=True, unitary_only=True)

FLAVORS = {"hop": HOP, "hop*": HOP_STAR, "st": ST, "st-u": ST_U}


def _functor_key(F):
    d = F.dom
    return ("functor",
            tuple(F.obj(a) for a in range(d.n_objects)),
            tuple(F.h(f) for f in range(d.n_hcells)),
            tuple(F.v(u) for u in range(d.n_vcells)),
            tuple(F.sq(s) for s in d.iter_squares()),
            tuple(sorted(F.comp.items())),
            tuple(sorted(F.unit.items())))


def _vert_identity_square(t, orientation):
    """The horizontal identity square on a vertical transformation t, with
    identity horizontal transformations of this orientation on top and
    bottom."""
    top = identity_hor_transform(t.F, orientation)
    bottom = identity_hor_transform(t.G, orientation)
    comp = {a: t.cod.sq_h_id(t.at(a)) for a in range(t.dom.n_objects)}
    return Modification(top, bottom, t, t, comp, name="id^%s" % t.name)


# the four kinds of cell, indexing InternedDoubleCat's payload lists
OBJ, HOR, VERT, SQ = range(4)


class InternedDoubleCat(DoubleCat):
    """A lazily populated double category whose cells carry payloads.

    Each cell keeps its semantic payload (a functor, a transformation or a
    modification) and is interned under a canonical key, so composites
    computed on payloads deduplicate onto existing cells.  A subclass
    supplies ``_key(kind, payload, bounds)``, the endpoints ``_ends`` of a
    1-cell payload, the identity 1-cell payloads ``_id_payload(kind, x)``
    on an object payload, the identity squares ``_sq_v_id_payload`` and
    ``_sq_h_id_payload`` on a 1-cell payload, and the payload compositions
    ``_hh_op``, ``_vv_op``, ``_hs_op`` and ``_vs_op`` behind the tables
    ``_hh``, ``_vv``, ``_hs`` and ``_vs``.

    A square composite reads its frame from the tables: the composites of
    its operands' tops and bottoms (or lefts and rights) are cells of
    ``_hh`` (or ``_vv``), whose payloads ``_hs_op`` (or ``_vs_op``) takes
    as the frame instead of composing it again, and the composite is
    interned under those known bounds.
    """

    def __init__(self, name):
        super().__init__(name)
        self.obj_payload = []
        self.h_payload = []
        self.v_payload = []
        self.sq_payload = []
        self._payloads = (self.obj_payload, self.h_payload, self.v_payload,
                          self.sq_payload)
        self._keys = {}
        # stored payload -> its cell; sound because a payload is never
        # mutated once interned, so its key stays the one it was filed under
        self._cells = {}

    def _intern(self, kind, x, identity_of=None, bounds=None):
        """The cell of payload x, found by object, then by key, else added.
        ``bounds`` are the cells of x's ends or frame, for a caller that
        knows them; left out, they are interned from x."""
        cell = self._cells.get(x)
        if cell is not None:
            return cell
        if bounds is None:
            if kind == OBJ:
                bounds = ()
            elif kind == SQ:
                bounds = (self._intern(HOR, x.top), self._intern(HOR, x.bottom),
                          self._intern(VERT, x.left),
                          self._intern(VERT, x.right))
            else:
                bounds = tuple(self._intern(OBJ, e) for e in self._ends(x))
        key = self._key(kind, x, bounds)
        cell = self._keys.get(key)
        if cell is not None:
            return cell
        if kind == OBJ:
            cell = self.add_object(x.name)
        elif kind == SQ:
            cell = self.add_square(x.name, *bounds)
        else:
            add = self.add_hcell if kind == HOR else self.add_vcell
            cell = add(x.name, *bounds, identity_of=identity_of)
        self._payloads[kind].append(x)
        self._keys[key] = cell
        self._cells[x] = cell
        if kind == OBJ:
            for k in (HOR, VERT):
                self._intern(k, self._id_payload(k, x), identity_of=cell)
        return cell

    # -- composition through payloads --------------------------------------

    def hcomp_h(self, f, g):
        try:
            return self._hh[f, g]
        except KeyError:
            pass
        h = self._hh[f, g] = self._intern(HOR, self._hh_op(
            self.h_payload[f], self.h_payload[g]))
        return h

    def vcomp_v(self, u, w):
        try:
            return self._vv[u, w]
        except KeyError:
            pass
        x = self._vv[u, w] = self._intern(VERT, self._vv_op(
            self.v_payload[u], self.v_payload[w]))
        return x

    def hcomp_sq(self, s1, s2):
        try:
            return self._hs[s1, s2]
        except KeyError:
            pass
        top1, bottom1, left, _ = self.sq_bounds[s1]
        top2, bottom2, _, right = self.sq_bounds[s2]
        top = self.hcomp_h(top1, top2)
        bottom = self.hcomp_h(bottom1, bottom2)
        s = self._hs[s1, s2] = self._intern(SQ, self._hs_op(
            self.sq_payload[s1], self.sq_payload[s2],
            self.h_payload[top], self.h_payload[bottom]),
            bounds=(top, bottom, left, right))
        return s

    def vcomp_sq(self, s1, s2):
        try:
            return self._vs[s1, s2]
        except KeyError:
            pass
        top, _, left1, right1 = self.sq_bounds[s1]
        _, bottom, left2, right2 = self.sq_bounds[s2]
        left = self.vcomp_v(left1, left2)
        right = self.vcomp_v(right1, right2)
        s = self._vs[s1, s2] = self._intern(SQ, self._vs_op(
            self.sq_payload[s1], self.sq_payload[s2],
            self.v_payload[left], self.v_payload[right]),
            bounds=(top, bottom, left, right))
        return s

    def sq_v_id(self, f):
        try:
            return self._sqvid[f]
        except KeyError:
            pass
        s = self._sqvid[f] = self._intern(
            SQ, self._sq_v_id_payload(self.h_payload[f]))
        return s

    def sq_h_id(self, u):
        try:
            return self._sqhid[u]
        except KeyError:
            pass
        s = self._sqhid[u] = self._intern(
            SQ, self._sq_h_id_payload(self.v_payload[u]))
        return s


class HomDoubleCat(InternedDoubleCat):
    """A lazily populated hom double category."""

    def __init__(self, B, C, flavor=HOP, name=None):
        super().__init__(name or "hom(%s,%s)" % (B.name, C.name))
        self.B, self.C = B, C
        self.flavor = flavor
        self._curried = {}  # quasi functor -> its curried functor (curry0)

    def _intern(self, kind, x, identity_of=None, bounds=None):
        # every cell enters here, so no route bypasses the flavor
        if kind == HOR and x.orientation != self.flavor.hor:
            raise NotHomCodomain("wrong horizontal orientation for this hom")
        if kind == VERT and x.orientation != self.flavor.vert:
            raise NotHomCodomain("wrong vertical orientation for this hom")
        return super()._intern(kind, x, identity_of, bounds)

    def _key(self, kind, x, bounds):
        if kind == OBJ:
            return _functor_key(x)
        at = tuple(map(x.at, range(self.B.n_objects)))
        if kind == SQ:
            return ("mod",) + bounds + (at,)
        return ((TRANSFORM_KINDS[type(x)].tag,) + bounds + (x.orientation, at)
                + field_squares(x))

    def _ends(self, t):
        return t.F, t.G

    def intern_functor(self, F):
        return self._intern(OBJ, F)

    def intern_hor_transform(self, t):
        return self._intern(HOR, t)

    def intern_vert_transform(self, t):
        return self._intern(VERT, t)

    def intern_modification(self, m):
        return self._intern(SQ, m)

    def _id_payload(self, kind, F):
        if kind == HOR:
            return identity_hor_transform(F, self.flavor.hor)
        return identity_vert_transform(F, self.flavor.vert)

    def _sq_v_id_payload(self, t):
        return identity_modification(t)

    def _sq_h_id_payload(self, t):
        return _vert_identity_square(t, self.flavor.hor)

    def _hh_op(self, t1, t2):
        return vcompose_hor(t1, t2)

    def _vv_op(self, t1, t2):
        return vcompose_vert(t1, t2)

    def _hs_op(self, m1, m2, top=None, bottom=None):
        return hcompose_modifications(m1, m2, top, bottom)

    def _vs_op(self, m1, m2, left=None, right=None):
        return vcompose_modifications(m1, m2, left, right)


def hom_double_category(B, C, flavor=HOP, bound=None):
    """The hom double category; with a bound, eagerly populated by
    enumeration.  The bound caps the candidates of the functor and of all
    the transformation enumerations together (EnumerationBound past it)."""
    hom = HomDoubleCat(B, C, flavor)
    if bound is not None:
        budget = _Budget(bound)
        for F in _lax_functors(B, C, flavor, budget):
            hom.intern_functor(F)
        objs = list(hom.obj_payload)
        for F in objs:
            for G in objs:
                for t in _transforms(HorTransform, F, G, flavor, budget):
                    hom.intern_hor_transform(t)
                for t in _transforms(VertTransform, F, G, flavor, budget):
                    hom.intern_vert_transform(t)
    return hom


def populate_squares(hom):
    """Close the square tables of a hom double category for validation.

    Interns every identity square and then both composites of every
    composable square pair until stable; composing transformations can
    intern new composite 1-cells, so the identity pass is repeated too.
    Each round finds the composable pairs among the squares it starts with
    by grouping them on their shared edge, and visits them in the order of
    a scan over all pairs, which fixes the ids and names of new cells.
    The resulting square set is the composition closure of the identity
    modifications, which is enough for the whole-category validator to
    exercise unit, associativity, and interchange laws.
    """
    while True:
        n_cells = (hom.n_hcells, hom.n_vcells, hom.n_squares)
        for f, g in composable_pairs(hom.hsrc, hom.htgt):
            hom.hcomp_h(f, g)
        for u, w in composable_pairs(hom.vsrc, hom.vtgt):
            hom.vcomp_v(u, w)
        for f in range(hom.n_hcells):
            hom.sq_v_id(f)
        for u in range(hom.n_vcells):
            hom.sq_h_id(u)
        # the squares so far, grouped on their left (h, False) and top
        # (v, True) edges; merging the groups of s1's right and bottom
        # edges visits its partners s2 in ascending order, h before v
        n = hom.n_squares
        by_left, by_top = {}, {}
        for s in range(n):
            by_left.setdefault(hom.sq_left(s), []).append((s, False))
            by_top.setdefault(hom.sq_top(s), []).append((s, True))
        for s1 in range(n):
            for s2, vertical in merge(by_left.get(hom.sq_right(s1), ()),
                                      by_top.get(hom.sq_bottom(s1), ())):
                (hom.vcomp_sq if vertical else hom.hcomp_sq)(s1, s2)
        if (hom.n_hcells, hom.n_vcells, hom.n_squares) == n_cells:
            return hom


def hom_membership(hom, thing):
    """Validate a candidate cell for a hom double category.

    Accepts a functor, transformation or modification and returns the
    report of the appropriate law check, extended with flavor conditions.
    """
    if not isinstance(thing, (LaxDoubleFunctor, HorTransform, VertTransform,
                              Modification)):
        return _refused("member-kind")
    if thing.dom is not hom.B or thing.cod is not hom.C:
        return _refused("member-frame")
    if isinstance(thing, LaxDoubleFunctor):
        rep = check_lax_functor(thing)
        if hom.flavor.unitary_only and not is_unitary(thing):
            rep.add("member-unitary")
        return rep
    if isinstance(thing, HorTransform):
        if thing.orientation != hom.flavor.hor:
            return _refused("member-orientation")
        return check_hor_transform(thing)
    if isinstance(thing, VertTransform):
        if thing.orientation != hom.flavor.vert:
            return _refused("member-orientation")
        rep = check_vert_transform(thing)
        # the scan reads each structure square's sides from the codomain;
        # they are the transformation's only once it is well-formed
        if hom.flavor.vert_strict and not any(
                law.startswith("wf-") for law, _ in rep.failures):
            for u in range(thing.dom.n_vcells):
                if not _is_strict_square(thing.cod, thing.sq_v(u)):
                    rep.add("member-vert-strict", vcell=u)
        return rep
    if (thing.top.orientation != hom.flavor.hor
            or thing.left.orientation != hom.flavor.vert):
        return _refused("member-orientation")
    return check_modification(thing)


def _refused(law):
    """A report failing only the membership condition ``law``."""
    rep = ValidationReport()
    rep.add(law)
    return rep


def _is_strict_square(c, s):
    """A strict structure square is the horizontal identity on its side."""
    _, _, left, right = c.sq_bounds[s]
    return left == right and s == c.sq_h_id(left)


# -- enumeration ------------------------------------------------------------


class _Budget:
    def __init__(self, bound):
        self.bound = bound
        self.used = 0

    def spend(self, n=1):
        self.used += n
        if self.bound is not None and self.used > self.bound:
            raise EnumerationBound("candidate enumeration exceeded the bound")


def enumerate_lax_functors(B, C, flavor=HOP, bound=None):
    """Brute-force enumeration of lax double functors B -> C.

    Practical only for very small B; the budget counts candidate partial
    assignments and raises EnumerationBound when exhausted.
    """
    yield from _lax_functors(B, C, flavor, _Budget(bound))


def _lax_functors(B, C, flavor, budget):
    if C.flat:
        C.materialize_flat_squares()
    out = []
    hlists = lambda ob: [C.hcells_between(ob[B.hsrc[f]], ob[B.htgt[f]])
                         for f in range(B.n_hcells)]
    for ob in iproduct(range(C.n_objects), repeat=B.n_objects):
        budget.spend()
        for hmap in iproduct(*hlists(ob)):
            budget.spend()
            vchoices = []
            ok = True
            for u in range(B.n_vcells):
                if B.is_v_identity(u):
                    vchoices.append([C.v_id(ob[B.vsrc[u]])])
                else:
                    cands = C.vcells_between(ob[B.vsrc[u]], ob[B.vtgt[u]])
                    if not cands:
                        ok = False
                        break
                    vchoices.append(cands)
            if not ok:
                continue
            for vmap in iproduct(*vchoices):
                budget.spend()
                yield from _complete_functors(B, C, flavor, budget,
                                              dict(enumerate(ob)),
                                              dict(enumerate(hmap)),
                                              dict(enumerate(vmap)))


def _square_choices(C, groups):
    """The candidate squares of each key of each (boundary, keys, strict)
    group, in order: the codomain squares on the key's boundary, only the
    strict ones if asked; None as soon as a key has none."""
    choices = []
    for bounds_of, keys, strict in groups:
        for key in keys:
            cands = C.squares_with_boundary(*bounds_of(key))
            if strict:
                cands = [s for s in cands if _is_strict_square(C, s)]
            if not cands:
                return None
            choices.append(cands)
    return choices


def _complete_functors(B, C, flavor, budget, ob, hmap, vmap):
    cells = LaxDoubleFunctor(B, C, ob, hmap, vmap)
    squares = list(B.iter_squares())
    pairs = list(composable_pairs(B.hsrc, B.htgt))
    choices = _square_choices(C, (
        (cells._sq_bounds, squares, False),
        (lambda fg: cells._compositor_bounds(*fg), pairs, False),
        (cells._unitor_bounds, range(B.n_objects), False)))
    if choices is None:
        return
    n_sq, n_comp = len(squares), len(pairs)
    for pick in iproduct(*choices):
        budget.spend()
        F = LaxDoubleFunctor(
            B, C, ob, hmap, vmap, dict(zip(squares, pick)),
            dict(zip(pairs, pick[n_sq:])),
            dict(enumerate(pick[n_sq + n_comp:])))
        if flavor.unitary_only and not is_unitary(F):
            continue
        if check_lax_functor(F).passed:
            yield F


def enumerate_hor_transforms(F, G, flavor=HOP, bound=None):
    """All horizontal transformations F => G in the flavor's orientation."""
    yield from _transforms(HorTransform, F, G, flavor, _Budget(bound))


def enumerate_vert_transforms(F, G, flavor=HOP, bound=None):
    """All vertical transformations F => G in the flavor's orientation."""
    yield from _transforms(VertTransform, F, G, flavor, _Budget(bound))


def _transforms(cls, F, G, flavor, budget):
    """Every lawful transformation F => G of kind cls in the flavor's
    orientation: each choice of components, then each choice of the
    squares of the kind's two fields on their boundaries.  A structure
    square of a vertical transformation is strict if the flavor says so."""
    B, C = F.dom, F.cod
    if cls is HorTransform:
        between, orientation = C.hcells_between, flavor.hor
        check, strict = check_hor_transform, False
    else:
        between, orientation = C.vcells_between, flavor.vert
        check, strict = check_vert_transform, flavor.vert_strict
    fields = TRANSFORM_KINDS[cls].fields
    for comp0 in iproduct(*[between(F.obj(a), G.obj(a))
                            for a in range(B.n_objects)]):
        comp0 = dict(enumerate(comp0))
        cells = cls(F, G, comp0, orientation=orientation)
        choices = _square_choices(C, [
            (getattr(cells, f.bounds), f.domain(B),
             strict and f.label == "structure") for f in fields])
        if choices is None:
            continue
        for pick in iproduct(*choices):
            budget.spend()
            squares = iter(pick)
            t = cls(F, G, comp0, *(dict(zip(f.domain(B), squares))
                                   for f in fields), orientation)
            if check(t).passed:
                yield t


def enumerate_modifications(top, bottom, left, right, bound=None):
    """All modifications filling the given frame of transformations."""
    budget = _Budget(bound)
    B, C = top.dom, top.cod
    choices = []
    for a in range(B.n_objects):
        cands = C.squares_with_boundary(top.at(a), bottom.at(a),
                                        left.at(a), right.at(a))
        if not cands:
            return
        choices.append(cands)
    for comp in iproduct(*choices):
        budget.spend()
        m = Modification(top, bottom, left, right, dict(enumerate(comp)))
        if check_modification(m).passed:
            yield m
