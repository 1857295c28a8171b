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
that scheme once, as the interned backend of ``core.DoubleCat``: the
composites of every backend are read through ``DoubleCat``'s accessors,
and this module keeps only payloads, their keys and the intern path.
``HomDoubleCat`` here and ``quasi.QHomDoubleCat`` add only their keys,
endpoints, identities and payload compositions.
"""

from heapq import merge
from itertools import repeat
from types import SimpleNamespace

from .core import (
    DoubleCat, FrozenRecord, ValidationReport, composable_pairs, init_field,
    square_partners)
from .errors import DblError, EnumerationBound, NotHomCodomain
from .functor import (
    LaxDoubleFunctor, _lax_functor_laws, check_lax_functor, is_unitary)
from .transform import (
    LAX, OPLAX, TRANSFORM_KINDS, HorTransform, Modification, VertTransform,
    _modification_laws, check_modification, field_squares,
    hcompose_modifications, identity_hor_transform, identity_modification,
    identity_vert_transform, vcompose_hor, vcompose_modifications,
    vcompose_vert)


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
    ``_hh_op``, ``_vv_op``, ``_hs_op`` and ``_vs_op``.

    This is the interned backend of ``DoubleCat``, whose accessors and
    tables it uses as they are.  On a table miss, a 1-cell composite comes
    from ``hcomp_h_fn``/``vcomp_v_fn``, which intern the composite of the
    operands' payloads.  A square composite or identity square comes from
    ``_square_on``, given the frame the accessor composed: the frame's
    payloads are what ``_hs_op`` (or ``_vs_op``) takes instead of composing
    them again, and the result is interned under that frame.
    """

    interned = True

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

    def hcomp_h_fn(self, f, g):
        return self._intern(HOR, self._hh_op(self.h_payload[f],
                                             self.h_payload[g]))

    def vcomp_v_fn(self, u, w):
        return self._intern(VERT, self._vv_op(self.v_payload[u],
                                              self.v_payload[w]))

    def _square_on(self, op, bound, x, y=None):
        # the composite or identity payload, filed under the frame core read
        if op == "hcomp_sq":
            m = self._hs_op(self.sq_payload[x], self.sq_payload[y],
                            self.h_payload[bound[0]], self.h_payload[bound[1]])
        elif op == "vcomp_sq":
            m = self._vs_op(self.sq_payload[x], self.sq_payload[y],
                            self.v_payload[bound[2]], self.v_payload[bound[3]])
        elif op == "sq_v_id":
            m = self._sq_v_id_payload(self.h_payload[x])
        else:
            m = self._sq_h_id_payload(self.v_payload[x])
        return self._intern(SQ, m, bounds=bound)


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
    enumeration.  The bound caps the partial assignments tried by the
    functor and all the transformation enumerations together
    (EnumerationBound past it)."""
    hom = HomDoubleCat(B, C, flavor)
    if bound is not None:
        budget = _Budget(bound)
        for F in _lax_functors(B, C, flavor, budget):
            hom.intern_functor(F)
        objs = list(hom.obj_payload)
        kinds = [(cls, _transform_plan(cls, B, flavor), intern) for cls, intern
                 in ((HorTransform, hom.intern_hor_transform),
                     (VertTransform, hom.intern_vert_transform))]
        for F in objs:
            for G in objs:
                for cls, plan, intern in kinds:
                    for t in _transforms(cls, F, G, flavor, budget, plan):
                        intern(t)
    return hom


def populate_squares(hom):
    """Close the square tables of a hom double category for validation.

    Interns every identity square and then both composites of every
    composable square pair until stable; composing transformations can
    intern new composite 1-cells, so the identity pass is repeated too.
    Each round reads the composable pairs among the squares it starts with
    from ``square_partners`` and visits them in the order of a scan over
    all pairs, which fixes the ids and names of new cells.
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
        # merging the partners of s1 beside it (False) and below it
        # (True) visits them in ascending order, h before v
        beside, below = square_partners(hom.sq_bounds)
        for s1, (right, under) in enumerate(zip(beside, below)):
            for s2, vertical in merge(zip(right, repeat(False)),
                                      zip(under, repeat(True))):
                (hom.vcomp_sq if vertical else hom.hcomp_sq)(s1, s2)
        if (hom.n_hcells, hom.n_vcells, hom.n_squares) == n_cells:
            return hom


def hom_membership(hom, thing):
    """Validate a candidate cell for a hom double category.

    Accepts a functor, transformation or modification and returns the
    report of the appropriate law check, extended with flavor conditions.
    """
    kind = TRANSFORM_KINDS.get(type(thing))
    if kind is None and not isinstance(thing, (LaxDoubleFunctor,
                                               Modification)):
        return _refused("member-kind")
    if thing.dom is not hom.B or thing.cod is not hom.C:
        return _refused("member-frame")
    if isinstance(thing, LaxDoubleFunctor):
        rep = check_lax_functor(thing)
        if hom.flavor.unitary_only and not is_unitary(thing):
            rep.add("member-unitary")
        return rep
    if kind is not None:
        if thing.orientation != getattr(hom.flavor, kind.tag):
            return _refused("member-orientation")
        rep = kind.check(thing)
        # the scan reads each structure square's sides from the codomain;
        # they are the transformation's only once it is well-formed
        if _strict(hom.flavor, kind) and not any(
                law.startswith("wf-") for law, _ in rep.failures):
            field = kind.fields[1]
            square = getattr(thing, field.accessor)
            for x in field.domain(thing.dom):
                if not _is_strict_square(thing.cod, square(x)):
                    rep.add("member-%s-strict" % kind.tag, **{field.key: x})
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


def _strict(flavor, kind):
    """Whether the flavor admits only strict structure squares for the
    kind: ``vert_strict`` for vertical transformations, and no flavor
    restricts horizontal ones."""
    return getattr(flavor, kind.tag + "_strict", False)


def _is_strict_square(c, s):
    """A strict structure square is the horizontal identity on its side."""
    _, _, left, right = c.sq_bounds[s]
    return left == right and s == c.sq_h_id(left)


# -- enumeration ------------------------------------------------------------
#
# One search enumerates every kind of cell.  A candidate's cells are its
# slots: a functor's objects, 1-cells, squares, compositors and unitors; a
# transformation's components and the squares of its kind's two fields; a
# modification's components.  The search assigns them one at a time, in the
# lexicographic order of the product of their candidate lists, checks each
# law instance as soon as the last slot it reads is set, and backtracks at
# the first failure.  So it yields the survivors of the filtered product,
# in its order.  A square slot's candidates are the codomain squares on its
# boundary, read from the slots before it: a full assignment is well formed
# by construction, so no well-formedness check runs.


class _Budget:
    """The partial assignments tried, against a bound: every candidate the
    search assigns to a slot counts one."""

    def __init__(self, bound):
        self.bound = bound
        self.used = 0

    def spend(self):
        self.used += 1
        if self.bound is not None and self.used > self.bound:
            raise EnumerationBound("candidate enumeration exceeded the bound")


class _Unset(Exception):
    """A law instance read a slot the search has not set: its plan checks
    it too early.  Not a ``DblError``, so no check takes it for a failing
    instance, and no square is derived in place of the slot."""


class _Slots(dict):
    """One field of a partial cell: its assigned slots by domain cell."""

    def __missing__(self, key):
        raise _Unset(key)


# While a catalogue is recorded, a cell of the stand-in reads as the last
# slot it depends on, -1 for none: a slot as itself, a cell of a fixed
# functor or transformation as -1, a composite or identity as the last of
# its operands', as ``tensor._Terms`` builds terms.
_READS = SimpleNamespace(hcomp_sq=max, vcomp_sq=max, vcomp_v=max,
                         vcomp_sq_many=max, v_id=lambda x: x,
                         sq_v_id=lambda x: x, sq_h_id=lambda x: x)


class _NoSlots:
    """A functor or transformation that a recorded cell is built on: its
    cells read no slot."""

    def __init__(self, orientation=None):
        self.orientation = orientation

    def __getattr__(self, accessor):
        return lambda *key: -1


class _Plan:
    """The slots of one kind of cell on one domain and orientation, and the
    law instances to check as each one is set.

    ``fields`` are (store, accessor, keys) triples in the kind's
    constructor order: the attribute holding a field, the method reading
    it and the domain cells indexing it.  A slot is a field's index with
    one of its keys, in that order.  The catalogue ``laws(cell, emit)``
    runs once on a stand-in built on the cells ``fixed``, over the
    codomain ``_READS``, whose cells read as the last slot they depend on.
    Each instance goes to the bucket of the last slot its sides read (the
    first, if they read none) as its catalogue row and key.  Reads depend
    only on the domain's cells, so one plan serves every search of its
    kind.
    """

    def __init__(self, dom, laws, fields, **fixed):
        self.laws, self.fields = laws, fields
        self.slots = [(i, key) for i, (_, _, keys) in enumerate(fields)
                      for key in keys]
        stub = SimpleNamespace(dom=dom, cod=_READS, **fixed)
        for i, (_, accessor, keys) in enumerate(fields):
            index = {key: n for n, (j, key) in enumerate(self.slots)
                     if j == i}
            setattr(stub, accessor, (lambda *key, index=index: index[key])
                    if keys and isinstance(keys[0], tuple)
                    else index.__getitem__)
        self.buckets = [[] for _ in self.slots]
        rows = []

        def emit(law, keys, lhs, rhs, witness):
            for key in keys:
                last = max(lhs(*key), rhs(*key), 0)
                self.buckets[last].append((len(rows), key))
            rows.append(law)
        laws(stub, emit)


def _search(plan, cell, choices, build, budget):
    """Yield ``build(*fields)`` for each full assignment of the plan's
    slots on ``cell`` that passes every law instance, in lexicographic
    order.  ``choices[i](key)`` lists the candidates of field i's slot at
    key.  It and the catalogue read ``cell``, whose fields now hold the
    slots assigned so far; a side raising ``DblError`` fails its
    instance, as in ``ValidationReport.expect``.

    ``cell`` is an instance of its kind's class whose fields are
    ``_Slots``: its accessors are the class's own, so the catalogue's call
    sites see one class whether they check a partial cell or a payload
    (accessors set on the instance slowed later checks of the payloads by
    about a tenth), and they read an unset slot without deriving it."""
    fields = [_Slots() for _ in plan.fields]
    for (store, _, _), slots in zip(plan.fields, fields):
        setattr(cell, store, slots)
    rows = []
    plan.laws(cell, lambda law, keys, lhs, rhs, witness: rows.append(
        (lhs, rhs)))
    steps = [(fields[i], key, choices[i],
              [rows[row] + (args,) for row, args in bucket])
             for (i, key), bucket in zip(plan.slots, plan.buckets)]
    pending, depth, spend = [], 0, budget.spend
    while depth >= 0:
        if depth == len(steps):
            yield build(*fields)
            depth -= 1
            continue
        store, key, choose, instances = steps[depth]
        if len(pending) == depth:
            pending.append(iter(choose(key)))
        for value in pending[depth]:
            spend()
            store[key] = value
            try:
                for lhs, rhs, args in instances:
                    if lhs(*args) != rhs(*args):
                        break
                else:  # every instance holds: on to the next slot
                    depth += 1
                    break
            except DblError:
                pass
        else:
            # every candidate tried: unset the slot, back to the one before
            store.pop(key, None)
            pending.pop()
            depth -= 1


def enumerate_lax_functors(B, C, flavor=HOP, bound=None):
    """All lax double functors B -> C, only the unitary ones if the
    flavor says so.  Practical only for small B; the bound caps the
    partial assignments tried and raises EnumerationBound past it."""
    yield from _lax_functors(B, C, flavor, _Budget(bound))


def _functor_plan(B):
    return _Plan(B, lambda F, emit: _lax_functor_laws(F, emit, "lx.f"), (
        ("ob", "obj", range(B.n_objects)), ("hmap", "h", range(B.n_hcells)),
        ("vmap", "v", range(B.n_vcells)),
        ("sqmap", "sq", list(B.iter_squares())),
        ("comp", "compositor", list(composable_pairs(B.hsrc, B.htgt))),
        ("unit", "unitor", range(B.n_objects))))


def _lax_functors(B, C, flavor, budget):
    if C.flat:
        C.materialize_flat_squares()
    F = LaxDoubleFunctor(B, C, {}, {}, {})
    on = lambda bounds: lambda *key: C.squares_with_boundary(*bounds(*key))

    def vcells(u):
        a, b = F.obj(B.vsrc[u]), F.obj(B.vtgt[u])
        return [C.v_id(a)] if B.is_v_identity(u) else C.vcells_between(a, b)
    unitors = on(F._unitor_bounds)
    if flavor.unitary_only:
        invertible = unitors
        unitors = lambda a: [s for s in invertible(a)
                             if C.vertical_inverse(s) is not None]
    yield from _search(_functor_plan(B), F, (
        lambda a: range(C.n_objects),
        lambda f: C.hcells_between(F.obj(B.hsrc[f]), F.obj(B.htgt[f])),
        vcells, on(F._sq_bounds),
        lambda fg: C.squares_with_boundary(*F._compositor_bounds(*fg)),
        unitors), lambda *fields: LaxDoubleFunctor(B, C, *fields), budget)


def enumerate_transforms(cls, F, G, flavor=HOP, bound=None):
    """All transformations F => G of kind cls in the flavor's orientation."""
    yield from _transforms(cls, F, G, flavor, _Budget(bound),
                           _transform_plan(cls, F.dom, flavor))


def _transform_plan(cls, B, flavor):
    """The components, then the squares of the kind's two fields."""
    kind = TRANSFORM_KINDS[cls]
    return _Plan(B, kind.laws, [("comp0", "at", range(B.n_objects))] + [
        (f.store, f.accessor, f.domain(B)) for f in kind.fields],
        F=_NoSlots(), G=_NoSlots(), orientation=getattr(flavor, kind.tag))


def _transforms(cls, F, G, flavor, budget, plan):
    """Every lawful transformation F => G of kind cls in the flavor's
    orientation, searched by ``plan``, the kind's plan on F's domain.  Its
    structure squares are strict if the flavor says so for the kind
    (``vert_strict``)."""
    kind, C = TRANSFORM_KINDS[cls], F.cod
    orientation, strict = getattr(flavor, kind.tag), _strict(flavor, kind)
    t = cls(F, G, {}, orientation=orientation)

    def squares(field):
        bounds = getattr(t, field.bounds)
        if strict and field.label == "structure":
            return lambda x: [s for s in C.squares_with_boundary(*bounds(x))
                              if _is_strict_square(C, s)]
        return lambda x: C.squares_with_boundary(*bounds(x))
    between = getattr(C, kind.cells + "cells_between")
    yield from _search(plan, t, [lambda a: between(F.obj(a), G.obj(a))] + [
        squares(f) for f in kind.fields],
        lambda comp0, first, second: cls(F, G, comp0, first, second,
                                         orientation), budget)


def enumerate_modifications(top, bottom, left, right, bound=None):
    """All modifications filling the given frame of transformations."""
    plan = _Plan(top.dom, _modification_laws, [
        ("comp", "at", range(top.dom.n_objects))],
        top=_NoSlots(top.orientation),
        bottom=_NoSlots(), left=_NoSlots(), right=_NoSlots())
    m = Modification(top, bottom, left, right, {})
    yield from _search(plan, m, [
        lambda a: top.cod.squares_with_boundary(*m._bounds(a))],
        lambda comp: Modification(top, bottom, left, right, comp),
        _Budget(bound))
