"""Generate-and-test enumeration of hom cells: the reference for
``dblcheck.hom``'s search.

Each enumerator builds every full candidate in the lexicographic order of
the product of its candidate lists and keeps those that pass the kind's
whole checker.  ``dblcheck.hom`` assigns the same candidates one slot at a
time and checks each law instance as soon as its slots are set; its
survivors must be these, in this order.
"""

from itertools import product as iproduct

from dblcheck.core import composable_pairs
from dblcheck.functor import LaxDoubleFunctor, check_lax_functor, is_unitary
from dblcheck.hom import _is_strict_square
from dblcheck.transform import (
    TRANSFORM_KINDS, HorTransform, Modification, check_hor_transform,
    check_modification, check_vert_transform)


def lax_functors(B, C, flavor):
    if C.flat:
        C.materialize_flat_squares()
    hlists = lambda ob: [C.hcells_between(ob[B.hsrc[f]], ob[B.htgt[f]])
                         for f in range(B.n_hcells)]
    for ob in iproduct(range(C.n_objects), repeat=B.n_objects):
        for hmap in iproduct(*hlists(ob)):
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
                yield from _complete_functors(
                    B, C, flavor, dict(enumerate(ob)), dict(enumerate(hmap)),
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


def _complete_functors(B, C, flavor, ob, hmap, vmap):
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
        F = LaxDoubleFunctor(
            B, C, ob, hmap, vmap, dict(zip(squares, pick)),
            dict(zip(pairs, pick[n_sq:])),
            dict(enumerate(pick[n_sq + n_comp:])))
        if flavor.unitary_only and not is_unitary(F):
            continue
        if check_lax_functor(F).passed:
            yield F


def transforms(cls, F, G, flavor):
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
            squares = iter(pick)
            t = cls(F, G, comp0, *(dict(zip(f.domain(B), squares))
                                   for f in fields), orientation)
            if check(t).passed:
                yield t


def modifications(top, bottom, left, right):
    B, C = top.dom, top.cod
    choices = []
    for a in range(B.n_objects):
        cands = C.squares_with_boundary(top.at(a), bottom.at(a),
                                        left.at(a), right.at(a))
        if not cands:
            return
        choices.append(cands)
    for comp in iproduct(*choices):
        m = Modification(top, bottom, left, right, dict(enumerate(comp)))
        if check_modification(m).passed:
            yield m
