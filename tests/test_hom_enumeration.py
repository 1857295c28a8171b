"""The hom enumerators' search against generate-and-test.

``hom_reference`` builds every full candidate and runs the whole checker
on it; ``dblcheck.hom`` assigns one slot at a time and checks each law
instance once the last slot it reads is set.  Both must yield the same
cells in the same order.  Every test here runs with ``_derive_square``
raising, so no search reads a square it has not assigned.
"""

from itertools import chain, product
from operator import attrgetter

import pytest

import hom_reference as ref
from dblcheck import functor, hom, transform
from dblcheck.core import (
    bool_matrix_double_category, parity, trivial, walk_h, walk_sq, walk_v)
from dblcheck.functor import functor_equal
from dblcheck.hom import (
    FLAVORS, HOP, HOP_STAR, ST_U, enumerate_lax_functors,
    enumerate_modifications, enumerate_transforms, hom_double_category,
    populate_squares)
from dblcheck.quasi import (
    check_q_cell, check_q_mod, check_quasi_functor, curry0, curry_cell,
    curry_mod, uncurry0, uncurry_cell, uncurry_mod)
from dblcheck.transform import (
    HorTransform, VertTransform, field_squares, transform_equal)
from test_core import bool2_minus_random


@pytest.fixture(autouse=True)
def no_derived_square(monkeypatch):
    def derive(*args):
        raise AssertionError("a square was derived, not assigned")
    monkeypatch.setattr(functor, "_derive_square", derive)
    monkeypatch.setattr(transform, "_derive_square", derive)


def functor_cells(F):
    return functor._functor_key(F)


def transform_cells(t):
    return (t.orientation, tuple(map(t.at, range(t.dom.n_objects))),
            field_squares(t))


def modification_cells(m):
    return tuple(m.comp[a] for a in range(m.dom.n_objects))


def same_functors(B, C, flavor):
    """The functors B -> C of both enumerators, on separate codomains made
    by C, which must agree; returns the search's."""
    got = list(enumerate_lax_functors(B, C(), flavor))
    want = list(ref.lax_functors(B, C(), flavor))
    assert [functor_cells(F) for F in got] == [functor_cells(F) for F in want]
    return got


def same_transforms(functors, flavor):
    """Both kinds of transformation between every pair of the functors."""
    counts = {HorTransform: 0, VertTransform: 0}
    for F in functors:
        for G in functors:
            for cls in (HorTransform, VertTransform):
                got = [transform_cells(t)
                       for t in enumerate_transforms(cls, F, G, flavor)]
                assert got == [transform_cells(t) for t in
                               ref.transforms(cls, F, G, flavor)]
                counts[cls] += len(got)
    return counts[HorTransform], counts[VertTransform]


@pytest.mark.parametrize("name", sorted(FLAVORS))
def test_point_into_parity_in_every_flavor(name):
    flavor = FLAVORS[name]
    functors = same_functors(trivial(), parity, flavor)
    assert len(functors) == 4
    # ROADMAP D17's counts, checked -> passing: 128 -> 32 of each kind
    assert same_transforms(functors, flavor) == (32, 32)


@pytest.mark.parametrize("B", [walk_h, walk_v])
def test_walk_into_parity_functors(B):
    assert len(same_functors(B(), parity, HOP)) == 32


@pytest.mark.parametrize("flavor", [HOP, HOP_STAR])
def test_modifications_of_every_frame(flavor):
    h = hom_double_category(trivial(), parity(), flavor, bound=10 ** 4)
    by_ends = {}
    for t in h.v_payload:
        by_ends.setdefault((id(t.F), id(t.G)), []).append(t)
    frames = found = 0
    for top in h.h_payload:
        for bottom in h.h_payload:
            for left in by_ends.get((id(top.F), id(bottom.F)), []):
                for right in by_ends.get((id(top.G), id(bottom.G)), []):
                    got = [modification_cells(m) for m in
                           enumerate_modifications(top, bottom, left, right)]
                    assert got == [modification_cells(m) for m in
                                   ref.modifications(top, bottom, left, right)]
                    frames += 1
                    found += len(got)
    # Defect 8: hom(trivial, parity) has 8,192 modifications
    assert (frames, found) == (4096, 8192)


@pytest.mark.parametrize("n", [1, 2])
def test_point_into_bool_matrices(n):
    C = lambda: bool_matrix_double_category(n)
    assert len(same_functors(trivial(), C, HOP)) == (2, 6)[n - 1]
    unitary = same_functors(trivial(), C, ST_U)
    assert len(unitary) == n + 1
    same_transforms(unitary, ST_U)


@pytest.mark.parametrize("B", [trivial, walk_h, walk_v])
def test_slots_without_candidates(B):
    """Into walk_sq most boundaries carry no square and most pairs of
    objects no 1-cell, so many slots have no candidate."""
    functors = same_functors(B(), walk_sq, HOP)
    assert functors
    same_transforms(functors, HOP)


@pytest.mark.parametrize("A, count", [(trivial, 4), (walk_h, 32),
                                      (walk_v, 32)])
def test_functors_into_an_interned_hom(A, count):
    """ROADMAP D16's first step with B = *: the functors out of A into
    hom(*, parity) curry the quasi functors A x * -> parity."""
    h = populate_squares(hom_double_category(trivial(), parity(),
                                             bound=20000))
    functors = list(enumerate_lax_functors(A(), h))
    assert len(functors) == count
    for P in functors:
        q = uncurry0(P)
        assert check_quasi_functor(q).passed
        assert functor_equal(curry0(q, h), P)


def test_curry_round_trips_on_every_enumerated_cell():
    """ROADMAP D16 with A = B = *: each of the 32 horizontal and 32
    vertical transformations between the 4 functors * -> hom(*, parity)
    uncurries to a lawful q-cell, and ``curry_cell`` gives back the same
    cell; so does each of the 60 modifications between them through
    ``uncurry_mod`` and ``curry_mod``.  This hom holds only the composition
    closure of the identity modifications (ROADMAP Defect 8), so the
    transformations' squares and the modifications are drawn from it."""
    h = populate_squares(hom_double_category(trivial(), parity(),
                                             bound=20000))
    functors = list(enumerate_lax_functors(trivial(), h))
    pairs = list(product(functors, repeat=2))
    hor, vert = ({(F, G): list(enumerate_transforms(cls, F, G))
                  for F, G in pairs} for cls in (HorTransform, VertTransform))
    assert [sum(map(len, kind.values())) for kind in (hor, vert)] == [32, 32]
    for t in chain(*hor.values(), *vert.values()):
        q = uncurry_cell(t, h)
        assert check_q_cell(q).passed
        assert transform_equal(curry_cell(q, h), t)
    mods = [m for (F, G), (Fp, Gp) in product(pairs, repeat=2)
            for frame in product(hor[F, G], hor[Fp, Gp], vert[F, Fp],
                                 vert[G, Gp])
            for m in enumerate_modifications(*frame)]
    assert len(mods) == 60
    edges = attrgetter("top", "bottom", "left", "right")
    for m in mods:
        qm = uncurry_mod(m, h)
        assert check_q_mod(qm).passed
        back = curry_mod(qm, h)
        assert back.comp == m.comp
        assert all(map(transform_equal, edges(back), edges(m)))


def test_a_misbucketed_instance_fails_loudly(monkeypatch):
    """An instance checked before a slot it reads is set raises the
    search's sentinel, which no law check takes for a failure."""
    plan_of = hom._functor_plan

    def misbucketed(B):
        plan = plan_of(B)
        first = [x for bucket in plan.buckets for x in bucket]
        plan.buckets = [first] + [[] for _ in plan.buckets[1:]]
        return plan
    monkeypatch.setattr(hom, "_functor_plan", misbucketed)
    with pytest.raises(hom._Unset):
        list(enumerate_lax_functors(walk_h(), parity()))


@pytest.mark.parametrize("seed", range(3))
def test_a_codomain_missing_composites(seed):
    """bool2 less some squares: a law side that composes a missing square
    raises ``DblError``, which fails its instance in both enumerators."""
    C = lambda: bool2_minus_random(seed, 40)
    same_transforms(same_functors(trivial(), C, HOP), HOP)
