"""Tests for lax double functors."""

import pytest

from dblcheck.core import (
    FIXTURES, DoubleCat, bool_matrix_double_category, parity, trivial, walk_h)
from dblcheck.errors import DomainMismatch
from dblcheck.functor import (
    LaxDoubleFunctor, check_lax_functor, check_wellformed, compose_lax,
    functor_equal, identity_functor, is_pseudo, is_strict, is_unitary,
    strict_functor)


def parity_sign_functor(k=1, d=None):
    """Endofunctor of the parity fixture: identity on cells, with every
    compositor and unitor carrying sign k.  A 2-cocycle check shows this
    satisfies all lax functor laws; for k=1 it is pseudo but not strict."""
    if d is None:
        d = parity()
    F = identity_functor(d)
    if k:
        F.comp = {key: d.parity_index[d.sq_bounds[s] + (1,)]
                  for key, s in F.comp.items()}
        F.unit = {a: d.parity_index[d.sq_bounds[s] + (1,)]
                  for a, s in F.unit.items()}
    F.name = "sign%d" % k
    return F


def full_relation_monad_functor():
    """Lax functor from the point picking the full relation on a 2-element
    set: lax but not unitary (the unitor is a strict inclusion)."""
    t = trivial()
    b = bool_matrix_double_category(2)
    two = b.objects.index("2")
    full = b.hindex[(2, 2, frozenset((y, x) for y in range(2) for x in range(2)))]
    unit = b.find_square(b.h_id(two), full, b.v_id(two), b.v_id(two))
    comp = b.find_square(b.hcomp_h(full, full), full, b.v_id(two), b.v_id(two))
    return LaxDoubleFunctor(t, b, {0: two}, {0: full}, {0: b.v_id(two)},
                            comp={(0, 0): comp}, unit={0: unit}, name="full")


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_identity_functor_passes(name):
    d = FIXTURES[name]()
    rep = check_lax_functor(identity_functor(d))
    assert rep.passed, rep.laws_failed()


def test_identity_functor_is_strict_pseudo():
    F = identity_functor(parity())
    assert is_strict(F) and is_unitary(F) and is_pseudo(F)


def test_parity_sign_functor_is_lax_pseudo_not_strict():
    F = parity_sign_functor(1)
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()
    assert not is_strict(F)
    assert is_unitary(F) and is_pseudo(F)


def test_full_relation_functor_is_lax_not_unitary():
    F = full_relation_monad_functor()
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()
    assert not is_unitary(F) and not is_pseudo(F)


def test_strict_functor_into_parity():
    d = walk_h()
    p = parity()
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "a"][0]
    hmap = {x: (1 if x == f else 0) for x in range(d.n_hcells)}
    vmap = {u: 0 for u in range(d.n_vcells)}
    sqmap = {s: p.parity_index[(hmap[d.sq_top(s)], hmap[d.sq_bottom(s)],
                                0, 0, 0)] for s in range(d.n_squares)}
    F = strict_functor(d, p, {0: 0, 1: 0}, hmap, vmap, sqmap)
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()
    assert is_strict(F)


def test_flat_codomain_square_derivation():
    b1 = bool_matrix_double_category(1)
    b2 = bool_matrix_double_category(2)
    ob = {a: b2.objects.index(b1.objects[a]) for a in range(b1.n_objects)}
    hmap = {}
    for f in range(b1.n_hcells):
        key = (b1.hsrc[f], b1.htgt[f], b1.hmat[f])
        hmap[f] = b2.hindex[key]
    vmap = {}
    for u in range(b1.n_vcells):
        key = (b1.vsrc[u], b1.vtgt[u], b1.vfun[u])
        vmap[u] = b2.vindex[key]
    F = strict_functor(b1, b2, ob, hmap, vmap)
    rep = check_lax_functor(F)
    assert rep.passed, rep.laws_failed()


def test_broken_vertical_map_detected():
    F = identity_functor(parity())
    F.vmap[1] = 0
    rep = check_lax_functor(F)
    assert not rep.passed


def test_flipped_compositor_detected():
    d = parity()
    F = identity_functor(d)
    key = (1, 1)
    F.comp[key] = d.parity_index[d.sq_bounds[F.comp[key]] + (1,)]
    rep = check_lax_functor(F)
    assert not rep.passed
    assert any(law.startswith("lx.f.") for law in rep.laws_failed())


def test_flipped_unitor_detected():
    d = parity()
    F = identity_functor(d)
    F.unit[0] = d.parity_index[d.sq_bounds[F.unit[0]] + (1,)]
    rep = check_lax_functor(F)
    assert not rep.passed
    assert "lx.f.u" in rep.laws_failed()


def test_flipped_square_image_detected():
    d = parity()
    F = identity_functor(d)
    s = d.parity_index[(1, 1, 1, 1, 0)]
    F.sqmap[s] = d.parity_index[(1, 1, 1, 1, 1)]
    rep = check_lax_functor(F)
    assert not rep.passed


def test_unit_law_reports_missing_identity_square():
    # R carries a square R => R and a unit square 1_* => R but no Id_R, so
    # both sides of the unit law need a square the codomain lacks: the law
    # fails with the error as witness, and the check does not raise
    c = DoubleCat("no-Id_R")
    x = c.add_object("*")
    one = c.add_hcell("1_*", x, x, identity_of=x)
    r = c.add_hcell("R", x, x)
    v = c.add_vcell("1^*", x, x, identity_of=x)
    for f, g, h in ((one, one, one), (one, r, r), (r, one, r), (r, r, r)):
        c.set_hh(f, g, h)
    c.set_vv(v, v, v)
    ident = c.add_square("Id_1_*", one, one, v, v)
    c.set_sq_v_id(one, ident)
    c.set_sq_h_id(v, ident)
    mult = c.add_square("m", r, r, v, v)
    eta = c.add_square("e", one, r, v, v)
    t = trivial()
    F = LaxDoubleFunctor(t, c, {0: x}, {0: r}, {0: v},
                         {s: mult for s in t.iter_squares()},
                         {(0, 0): mult}, {0: eta})
    assert check_wellformed(F).passed
    rep = check_lax_functor(F)
    unit = [w for law, w in rep.failures if law == "lx.f.u"]
    assert [w["side"] for w in unit] == ["left", "right"]
    assert all("sq_v_id missing for R" in w["error"] for w in unit)


def test_boundary_violation_detected():
    d = walk_h()
    F = identity_functor(d)
    f = [x for x in range(d.n_hcells) if d.hnames[x] == "a"][0]
    F.hmap[f] = d.h_id(0)
    rep = check_wellformed(F)
    assert not rep.passed
    assert "wf-hcell-boundary" in rep.laws_failed()


def test_compose_sign_functors_cancels():
    F = parity_sign_functor(1)
    G = parity_sign_functor(1, d=F.cod)
    FG = compose_lax(F, G)
    rep = check_lax_functor(FG)
    assert rep.passed, rep.laws_failed()
    # the two sign contributions cancel, giving back the identity functor
    assert is_strict(FG)
    assert functor_equal(FG, identity_functor(F.dom))


def test_compose_with_identity_is_identity():
    F = parity_sign_functor(1)
    d = F.dom
    left = compose_lax(identity_functor(d), F)
    # cell maps agree; compositors agree up to the identity contribution
    assert all(left.h(f) == F.h(f) for f in range(d.n_hcells))


def test_compose_domain_mismatch():
    with pytest.raises(DomainMismatch):
        compose_lax(identity_functor(parity()), identity_functor(walk_h()))
