"""Tests for monads, distributive laws, and composition in a double
category."""

import pytest

from dblcheck.core import (
    bool_matrix_double_category, parity, trivial)
from dblcheck.errors import CarrierMismatch, NotFlat, NotTrivialDomain
from dblcheck.functor import check_lax_functor, identity_functor
from dblcheck.hom import LAX, OPLAX
from dblcheck.monads import (
    DistributiveLaw, Monad, check_distributive_law, check_monad, comp,
    enumerate_distributive_laws, enumerate_monads, lax_from_monad,
    mnd_double_category, monad_from_lax, verify_comp_diagram,
    _direct_composite)


def preorder_monad(b, rel, size=2):
    o = b.objects.index(str(size))
    t = b.hindex[(o, o, frozenset(rel))]
    unit = b.find_square(b.h_id(o), t, b.v_id(o), b.v_id(o))
    mult = b.find_square(b.hcomp_h(t, t), t, b.v_id(o), b.v_id(o))
    return Monad(b, o, t, unit, mult, name="R")


def parity_monad(su, sm):
    """The parity endo-cell with chosen unit and multiplication signs."""
    p = parity()
    unit = p.parity_index[(0, 1, 0, 0, su)]
    mult = p.parity_index[(0, 1, 0, 0, sm)]
    return p, Monad(p, 0, 1, unit, mult)


def test_enumerate_monads_counts():
    b2 = bool_matrix_double_category(2)
    assert len(enumerate_monads(b2, 0)) == 1
    assert len(enumerate_monads(b2, 1)) == 1
    assert len(enumerate_monads(b2, 2)) == 4
    b3 = bool_matrix_double_category(3)
    assert len(enumerate_monads(b3, 3)) == 29


def test_enumerate_monads_needs_flat():
    with pytest.raises(NotFlat):
        enumerate_monads(parity(), 0)


def test_enumerated_monads_pass():
    b2 = bool_matrix_double_category(2)
    for m in enumerate_monads(b2, 2):
        rep = check_monad(m)
        assert rep.passed, rep.laws_failed()


def test_monad_laws_with_signs():
    # associativity always holds for the parity endo; the unit laws hold
    # exactly when the unit and multiplication signs agree
    _, good = parity_monad(1, 1)
    assert check_monad(good).passed
    _, bad = parity_monad(1, 0)
    rep = check_monad(bad)
    assert set(rep.laws_failed()) == {"mnd.unit-l", "mnd.unit-r"}


def test_monad_boundary_check():
    b2 = bool_matrix_double_category(2)
    m = preorder_monad(b2, {(0, 0), (1, 1), (0, 1)})
    m.mult = m.unit
    rep = check_monad(m)
    assert rep.laws_failed() == ["mnd.mult-boundary"]


def test_lax_roundtrip():
    b2 = bool_matrix_double_category(2)
    m = preorder_monad(b2, {(0, 0), (1, 1), (0, 1)})
    F = lax_from_monad(m)
    assert check_lax_functor(F).passed
    back = monad_from_lax(F)
    assert back.data() == m.data()


def test_monad_from_lax_needs_trivial_domain():
    with pytest.raises(NotTrivialDomain):
        monad_from_lax(identity_functor(parity()))


def test_distributive_law_carrier_mismatch():
    b2 = bool_matrix_double_category(2)
    m1 = enumerate_monads(b2, 1)[0]
    m2 = enumerate_monads(b2, 2)[0]
    with pytest.raises(CarrierMismatch):
        DistributiveLaw(m1, m2, 0)


def test_distributive_laws_on_matrices():
    b2 = bool_matrix_double_category(2)
    laws = enumerate_distributive_laws(b2, 2)
    assert laws
    for lw in laws:
        rep = check_distributive_law(lw)
        assert rep.passed, rep.laws_failed()


def test_distributive_law_builds_its_quasi_functor_once_on_use():
    b2 = bool_matrix_double_category(2)
    laws = enumerate_distributive_laws(b2, 2)
    assert not any("quasi" in vars(lw) for lw in laws)
    for lw in laws:
        q = lw.quasi
        assert q is lw.quasi
        fa, fb = q.fA(0), q.fB(0)
        assert (fa.h(0), fa.compositor(0, 0), fa.unitor(0)) == (
            lw.mt.endo, lw.mt.mult, lw.mt.unit)
        assert (fb.h(0), fb.compositor(0, 0), fb.unitor(0)) == (
            lw.ms.endo, lw.ms.mult, lw.ms.unit)
        assert q.kk == {(0, 0): lw.swap} and fa.dom is q.B and fb.dom is q.A
        assert check_distributive_law(lw).passed
    assert verify_comp_diagram(b2).passed
    b3 = bool_matrix_double_category(3)
    assert verify_comp_diagram(b3, sample=25, seed=3).passed


def test_comp_agrees_with_direct_formula():
    b2 = bool_matrix_double_category(2)
    for lw in enumerate_distributive_laws(b2, 2):
        got = comp(lw)
        assert got.data() == _direct_composite(lw).data()
        assert got.endo == b2.hcomp_h(lw.ms.endo, lw.mt.endo)
        assert check_monad(got).passed


def test_verify_comp_diagram_exhaustive():
    b2 = bool_matrix_double_category(2)
    rep = verify_comp_diagram(b2)
    assert rep.passed and rep.checked > 0


def test_verify_comp_diagram_sampled():
    b3 = bool_matrix_double_category(3)
    rep = verify_comp_diagram(b3, sample=25, seed=3)
    assert rep.passed and rep.checked == 25
    assert rep.sampled == {"comp-diagram": {"draws": 25, "seed": 3}}
    rep = verify_comp_diagram(bool_matrix_double_category(2), sample=10 ** 6)
    assert rep.passed and rep.checked == 18 and rep.sampled == {}


def test_mnd_of_trivial_is_trivial():
    mnd = mnd_double_category(trivial(), bound=2000)
    assert mnd.n_objects == 1
    assert mnd.n_hcells == 1
    assert mnd.n_vcells == 1


def test_mnd_flavor_orientations():
    mnd = mnd_double_category(parity(), bound=20000)
    assert mnd.flavor.hor == LAX and mnd.flavor.vert == OPLAX
    # objects are the monads: two signs for each of the two endo-cells
    assert mnd.n_objects == 4
    alt = mnd_double_category(parity(), oplax=True, bound=20000)
    assert alt.flavor.hor == OPLAX and alt.flavor.vert == LAX
    assert alt.n_objects == 4
