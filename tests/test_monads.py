"""Tests for monads, distributive laws, and composition in a double
category."""

import itertools

import pytest

from dblcheck import monads
from dblcheck.core import (
    DoubleCat, ValidationReport, bool_matrix_double_category, parity,
    trivial, validate_double_category)
from dblcheck.errors import (
    CarrierMismatch, DblError, NotFlat, NotTrivialDomain)
from dblcheck.functor import check_lax_functor, identity_functor
from dblcheck.hom import LAX, OPLAX
from dblcheck.monads import (
    MONAD_LABELS, DistributiveLaw, Monad, check_distributive_law,
    check_monad, comp, enumerate_distributive_laws, enumerate_monads,
    lax_from_monad, mnd_double_category, monad_from_lax, verify_comp_diagram,
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


def test_monad_square_ids_out_of_range_fail_their_boundaries():
    rep = check_monad(Monad(parity(), 0, 1, 10 ** 6, 10 ** 6))
    assert rep.laws_failed() == ["mnd.mult-boundary", "mnd.unit-boundary"]


@pytest.mark.parametrize("carrier, endo, law", [
    (0, 10 ** 6, "wf-hcell-boundary"),
    (5, 1, "wf-object"),
    (0, -1, "wf-hcell-boundary"),
], ids=["endo-past-the-end", "carrier-past-the-end", "negative-endo"])
def test_monad_cell_ids_out_of_range_fail_well_formedness(carrier, endo, law):
    # the functor packaging the monad maps no cell the codomain lacks, so
    # its well-formedness check names the id instead of a lookup raising
    rep = check_monad(Monad(parity(), carrier, endo, 0, 0))
    assert rep.failures == [(law, {"monad": "T", (
        "object" if law == "wf-object" else "hcell"): 0})]


def test_monad_on_a_missing_vertical_identity_fails_well_formedness():
    # the functor packaging the monad maps the vertical 1-cell of * to
    # the carrier's vertical identity, None here
    d = parity()
    d._v_id[0] = None
    rep = check_monad(Monad(d, 0, 1, 0, 0))
    assert rep.failures == [("wf-vcell-boundary", {"monad": "T", "vcell": 0})]


def test_monad_on_a_missing_identity_square_fails_well_formedness():
    d = parity()
    del d._sqvid[1]
    rep = check_monad(Monad(d, 0, 1, 0, 0))
    assert rep.failures[0][0] == "wf-square-missing"


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


def parity_law(t_sign=1, s_sign=0, swap_sign=0, flip=None):
    """A distributive law in parity, which is not flat: t and s both on
    the endo-cell h, t with unit and multiplication of sign t_sign, s of
    s_sign, and the swap on 1_*/1_* of swap_sign.  The defaults pass;
    ``flip`` names one datum (``t.unit``, ``t.mult``, ``s.unit``,
    ``s.mult`` or ``swap``) whose sign is flipped."""
    signs = {"t.unit": t_sign, "t.mult": t_sign, "s.unit": s_sign,
             "s.mult": s_sign, "swap": swap_sign}
    if flip is not None:
        signs[flip] ^= 1
    p = parity()
    sq = lambda datum: p.parity_index[(0, 1, 0, 0, signs[datum])]
    mt = Monad(p, 0, 1, sq("t.unit"), sq("t.mult"), name="T")
    ms = Monad(p, 0, 1, sq("s.unit"), sq("s.mult"), name="S")
    return DistributiveLaw(mt, ms, p.parity_index[(0, 0, 0, 0,
                                                   signs["swap"])])


def test_parity_distributive_law_passes():
    assert check_distributive_law(parity_law()).passed


@pytest.mark.parametrize("datum, failed", [
    ("t.unit", ["t.mnd.unit-l", "t.mnd.unit-r"]),
    ("t.mult", ["t.mnd.unit-l", "t.mnd.unit-r"]),
    ("s.unit", ["s.mnd.unit-l", "s.mnd.unit-r"]),
    ("s.mult", ["s.mnd.unit-l", "s.mnd.unit-r"]),
    ("swap", ["(1_B,K)", "(k'k,K)", "(k,1_A)", "(k,K'K)"]),
])
def test_distributive_law_single_datum_fails_a_named_law(datum, failed):
    """Flipping the sign of one unit, multiplication or swap of a passing
    law in parity fails that monad's unit laws, under its prefix and with
    its name, or the quasi laws of the swap."""
    rep = check_distributive_law(parity_law(flip=datum))
    assert rep.laws_failed() == failed
    if datum != "swap":
        assert {w["monad"] for _, w in rep.failures} == {datum[0].upper()}


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


# -- check_monad as a lax functor out of * against the monad laws -----------


def reference_check_monad(m):
    """The monad laws written out by hand: the boundaries, then
    associativity and the two unit laws; a side that raises fails."""
    d = m.d
    rep = ValidationReport()
    x = m.carrier
    want_unit = (d.h_id(x), m.endo, d.v_id(x), d.v_id(x))
    if d.sq_bounds[m.unit] != want_unit:
        rep.add("mnd.unit-boundary", monad=m.name)
    want_mult = (d.hcomp_h(m.endo, m.endo), m.endo, d.v_id(x), d.v_id(x))
    if d.sq_bounds[m.mult] != want_mult:
        rep.add("mnd.mult-boundary", monad=m.name)
    if not rep.passed:
        return rep
    ident = d.sq_v_id(m.endo)

    def law(label, lhs_fn, rhs_fn):
        try:
            ok = lhs_fn() == rhs_fn()
        except DblError:
            ok = False
        if not ok:
            rep.add(label, monad=m.name)

    law("mnd.assoc",
        lambda: d.vcomp_sq(d.hcomp_sq(m.mult, ident), m.mult),
        lambda: d.vcomp_sq(d.hcomp_sq(ident, m.mult), m.mult))
    law("mnd.unit-l",
        lambda: d.vcomp_sq(d.hcomp_sq(m.unit, ident), m.mult),
        lambda: ident)
    law("mnd.unit-r",
        lambda: d.vcomp_sq(d.hcomp_sq(ident, m.unit), m.mult),
        lambda: ident)
    return rep


def differential_monads():
    """Monads, valid and not: every (endo, unit, mult) on parity with any
    squares; the enumerated monads on every Boolean matrix carrier; the
    composites of distributive laws; and, among the first ten monads of
    each Boolean carrier, one's endo with another's unit and
    multiplication, in their places and swapped."""
    p = parity()
    for endo in range(p.n_hcells):
        for unit, mult in itertools.product(range(p.n_squares), repeat=2):
            yield Monad(p, 0, endo, unit, mult)
    for size in (1, 2, 3):
        b = bool_matrix_double_category(size)
        for x in range(b.n_objects):
            ms = enumerate_monads(b, x)
            yield from ms
            for m1, m2 in itertools.product(ms[:10], repeat=2):
                yield Monad(b, x, m1.endo, m2.unit, m2.mult)
                yield Monad(b, x, m1.endo, m2.mult, m2.unit)
    b2 = bool_matrix_double_category(2)
    for x in range(b2.n_objects):
        for lw in enumerate_distributive_laws(b2, x):
            yield comp(lw)
    b3 = bool_matrix_double_category(3)
    for lw in enumerate_distributive_laws(b3, 3)[:200]:
        yield comp(lw)


def test_check_monad_matches_hand_written_laws():
    n, failing = 0, 0
    for m in differential_monads():
        got, want = check_monad(m), reference_check_monad(m)
        assert got.laws_failed() == want.laws_failed(), (m, m.data())
        assert not got.sampled and not got.reduced
        n += 1
        failing += not want.passed
    assert n > 2500 and 0 < failing < n


def idempotent_category():
    """One object x, the identity 1 and an idempotent e, and five squares
    with identity sides: i1 on 1/1, eta on 1/e, and ie, a, z on e/e.  On
    End(e) vertical composition has unit ie, a.a = ie and z absorbing;
    horizontally i1 is a unit, eta.eta = eta, eta.g = z, g.eta = g and
    f.g = f on End(e).  The one input here that fails mnd.assoc."""
    d = DoubleCat("idem")
    x = d.add_object("x")
    one = d.add_hcell("1", x, x, identity_of=x)
    e = d.add_hcell("e", x, x)
    v = d.add_vcell("v", x, x, identity_of=x)
    for f, g in itertools.product((one, e), repeat=2):
        d.set_hh(f, g, e if e in (f, g) else one)
    d.set_vv(v, v, v)
    sq = {name: d.add_square(name, top, bottom, v, v)
          for name, top, bottom in (("i1", one, one), ("eta", one, e),
                                    ("ie", e, e), ("a", e, e), ("z", e, e))}
    i1, eta, ie, a, z = (sq[k] for k in ("i1", "eta", "ie", "a", "z"))
    end_e = (ie, a, z)
    for s in (i1, eta):
        d.set_vs(i1, s, s)
    for g in end_e:
        d.set_vs(eta, g, eta)
        for f in end_e:
            d.set_vs(f, g, z if z in (f, g) else a if (f, g).count(a) == 1
                     else ie)
    for s in sq.values():
        d.set_hs(i1, s, s)
        d.set_hs(s, i1, s)
    d.set_hs(eta, eta, eta)
    for g in end_e:
        d.set_hs(eta, g, z)
        d.set_hs(g, eta, g)
        for f in end_e:
            d.set_hs(f, g, f)
    d.set_sq_v_id(one, i1)
    d.set_sq_v_id(e, ie)
    d.set_sq_h_id(v, i1)
    return d, x, e, sq


def test_idempotent_category_is_valid():
    d, *_ = idempotent_category()
    rep = validate_double_category(d)
    assert rep.passed and not rep.sampled, rep.laws_failed()


@pytest.mark.parametrize("unit, mult, failed", [
    ("eta", "a", ["mnd.assoc", "mnd.unit-l", "mnd.unit-r"]),
    ("eta", "ie", ["mnd.unit-l"]),
    ("eta", "z", ["mnd.unit-l", "mnd.unit-r"]),
    ("ie", "ie", ["mnd.unit-boundary"]),
    ("eta", "eta", ["mnd.mult-boundary"]),
])
def test_idempotent_monads_fail_named_laws(unit, mult, failed):
    d, x, e, sq = idempotent_category()
    m = Monad(d, x, e, sq[unit], sq[mult], name="I")
    rep = check_monad(m)
    assert rep.laws_failed() == failed
    assert rep.laws_failed() == reference_check_monad(m).laws_failed()
    for law, witness in rep.failures:
        assert witness["monad"] == "I"
        if law in ("mnd.assoc", "mnd.unit-l", "mnd.unit-r"):
            assert {"lhs", "rhs"} <= set(witness)
        if law in ("mnd.unit-l", "mnd.unit-r"):
            assert witness["side"] == ("left" if law == "mnd.unit-l"
                                       else "right")


def test_mutation_covers_every_monad_law():
    d, x, e, sq = idempotent_category()
    covered = set()
    for unit, mult in itertools.product(sq, repeat=2):
        covered.update(check_monad(
            Monad(d, x, e, sq[unit], sq[mult])).laws_failed())
    assert covered == set(MONAD_LABELS.values()) == {
        "mnd.assoc", "mnd.unit-l", "mnd.unit-r", "mnd.mult-boundary",
        "mnd.unit-boundary"}


def test_endo_off_the_carrier_fails_its_boundary():
    # the monad on the one-element carrier, moved to the two-element one:
    # the hand-written laws named both square boundaries instead
    b2 = bool_matrix_double_category(2)
    m1 = enumerate_monads(b2, 1)[0]
    m = Monad(b2, 2, m1.endo, m1.unit, m1.mult, name="moved")
    rep = check_monad(m)
    assert rep.failures == [("wf-hcell-boundary",
                             {"monad": "moved", "hcell": 0})]
    assert reference_check_monad(m).laws_failed() == [
        "mnd.mult-boundary", "mnd.unit-boundary"]
    # the hand-written laws read the boundary of a square id first, and
    # one the flat codomain never interned ended in an IndexError
    far = Monad(b2, 2, m1.endo, 10 ** 6, 10 ** 6, name="moved")
    assert check_monad(far).failures == rep.failures
    with pytest.raises(IndexError):
        reference_check_monad(far)


def test_both_boundaries_list_mult_first():
    d, x, e, sq = idempotent_category()
    m = Monad(d, x, e, sq["ie"], sq["eta"])
    got, want = check_monad(m), reference_check_monad(m)
    assert [law for law, _ in got.failures] == [
        "mnd.mult-boundary", "mnd.unit-boundary"]
    assert [law for law, _ in want.failures] == [
        "mnd.unit-boundary", "mnd.mult-boundary"]
    assert got.laws_failed() == want.laws_failed()


def test_comp_diagram_witness_names_the_law(monkeypatch):
    b2 = bool_matrix_double_category(2)
    real = monads._direct_composite

    def swapped(lw):
        m = real(lw)
        return Monad(m.d, m.carrier, m.endo, m.mult, m.unit)
    monkeypatch.setattr(monads, "_direct_composite", swapped)
    rep = verify_comp_diagram(b2)
    assert rep.failures and rep.laws_failed() == ["comp-diagram"]
    law, witness = rep.failures[0]
    assert set(witness) == {"law", "lhs", "rhs"}
    assert witness["law"].startswith("DistributiveLaw(")
