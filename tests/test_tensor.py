"""Tests for the tensor presentation and its universal property."""

import random
from collections import Counter

import pytest

from dblcheck.core import (
    HCELL, SQUARE, VCELL, CellRef, Gen, HComp, HId, VId, trivial, walk_h,
    walk_v)
from dblcheck.errors import RelationViolated
from dblcheck.quasi import check_quasi_functor
from dblcheck.tensor import (
    JQuasiFunctor, factorize, j_quasi_functor, tensor_presentation,
    verify_universal_property)

from test_acceptance import flip
from test_quasi import distributive_quasi, pairing_quasi, sign_quasi


def test_trivial_tensor_generators():
    pres = tensor_presentation(trivial(), trivial())
    assert pres.obj_gens == ["o:0:0"]
    assert sorted(pres.h_gens) == ["Ak:0:0", "KB:0:0"]
    assert pres.v_gens == []
    # one mixed square, one per laxity family, one interchanger
    assert sorted(pres.sq_gens) == [
        "Aom:0:0", "cA:0:0:0", "cB:0:0:0", "kk:0:0",
        "uA:0:0", "uB:0:0", "zeB:0:0"]


def test_trivial_tensor_audit():
    pres = tensor_presentation(trivial(), trivial())
    assert pres.audit() == {
        "fam-a.v1": 1, "fam-a.h1": 1, "fam-a.h2": 1, "fam-a.hex": 1,
        "fam-a.u": 2, "fam-a.c-nat": 1, "fam-a.u-nat": 1,
        "fam-b.v1": 1, "fam-b.h1": 1, "fam-b.h2": 1, "fam-b.hex": 1,
        "fam-b.u": 2, "fam-b.c-nat": 1, "fam-b.u-nat": 1,
        "(1_B,K)": 1, "(k,1_A)": 1, "(1_B,U)": 1, "(u,1_A)": 1,
        "(k'k,K)": 1, "(k,K'K)": 1, "(u,K'K)": 1, "(k'k,U)": 1,
        "(u/u',K)": 1, "(k,U/U')": 1, "(u/u',U)": 1, "(u,U/U')": 1,
        "(k,K)-l-nat": 1, "(u,U)-l-nat": 1,
        "(k,K)-r-nat": 1, "(u,U)-r-nat": 1}


def test_generator_counts_linear():
    q = sign_quasi({0: 0, 1: 1})
    A, B = q.A, q.B
    pres = tensor_presentation(A, B)
    assert len(pres.obj_gens) == A.n_objects * B.n_objects
    assert len(pres.h_gens) == (A.n_objects * B.n_hcells
                                + A.n_hcells * B.n_objects)
    nva = sum(1 for u in range(B.n_vcells) if not B.is_v_identity(u))
    nvb = sum(1 for U in range(A.n_vcells) if not A.is_v_identity(U))
    assert len(pres.v_gens) == (A.n_objects * nva + nvb * B.n_objects)
    assert "kk:0:%d" % (A.n_hcells - 1) in pres.sq_gens


def _closed_form_counts(A, B):
    """Generators per name prefix, from the cell counts of A and B."""
    def nv(D):
        return sum(1 for u in range(D.n_vcells) if not D.is_v_identity(u))

    def composable(D):
        return sum(1 for f in range(D.n_hcells) for g in range(D.n_hcells)
                   if D.htgt[f] == D.hsrc[g])

    oA, oB = A.n_objects, B.n_objects
    return {"o": oA * oB, "Ak": oA * B.n_hcells, "KB": A.n_hcells * oB,
            "Au": oA * nv(B), "UB": nv(A) * oB,
            "Aom": oA * B.n_squares, "zeB": A.n_squares * oB,
            "cA": oA * composable(B), "uA": oA * oB,
            "cB": oB * composable(A), "uB": oB * oA,
            "kk": B.n_hcells * A.n_hcells, "uk": nv(B) * A.n_hcells,
            "ku": B.n_hcells * nv(A), "uu": nv(B) * nv(A)}


def _sign_factors():
    q = sign_quasi({0: 0, 1: 1})
    return q.A, q.B


@pytest.mark.parametrize("factors", [
    lambda: (trivial(), trivial()),
    lambda: (walk_h(), walk_v()),
    lambda: (walk_v(), walk_v()),
    _sign_factors,
], ids=["trivial", "walk_h-walk_v", "walk_v-walk_v", "sign"])
def test_generator_counts_per_family(factors):
    pres = tensor_presentation(*factors())
    gens = pres.generators()
    assert len(set(gens)) == len(gens)
    got = Counter(g.split(":")[0] for g in gens)
    want = _closed_form_counts(pres.A, pres.B)
    assert got == Counter({k: n for k, n in want.items() if n})
    for kind, prefixes in (("obj_gens", {"o"}), ("h_gens", {"Ak", "KB"}),
                           ("v_gens", {"Au", "UB"})):
        assert len(getattr(pres, kind)) == sum(want[p] for p in prefixes)


def test_identity_normalization_relation_present():
    # the square over a vertical identity collapses to the identity square
    # on the mixed 1-cell
    q = sign_quasi({0: 0, 1: 1})
    pres = tensor_presentation(q.A, q.B)
    B = q.B
    want = ("fam-a.h2", pres.t_sqa(0, B.sq_v_id(0)), VId(pres.t_ha(0, 0)))
    assert want in pres.relations


def test_laxity_relation_present():
    # composing two mixed 1-cells against the image of their composite
    q = sign_quasi({0: 0, 1: 1})
    pres = tensor_presentation(q.A, q.B)
    labels = set(pres.audit())
    assert "fam-b.hex" in labels
    assert "(k'k,K)" in labels or "(k,K'K)" in labels


def test_factorize_sign_quasi():
    q = sign_quasi({0: 0, 1: 1})
    pres = tensor_presentation(q.A, q.B)
    bar = factorize(q, pres)
    for K in range(q.A.n_hcells):
        assert bar["kk:0:%d" % K].id == q.sq_kk(0, K)
    assert bar["uA:0:0"].id == q.fA(0).unitor(0)
    assert bar["o:1:0"].id == q.obj(1, 0)


def test_factorize_distributive_quasi():
    q = distributive_quasi({(0, 0), (1, 1)}, {(0, 0), (1, 1), (0, 1)})
    bar = factorize(q)
    assert bar["kk:0:0"].id == q.sq_kk(0, 0)


def test_factorize_rejects_doctored_interchanger():
    q = sign_quasi({0: 0, 1: 1})
    C = q.C
    (k, K), s = next(iter(q.kk.items()))
    flipped = C.parity_index[(C.sq_top(s), C.sq_bottom(s), C.sq_left(s),
                              C.sq_right(s), (C.parity_sign[s] + 1) % 2)]
    q.kk[(k, K)] = flipped
    with pytest.raises(RelationViolated):
        factorize(q)


def test_j_quasi_functor_lands_in_generators():
    q = sign_quasi({0: 0, 1: 1})
    pres = tensor_presentation(q.A, q.B)
    J = j_quasi_functor(q.A, q.B, pres)
    assert isinstance(J, JQuasiFunctor)
    assert J.obj(0, 0) == Gen("o:0:0")
    assert J.sq_kk(0, 1) == Gen("kk:0:1")
    # identity vertical arguments normalize away
    assert J.fA(0).v(q.B.v_id(0)) == VId(Gen("o:0:0"))
    # the generator families, read as lax functors into the terms
    fa, fb = J.fA(1), J.fB(0)
    assert fa.dom is q.B and fb.dom is q.A
    assert J.fA(0).compositor(0, 0) == pres.t_ca(0, 0, 0)
    assert fa.obj(0) == J.obj(1, 0) and fb.obj(1) == J.obj(1, 0)
    assert fa.h(0) == pres.t_ha(1, 0) and fb.h(2) == pres.t_hb(2, 0)
    assert fa.v(0) == pres.t_va(1, 0) and fb.v(1) == pres.t_vb(1, 0)
    assert fa.sq(0) == pres.t_sqa(1, 0) and fb.sq(2) == pres.t_sqb(2, 0)
    assert fa.unitor(0) == pres.t_ua(1, 0) and fb.unitor(1) == pres.t_ub(0, 1)
    assert fb.compositor(0, 2) == pres.t_cb(0, 0, 2)
    assert J.C.hcomp_sq(fa.sq(0), fb.sq(2)) == HComp(fa.sq(0), fb.sq(2))
    assert J.C.sq_v_id(fa.h(0)) == VId(fa.h(0))


def test_relations_have_distinct_sides():
    # laws that hold by normalization (v2, identity vertical arguments)
    # leave no relation behind
    for A, B in ((trivial(), trivial()), (walk_h(), walk_v())):
        pres = tensor_presentation(A, B)
        assert all(lhs != rhs for _, lhs, rhs in pres.relations)
        labels = set(pres.audit())
        assert not labels & {"fam-a.v2", "fam-b.v2", "(1^B,K)", "(k,1^A)",
                             "(1^B,U)", "(u,1^A)"}


def _flip_one(q, rng):
    """Flip one seeded square of q: an interchanger, or a square image,
    compositor or unitor of one family functor."""
    tables = [q.kk] + [getattr(F, field)
                       for F in list(q.fam_a.values()) + list(q.fam_b.values())
                       for field in ("sqmap", "comp", "unit")]
    table = rng.choice([t for t in tables if t])
    key = rng.choice(sorted(table))
    table[key] = flip(q.C, table[key])


def test_factorize_raises_exactly_when_check_fails():
    # the checker and the presentation run one law catalogue, on the
    # input and on J; a flipped square must trip both or neither
    rng = random.Random(5)
    outcomes = set()
    for _ in range(60):
        q = sign_quasi({0: rng.randrange(2), 1: rng.randrange(2)})
        for _ in range(rng.randrange(3)):
            _flip_one(q, rng)
        failed = not check_quasi_functor(q).passed
        try:
            factorize(q)
            raised = False
        except RelationViolated:
            raised = True
        assert raised == failed
        outcomes.add(failed)
    assert outcomes == {True, False}


def test_universal_property_flags_a_family_breaking_v2():
    # a family that sends an identity 1v-cell to v breaks the composite
    # with J exactly on the cells whose J side is an identity normal form
    q = sign_quasi({0: 0, 1: 1})
    q.fam_a[0].vmap[0] = 1
    assert verify_universal_property(q).failures == [
        ("factor-mismatch", {"term": VId(Gen("o:0:0")), "want": 1,
                             "got": CellRef(VCELL, 0)})]
    q = sign_quasi({0: 0, 1: 1})
    q.fam_b[0].vmap[q.A.v_id(0)] = 1
    assert q.C.sq_h_id(1) == 6
    assert verify_universal_property(q).failures == [
        ("factor-mismatch", {"term": VId(Gen("o:0:0")), "want": 1,
                             "got": CellRef(VCELL, 0)}),
        ("factor-mismatch", {"term": HId(VId(Gen("o:0:0"))), "want": 6,
                             "got": CellRef(SQUARE, 0)})]


def test_universal_property_sign():
    q = sign_quasi({0: 1, 1: 0})
    rep = verify_universal_property(q)
    assert rep.passed, rep.laws_failed()


def test_universal_property_distributive():
    q = distributive_quasi({(0, 0), (1, 1), (1, 0)}, {(0, 0), (1, 1)})
    rep = verify_universal_property(q)
    assert rep.passed, rep.laws_failed()


# -- one datum of the factorization changed, one check named ------------------


def pairing_factorization():
    """The pairing quasi functor on (walk_v, walk_v), its presentation and
    its assignment, which pass; the codomain has four objects, so a 1h-cell
    can be swapped for one with other endpoints."""
    q = pairing_quasi(walk_v(), walk_v())
    pres = tensor_presentation(q.A, q.B)
    bar = factorize(q, pres)
    assert verify_universal_property(q, pres, bar).passed
    return q, pres, bar


def test_universal_property_flags_another_square_image():
    q, pres, bar = pairing_factorization()
    gen = pres.sq_gens[0]
    want = bar[gen].id
    other = (want + 1) % q.C.n_squares
    bar.env[gen] = CellRef(SQUARE, other)
    assert verify_universal_property(q, pres, bar).failures == [
        ("factor-mismatch", {"term": Gen(gen), "want": want,
                             "got": CellRef(SQUARE, other)})]


def test_universal_property_flags_a_1h_cell_image_off_its_boundary():
    q, pres, bar = pairing_factorization()
    gen = pres.t_ha(0, 0).name
    C, f = q.C, bar[gen].id
    other = next(g for g in range(C.n_hcells)
                 if (C.hsrc[g], C.htgt[g]) != (C.hsrc[f], C.htgt[f]))
    bar.env[gen] = CellRef(HCELL, other)
    rep = verify_universal_property(q, pres, bar)
    assert ("factor-boundary", {"generator": gen}) in rep.failures
    assert rep.laws_failed() == ["factor-boundary", "factor-mismatch"]


def test_universal_property_flags_an_uncovered_generator():
    q, pres, bar = pairing_factorization()
    pres.sq_gens.append("extra:0")
    assert verify_universal_property(q, pres, bar).failures == [
        ("uniqueness-uncovered", {"generator": "extra:0"})]
