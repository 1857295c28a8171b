"""Tests for strictification, destrictification, and the round trip."""

import pytest

from dblcheck.core import (
    HCELL, bool_matrix_double_category, parity, product_cell, trivial)
from dblcheck.errors import NontrivialUU, NotDecomposable, NotUnitary
from dblcheck.functor import _functor_key, check_lax_functor
from dblcheck.monads import comp, enumerate_distributive_laws, monad_from_lax
from dblcheck.quasi import (
    QHorTransform, check_q_cell, check_q_mod, check_quasi_functor,
    identity_q_vert)
from dblcheck.strictify import (
    EquivalenceWitness, build_witnesses, check_equivalence, destrictify0,
    destrictify_cell, destrictify_mod, is_decomposable, product_dom,
    strictify0, strictify_cell, strictify_mod)
from dblcheck.transform import (
    HorTransform, check_hor_transform, check_modification,
    check_vert_transform, identity_hor_transform)

from test_quasi import (
    distributive_quasi, identity_q_mod, sign_q_hor, sign_quasi)


def test_strictify_sign_quasi_is_lax_functor():
    q = sign_quasi({0: 0, 1: 1})
    P = strictify0(q)
    assert P.dom.n_objects == q.A.n_objects * q.B.n_objects
    assert P.dom.n_hcells == q.A.n_hcells * q.B.n_hcells
    rep = check_lax_functor(P)
    assert rep.passed, rep.laws_failed()
    # the product domain memoizes functors already strictified over it
    assert strictify0(q, P.dom) is P


def test_product_dom_is_kept_per_pair_of_flat_factors():
    A, B = trivial(), bool_matrix_double_category(1)
    dom = product_dom(A, B)
    assert product_dom(A, B) is dom
    assert product_dom(B, A) is not dom
    assert product_dom(A, trivial()) is not dom
    assert product_dom(A, B) is dom


def _new_predicate(A, B):
    pred = B.square_pred
    B.set_flat(lambda *bound: pred(*bound))


def _new_hcell(A, B):
    x = A.add_hcell("x", 0, 0)
    for f, g in ((0, x), (x, 0), (x, x)):
        A.set_hh(f, g, x)


@pytest.mark.parametrize("edit", [_new_predicate, _new_hcell])
def test_product_dom_is_built_again_after_a_factor_changes(edit):
    A, B = trivial(), bool_matrix_double_category(1)
    dom = product_dom(A, B)
    edit(A, B)
    again = product_dom(A, B)
    assert again is not dom
    assert product_dom(A, B) is again
    assert again.n_hcells == A.n_hcells * B.n_hcells


def test_product_dom_of_an_explicit_factor_is_new_on_every_call():
    A, B = parity(), trivial()
    dom = product_dom(A, B)
    assert dom._factors[0] is A
    pair = next(iter(A._hs))
    edited = A._hs[pair] = (A._hs[pair] + 1) % A.n_squares
    again = product_dom(A, B)
    assert again is not dom and again._factors[0] is A
    # B has one square, so a product square's id is A's
    assert again._hs[pair] == edited != dom._hs[pair]


def test_strictify0_is_not_served_for_an_edited_quasi_functor():
    q = sign_quasi({0: 0, 1: 1})
    P = strictify0(q)
    (k, K), s = next(iter(q.kk.items()))
    top, bottom, left, right = q.C.sq_bounds[s]
    q.kk[k, K] = next(t for t in q.C.squares_with_boundary(
        top, bottom, left, right) if t != s)
    again = strictify0(q, P.dom)
    assert again is not P and again.comp != P.comp
    assert _functor_key(again) == _functor_key(strictify0(q))
    assert strictify0(q, P.dom) is again


def test_laws_strictify_over_a_shared_domain_as_over_a_fresh_one():
    """The 18 distributive laws of bool2: the laws of a carrier share one
    product domain, and over it ``strictify0`` and ``comp`` give what they
    give over a product built for the law alone."""
    b2 = bool_matrix_double_category(2)
    doms, n = set(), 0
    for carrier in range(b2.n_objects):
        for lw in enumerate_distributive_laws(b2, carrier):
            q = lw.quasi
            shared, fresh = product_dom(q.A, q.B), product_dom(trivial(),
                                                               trivial())
            doms.add(shared)
            P, Q = strictify0(q), strictify0(q, fresh)
            assert P.dom is shared and Q.dom is fresh
            assert _functor_key(P) == _functor_key(Q)
            assert comp(lw).data() == monad_from_lax(Q).data()
            n += 1
    assert n == 18 and len(doms) == b2.n_objects


def test_strictify_all_sign_patterns():
    for signs in ({0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}):
        P = strictify0(sign_quasi(signs))
        rep = check_lax_functor(P)
        assert rep.passed, rep.laws_failed()


def test_strictify_distributive():
    q = distributive_quasi({(0, 0), (1, 1)}, {(0, 0), (1, 1), (0, 1)})
    P = strictify0(q)
    rep = check_lax_functor(P)
    assert rep.passed, rep.laws_failed()


def test_nontrivial_uu_guard():
    # doctored entry on identity cells; the guard only inspects stored
    # interchangers, so this exercises the rejection path directly
    q = sign_quasi({0: 0, 1: 1})
    p = q.C
    q.uu[(0, 0)] = p.parity_index[(0, 0, 0, 0, 1)]
    with pytest.raises(NontrivialUU):
        strictify0(q)


def test_strictify_hor_transform():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    tr = strictify_cell(sign_q_hor(q1, q2))
    rep = check_hor_transform(tr)
    assert rep.passed, rep.laws_failed()


def test_strictify_vert_transform():
    q = sign_quasi({0: 1, 1: 0})
    tr = strictify_cell(identity_q_vert(q))
    rep = check_vert_transform(tr)
    assert rep.passed, rep.laws_failed()


def test_strictify_modification():
    q = sign_quasi({0: 0, 1: 1})
    m = strictify_mod(identity_q_mod(q))
    rep = check_modification(m)
    assert rep.passed, rep.laws_failed()


def test_destrictify_roundtrip_sign():
    q = sign_quasi({0: 0, 1: 1})
    P = strictify0(q)
    back = destrictify0(P, q.A, q.B)
    rep = check_quasi_functor(back, trivial_uU=True)
    assert rep.passed, rep.laws_failed()
    # identity padding cancels against the trivial factor images
    for a in range(q.A.n_objects):
        assert back.fam_a[a].hmap == q.fam_a[a].hmap
        assert back.fam_a[a].ob == q.fam_a[a].ob
    assert back.kk == q.kk


def test_destrictify_needs_unitary():
    # both carriers reflexive and transitive but not discrete: compositors
    # are invertible, unitors are not
    full = {(0, 0), (0, 1), (1, 0), (1, 1)}
    q = distributive_quasi(full, full)
    P = strictify0(q)
    assert is_decomposable(P, q.A, q.B)
    with pytest.raises(NotUnitary):
        destrictify0(P, q.A, q.B)


def test_destrictify_needs_decomposable():
    full = {(0, 0), (0, 1), (1, 0), (1, 1)}
    q = distributive_quasi(full, full)
    P = strictify0(q)
    b2 = q.C
    o = b2.objects.index("2")
    empty = b2.hindex[(o, o, frozenset())]
    R = q.fB(0).h(0)
    # doctor the padded compositor into a square with no vertical inverse
    P.comp[(0, 0)] = b2.find_square(empty, b2.hcomp_h(R, R),
                                    b2.v_id(o), b2.v_id(o))
    assert not is_decomposable(P, q.A, q.B)
    with pytest.raises(NotDecomposable):
        destrictify0(P, q.A, q.B)


def test_destrictify_hor_roundtrip():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    dom = product_dom(q1.A, q1.B)
    tr = strictify_cell(sign_q_hor(q1, q2), dom)
    back = destrictify_cell(tr, q1.A, q1.B)
    rep = check_q_cell(back)
    assert rep.passed, rep.laws_failed()


def test_destrictify_vert_roundtrip():
    q = sign_quasi({0: 0, 1: 1})
    dom = product_dom(q.A, q.B)
    tr = strictify_cell(identity_q_vert(q), dom)
    back = destrictify_cell(tr, q.A, q.B)
    rep = check_q_cell(back)
    assert rep.passed, rep.laws_failed()


def test_destrictify_mod_roundtrip():
    q = sign_quasi({0: 1, 1: 1})
    dom = product_dom(q.A, q.B)
    m = strictify_mod(identity_q_mod(q), dom)
    back = destrictify_mod(m, q.A, q.B)
    rep = check_q_mod(back)
    assert rep.passed, rep.laws_failed()


def test_equivalence_witnesses():
    for signs in ({0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 1}):
        w = build_witnesses(sign_quasi(signs))
        assert w.strict_back.dom is w.strict.dom
        rep = check_equivalence(w)
        assert rep.passed, rep.laws_failed()


def test_equivalence_corpus_naturality():
    from dblcheck.quasi import identity_q_vert as qvert
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    dom = product_dom(q1.A, q1.B)
    w1 = build_witnesses(q1, dom)
    w2 = build_witnesses(q2, dom)
    rep = check_equivalence([w1, w2],
                            hor_cells=[sign_q_hor(q1, q2)],
                            vert_cells=[qvert(q1)])
    assert rep.passed, rep.laws_failed()


# -- check_equivalence on one wrong datum ------------------------------------


def flip_sign(p, s):
    """The other square of parity on the boundary of s."""
    return p.parity_index[p.sq_bounds[s] + (1 - p.parity_sign[s],)]


def naturality_corpus():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    dom = product_dom(q1.A, q1.B)
    return (build_witnesses(q1, dom), build_witnesses(q2, dom),
            sign_q_hor(q1, q2))


@pytest.mark.parametrize("label", ["kappa-naturality", "lambda-naturality"])
def test_comparison_with_a_flipped_sign_is_not_natural(label):
    # the generator a of walk_h occurs once on each side of every law of a
    # transformation, so flipping the sign of its structure square leaves
    # the comparison lawful; only naturality against the corpus sees it
    w1, w2, t = naturality_corpus()
    p, a = w1.q.C, w1.q.A.hnames.index("a")
    if label == "kappa-naturality":
        delta = w1.kappa.th_b[0].delta
    else:
        delta = w1.lam.delta
        a = product_cell(w1.strict.dom, HCELL, a, 0)
    delta[a] = flip_sign(p, delta[a])
    rep = check_equivalence([w1, w2], hor_cells=[t])
    assert rep.laws_failed() == [label]


def shifted(th, h):
    """th with the 1h-cell h as every component and each square moved to
    the one of the same sign on the boundary h asks for."""
    p = th.cod
    out = HorTransform(th.F, th.G, {x: h for x in th.comp0}, {}, {},
                       th.orientation)
    for table, store, bounds in ((th.comp_v, out.comp_v, out._sq_v_bounds),
                                 (th.delta, out.delta, out._delta_bounds)):
        for x, s in table.items():
            store[x] = p.parity_index[bounds(x) + (p.parity_sign[s],)]
    return out


def test_comparison_families_that_disagree():
    # a component moved alone takes its squares off their boundaries, so
    # the member at a = 0 is moved whole onto the nonidentity 1h-cell h:
    # it stays lawful, but no longer agrees with the other family
    w = build_witnesses(sign_quasi({0: 0, 1: 1}))
    w.kappa.th_a[0] = shifted(w.kappa.th_a[0], 1)
    assert check_equivalence(w).failures == [
        ("kappa.q-agreement", {"a": 0, "b": 0})]


@pytest.mark.parametrize("label", ["kappa-not-invertible",
                                   "lambda-not-invertible"])
def test_comparison_with_a_noninvertible_square(label):
    """Every globular square of parity is invertible, and ``build_witnesses``
    unpacks only decomposable, unitary functors, whose comparisons are
    invertible; so the witness is put together by hand over Boolean
    matrices.  The comparison with component R = {(1, 1)} on the preorder
    carrier S is lawful, since the codomain is flat, but its structure
    square is the strict inclusion of S;R in R;S."""
    full = {(0, 0), (1, 1), (0, 1)}
    q = distributive_quasi({(0, 0), (1, 1)}, full)
    b2, P = q.C, strictify0(q)
    o = b2.objects.index("2")
    ident, rel = b2.h_id(o), b2.hindex[(o, o, frozenset({(1, 1)}))]

    def comparison(h):
        return QHorTransform(
            q, q, {0: HorTransform(q.fam_a[0], q.fam_a[0], {0: h})},
            {0: HorTransform(q.fam_b[0], q.fam_b[0], {0: h})})
    if label == "kappa-not-invertible":
        kappa, lam = comparison(rel), identity_hor_transform(P)
    else:
        kappa, lam = comparison(ident), HorTransform(P, P, {0: rel})
    w = EquivalenceWitness(q, P, q, P, kappa, lam)
    assert check_equivalence(w).failures == [(label, {"hcell": 0})]
