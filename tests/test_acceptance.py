"""Acceptance gate: one end-to-end check per release criterion.

Each test prints a single pass/fail line with its runtime.  Corpora are
built deterministically (fixed seeds) so every run checks the same
instances.
"""

import itertools
import json
import os
import random
import time

from dblcheck.cli import _dc_from_doc
from dblcheck.core import (
    DoubleCat, FIXTURES, bool_matrix_double_category, parity, trivial,
    validate_double_category, walk_h)
from dblcheck.functor import (
    check_lax_functor, functor_equal, identity_functor, strict_functor)
from dblcheck.hom import HOP, HomDoubleCat, hom_double_category, populate_squares
from dblcheck.monads import (
    check_monad, comp, enumerate_distributive_laws, enumerate_monads,
    mnd_double_category, verify_comp_diagram)
from dblcheck.quasi import (
    check_q_cell, check_q_mod, check_quasi_functor, curry0, curry_hor,
    curry_mod, curry_vert, identity_q_hor, identity_q_vert,
    q_hom_double_category, uncurry0, uncurry_cell, uncurry_mod,
    vcompose_q_hor, vcompose_q_vert)
from dblcheck.strictify import (
    build_witnesses, check_equivalence, destrictify0, product_dom,
    strictify0, strictify_cell, strictify_mod)
from dblcheck.tensor import factorize, verify_universal_property
from dblcheck.transform import (
    check_hor_transform, check_modification, check_vert_transform,
    vcompose_hor, vcompose_vert)

from test_quasi import identity_q_mod, sign_q_hor, sign_quasi

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")


class gate:
    """Timed scope that prints one criterion verdict line."""

    def __init__(self, n, limit=None):
        self.n = n
        self.limit = limit

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, etype, evalue, tb):
        dt = time.monotonic() - self.t0
        ok = etype is None and (self.limit is None or dt < self.limit)
        print("criterion %d: %s (%.2fs)" % (self.n, "PASS" if ok else "FAIL", dt))
        if etype is None and self.limit is not None:
            assert dt < self.limit, \
                "criterion %d exceeded the %ss budget: %.2fs" % (
                    self.n, self.limit, dt)
        return False


# -- shared corpus -----------------------------------------------------------

_CORPUS = []


def quasi_corpus():
    """Fifty quasi functors: four sign patterns into the non-flat parity
    fixture plus distributive laws over boolean matrices (flat)."""
    if not _CORPUS:
        for signs in ({0: 0, 1: 0}, {0: 0, 1: 1}, {0: 1, 1: 0}, {0: 1, 1: 1}):
            _CORPUS.append(sign_quasi(signs))
        b2 = bool_matrix_double_category(2)
        for carrier in range(3):
            _CORPUS.extend(lw.quasi
                           for lw in enumerate_distributive_laws(b2, carrier))
        b3 = bool_matrix_double_category(3)
        laws3 = enumerate_distributive_laws(b3, 3)
        rng = random.Random(0)
        _CORPUS.extend(lw.quasi
                       for lw in rng.sample(laws3, 50 - len(_CORPUS)))
    return _CORPUS


def z3_cyclic():
    """One object, one 1h-cell, vertical cells forming a 3-element cyclic
    group, every boundary carrying a square."""
    d = DoubleCat("z3")
    a = d.add_object("*")
    d.add_hcell("1_*", a, a, identity_of=a)
    d.add_vcell("1^*", a, a, identity_of=a)
    d.add_vcell("w", a, a)
    d.add_vcell("w2", a, a)
    d.set_hh(0, 0, 0)
    for i in range(3):
        for j in range(3):
            d.set_vv(i, j, (i + j) % 3)
    d.set_flat(lambda t, b, l, r: True)
    return d


def flip(d, s):
    """The other square on the same parity boundary."""
    return d.parity_index[d.sq_bounds[s] + ((d.parity_sign[s] + 1) % 2,)]


# -- criterion 1: validity of every shipped and constructed category ---------


def test_criterion_1_validity():
    with gate(1, limit=5.0):
        for name, make in FIXTURES.items():
            if name == "bool2":
                continue  # validated below through its serialized form
            rep = validate_double_category(make())
            assert rep.passed, (name, rep.laws_failed())
        for fname in ("trivial.json", "parity.json", "bool2.json",
                      "walk.json", "preorder.json"):
            with open(os.path.join(FIXTURE_DIR, fname)) as fh:
                d = _dc_from_doc(json.load(fh))
            rep = validate_double_category(d)
            assert rep.passed, (fname, rep.laws_failed())
        # hom, q-hom, and monad double categories built by the suite
        h = populate_squares(hom_double_category(trivial(), parity(), HOP,
                                                 bound=20000))
        assert validate_double_category(h, max_checks=20000).passed
        for oplax in (False, True):
            m = populate_squares(mnd_double_category(parity(), oplax=oplax,
                                                     bound=20000))
            assert validate_double_category(m, max_checks=20000).passed
        m0 = populate_squares(mnd_double_category(trivial(), bound=2000))
        assert validate_double_category(m0, max_checks=20000).passed
        q1 = sign_quasi({0: 0, 1: 1})
        q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
        qh = q_hom_double_category(q1.A, q1.B, q1.C)
        qh.intern_quasi(q1)
        qh.intern_quasi(q2)
        qh.intern_q_hor(sign_q_hor(q1, q2))
        populate_squares(qh)
        assert validate_double_category(qh, max_checks=20000).passed
        lazy = HomDoubleCat(q1.B, q1.C, HOP)
        curry0(q1, lazy)
        populate_squares(lazy)
        assert validate_double_category(lazy, max_checks=20000).passed


# -- criterion 2: mutation sensitivity of the lax functor checker ------------


def _mutation_corpus():
    """Single-entry mutations of passing functors, with the law each one
    must appear in the failing set."""
    p = parity()
    muts = []
    base = identity_functor(p)
    for key in sorted(base.comp):
        F = identity_functor(p)
        F.comp = dict(F.comp)
        F.comp[key] = flip(p, F.comp[key])
        want = "lx.f.c-nat" if key == (1, 1) else "lx.f.u"
        muts.append(("comp%s" % (key,), F, want))
    F = identity_functor(p)
    F.unit = dict(F.unit)
    F.unit[0] = flip(p, F.unit[0])
    muts.append(("unit", F, "lx.f.u"))
    special = {p.sq_v_id(0): "lx.f.h2", p.sq_v_id(1): "lx.f.h2",
               p.sq_h_id(1): "lx.f.u-nat"}
    for s in range(p.n_squares):
        F = identity_functor(p)
        F.sqmap = dict(F.sqmap)
        F.sqmap[s] = flip(p, F.sqmap[s])
        muts.append(("sqmap%d" % s, F, special.get(s, "lx.f.h1")))
    # compositor flip on a free composable pair breaks the hexagon
    w = walk_h()
    a = [x for x in range(w.n_hcells) if w.hnames[x] == "a"][0]
    hmap = {x: (1 if x == a else 0) for x in range(w.n_hcells)}
    vmap = {u: 0 for u in range(w.n_vcells)}
    sqmap = {s: p.parity_index[(hmap[w.sq_top(s)], hmap[w.sq_bottom(s)],
                                0, 0, 0)] for s in range(w.n_squares)}
    H = strict_functor(w, p, {0: 0, 1: 0}, hmap, vmap, sqmap)
    ia = w.h_id(0)
    H.comp = dict(H.comp)
    H.comp[(ia, ia)] = flip(p, H.comp[(ia, ia)])
    muts.append(("hex", H, "lx.f.hex"))
    # a noncommutative-free vertical structure exposes the 1v-cell laws
    z = z3_cyclic()
    muts.append(("v1", strict_functor(z, z, {0: 0}, {0: 0},
                                      {0: 0, 1: 2, 2: 2}), "lx.f.v1"))
    muts.append(("v2", strict_functor(z, z, {0: 0}, {0: 0},
                                      {0: 1, 1: 1, 2: 2}), "lx.f.v2"))
    return muts


def test_criterion_2_mutation_sensitivity():
    with gate(2):
        muts = _mutation_corpus()
        assert len(muts) >= 40
        covered = set()
        for name, F, want in muts:
            rep = check_lax_functor(F)
            assert not rep.passed, name
            failed = rep.laws_failed()
            assert want in failed, (name, want, failed)
            covered.add(want)
        assert covered == {"lx.f.v1", "lx.f.v2", "lx.f.h1", "lx.f.h2",
                           "lx.f.hex", "lx.f.u", "lx.f.c-nat", "lx.f.u-nat"}


# -- criterion 3: currying round trips at all four cell levels ---------------


def test_criterion_3_currying_roundtrips():
    with gate(3, limit=10.0):
        corpus = quasi_corpus()
        assert len(corpus) >= 50
        n_hom = 0
        flavors = set()
        for q in corpus:
            flavors.add(q.C.flat)
            hom = HomDoubleCat(q.B, q.C, HOP)
            P = curry0(q, hom)
            assert check_lax_functor(P).passed
            assert curry0(q, hom) is P
            n_hom += 1
            back = uncurry0(P)
            assert all(functor_equal(back.fam_a[a], q.fam_a[a])
                       for a in back.fam_a)
            assert all(functor_equal(back.fam_b[b], q.fam_b[b])
                       for b in back.fam_b)
            assert back.kk == q.kk and back.uk == q.uk
            assert back.ku == q.ku and back.uu == q.uu
            th = identity_q_hor(q)
            bh = uncurry_cell(curry_hor(th, hom), hom)
            assert all(bh.th_a[a].comp0 == th.th_a[a].comp0
                       and bh.th_a[a].delta == th.th_a[a].delta
                       for a in th.th_a)
            assert all(bh.th_b[b].comp0 == th.th_b[b].comp0
                       and bh.th_b[b].delta == th.th_b[b].delta
                       for b in th.th_b)
            tv = identity_q_vert(q)
            bv = uncurry_cell(curry_vert(tv, hom), hom)
            assert all(bv.th_a[a].comp0 == tv.th_a[a].comp0
                       for a in tv.th_a)
            m = identity_q_mod(q)
            bm = uncurry_mod(curry_mod(m, hom), hom)
            assert all(bm.at(a, b) == m.at(a, b)
                       for a in m.m_a for b in m.m_b)
        assert n_hom >= 50
        assert flavors == {True, False}


# -- criterion 4: strictification --------------------------------------------


def test_criterion_4_strictification():
    with gate(4, limit=10.0):
        corpus = quasi_corpus()
        assert len(corpus) >= 50
        for q in corpus:
            rep = check_lax_functor(strictify0(q))
            assert rep.passed, rep.laws_failed()
        # transforms and modifications strictify to passing cells
        q1 = sign_quasi({0: 0, 1: 1})
        q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
        dom = product_dom(q1.A, q1.B)
        th, back = sign_q_hor(q1, q2), sign_q_hor(q2, q1)
        s1 = strictify_cell(th, dom)
        s2 = strictify_cell(back, dom)
        assert check_hor_transform(s1).passed
        assert check_hor_transform(s2).passed
        tv = identity_q_vert(q1)
        v1 = strictify_cell(tv, dom)
        assert check_vert_transform(v1).passed
        assert check_modification(strictify_mod(identity_q_mod(q1), dom)).passed
        # compositions are preserved on the nose
        lhs = strictify_cell(vcompose_q_hor(th, back), dom)
        rhs = vcompose_hor(s1, s2)
        assert lhs.comp0 == rhs.comp0
        assert lhs.comp_v == rhs.comp_v
        assert lhs.delta == rhs.delta
        lv = strictify_cell(vcompose_q_vert(tv, tv), dom)
        rv = vcompose_vert(v1, v1)
        assert lv.comp0 == rv.comp0
        assert lv.comp_h == rv.comp_h
        assert lv.comp_v == rv.comp_v


# -- criterion 5: strictification is an equivalence on unitary input ---------


def test_criterion_5_equivalence():
    with gate(5, limit=10.0):
        unitary = [q for q in quasi_corpus()
                   if check_quasi_functor(q, unitary=True).passed]
        assert len(unitary) >= 5
        for q in unitary:
            w = build_witnesses(q)
            rep = check_equivalence(w)
            assert rep.passed, rep.laws_failed()
        # naturality of the comparison cells over a shared frame
        q1 = sign_quasi({0: 0, 1: 1})
        q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
        dom = product_dom(q1.A, q1.B)
        w1 = build_witnesses(q1, dom)
        w2 = build_witnesses(q2, dom)
        rep = check_equivalence([w1, w2],
                                hor_cells=[sign_q_hor(q1, q2)],
                                vert_cells=[identity_q_vert(q1)])
        assert rep.passed, rep.laws_failed()


# -- criterion 6: universal property of the tensor presentation --------------


def test_criterion_6_tensor_universal_property():
    with gate(6, limit=10.0):
        corpus = quasi_corpus()
        assert len(corpus) >= 50
        for q in corpus:
            factorize(q)
            rep = verify_universal_property(q)
            assert rep.passed, rep.laws_failed()


# -- criterion 7: monads, distributive laws, and preorder counts -------------


def _preorder_count(n):
    """Brute force count of reflexive transitive relations on n elements."""
    pairs = [(i, j) for i in range(n) for j in range(n)]
    total = 0
    for bits in itertools.product((False, True), repeat=len(pairs)):
        rel = {p for p, keep in zip(pairs, bits) if keep}
        if any((i, i) not in rel for i in range(n)):
            continue
        if all((i, k) in rel
               for (i, j) in rel for (j2, k) in rel if j2 == j):
            total += 1
    return total


def test_criterion_7_monads_and_preorders():
    with gate(7, limit=30.0):
        b2 = bool_matrix_double_category(2)
        b3 = bool_matrix_double_category(3)
        for n in range(4):
            d = b3 if n == 3 else b2
            carrier = d.objects.index(str(n))
            assert len(enumerate_monads(d, carrier)) == _preorder_count(n)
        for carrier in range(3):
            for lw in enumerate_distributive_laws(b2, carrier):
                got = comp(lw)
                assert check_monad(got).passed
                assert got.endo == b2.hcomp_h(lw.ms.endo, lw.mt.endo)
        rep = verify_comp_diagram(b2)
        assert rep.passed and rep.checked == 18
        rep = verify_comp_diagram(b3, sample=100, seed=0)
        assert rep.passed and rep.checked == 100


# -- criterion 8: pseudo specialization --------------------------------------


def test_criterion_8_pseudo_specialization():
    with gate(8):
        q = sign_quasi({0: 0, 1: 1})
        assert check_quasi_functor(q, unitary=True).passed
        back = destrictify0(strictify0(q), q.A, q.B)
        assert all(q.C.vertical_inverse(s) is not None
                   for s in back.kk.values())
        direct = check_quasi_functor(back)
        derived = check_quasi_functor(back, derive_unit_laws=True)
        assert direct.passed == derived.passed
        assert direct.laws_failed() == derived.laws_failed() == []
