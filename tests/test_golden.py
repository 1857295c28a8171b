"""Golden reports: CLI payloads, cell tables, failures and relations.

The corpus under ``tests/golden/`` pins observable behaviour for
refactors: the ``--json`` payload (without ``elapsed``) and exit code of
every README verb, of ``validate`` on every table fixture, of ``hom`` in
all four flavors, of ``curry``/``uncurry`` on the quasi fixtures and of
functor, quasi and tensor documents into ``parity`` with one flipped
square, the quasi document also through ``curry``, ``uncurry``,
``strictify`` and ``destrictify``; the full cell tables, with every cell's interning key, of the
populated ``hom(trivial, parity)`` flavors, of both monad double
categories of ``parity`` and of the sign q-hom double category; the
plain cell tables of the builtins ``parity``, ``walk_h``, ``walk_v`` and
``walk_sq``, of their ``to_json``/``from_json`` round trips and of the
same documents with the identity squares, identity-square maps and unit
rows left out, which ``from_json`` then generates; the
in-process failures (law, witness, order) of the acceptance functor
mutants, of flat validation on bool1, preorder and bool1×bool1×preorder
each less one composite square, and of single square flips of the sign
quasi functors, of identity transformations and modifications in both
orientations and of the sign q-cells; the mixed-law failures of the pairing q-cells on
(parity, walk_sq) and of their single member-square flips; the family
members of the q-cells that destrictification, uncurrying, memberwise
composition and identities produce from the sign quasi functors, each
read through its accessors on every domain cell; the tensor relations
of three small presentations, sorted per label, so they compare as
multisets; the verdict of every single mutation of a README document
(the mutations of ``tests/test_cli.py``): its exit code, then its sorted
failed law labels or its input-error message; the failures of a functor
into parity less one vertical square composite, each instance that needs
it recording its error; and the interning order a flat or hom codomain
is left in by lax functor checks out of walk_h into bool1, by quasi
functor and universal property checks of three bool2 distributive laws
and by the check of the curried pairing quasi functor.

Regenerate only for an intended change of behaviour, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

import itertools
import json
import os

import pytest

from cli_run import invoke
from dblcheck.core import (
    Gen, HComp, ValidationReport, VComp, bool_matrix_double_category,
    composable_pairs, from_json, parity, to_json, trivial,
    validate_double_category, walk_h, walk_sq, walk_v)
from dblcheck.functor import (
    LaxDoubleFunctor, check_lax_functor, identity_functor, strict_functor)
from dblcheck.hom import (
    FLAVORS, enumerate_lax_functors, hom_double_category, populate_squares)
from dblcheck.hom import HOR, OBJ, SQ, VERT, HomDoubleCat
from dblcheck.monads import enumerate_distributive_laws, mnd_double_category
from dblcheck.quasi import (
    QModification, QVertTransform, _q_cell_laws, check_q_cell,
    check_quasi_functor, curry0, curry_hor, curry_mod, curry_vert,
    hcompose_q_mod,
    identity_q_hor, identity_q_vert, q_hom_double_category, uncurry_cell,
    uncurry_mod, vcompose_q_hor, vcompose_q_mod, vcompose_q_vert)
from dblcheck.strictify import (
    destrictify_cell, destrictify_mod, product_dom, strictify_cell,
    strictify_mod)
from dblcheck.tensor import tensor_presentation, verify_universal_property
from dblcheck.transform import (
    LAX, OPLAX, HorTransform, Modification, check_hor_transform,
    check_modification, check_vert_transform, identity_hor_transform,
    identity_modification, identity_vert_transform)

from test_acceptance import _mutation_corpus, flip
from test_cli import readme_mutant_runs
from test_core import FLAT_INPUTS, is_identity_boundary, without
from test_q_cells import _with_flips
from test_quasi import (
    flip_parity_factor, identity_q_mod, pairing_quasi, sign_q_hor, sign_quasi,
    walk_into_parity)

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "..", "fixtures")
TABLE_FIXTURES = ("bool2", "parity", "preorder", "trivial", "walk")


def fx(name):
    return os.path.join(FIXTURES, name + ".json")


def _slug(flavor):
    return flavor.replace("*", "-star")


def _mutant(name, **changes):
    """A fixture document with top-level fields replaced (None drops)."""
    with open(fx(name), encoding="utf-8") as fh:
        doc = json.load(fh)
    for key, value in changes.items():
        if value is None:
            del doc[key]
        else:
            doc[key] = value
    return doc


def _functor_doc(F):
    """The cell maps, compositors and unitors of F, by name (explicit
    domain and codomain)."""
    d, c = F.dom, F.cod
    sq = lambda s: c.sq_names[s]
    return {
        "ob": {d.objects[a]: c.objects[F.obj(a)] for a in range(d.n_objects)},
        "hmap": {d.hnames[f]: c.hnames[F.h(f)] for f in range(d.n_hcells)},
        "vmap": {d.vnames[u]: c.vnames[F.v(u)] for u in range(d.n_vcells)},
        "sqmap": {d.sq_names[s]: sq(F.sq(s)) for s in range(d.n_squares)},
        "comp": {"%s,%s" % (d.hnames[f], d.hnames[g]): sq(s)
                 for (f, g), s in sorted(F.comp.items())},
        "unit": {d.objects[a]: sq(s) for a, s in sorted(F.unit.items())},
    }


def _parity_functor_doc():
    """The identity functor of parity with its (h, h) compositor flipped."""
    F = identity_functor(parity())
    doc = dict(_functor_doc(F), dom={"builtin": "parity"},
               cod={"builtin": "parity"}, name="id-flipped")
    doc["comp"]["h,h"] = F.cod.sq_names[flip(F.cod, F.comp[(1, 1)])]
    return doc


def _parity_quasi_doc(hcell="a"):
    """A sign quasi functor (walk_h, point) -> parity, written out by name,
    with its interchanger on the 1h-cell ``hcell`` of walk_h (by default
    the free one) flipped."""
    signs = {0: 0, 1: 1}
    w, p = walk_h(), parity()
    q = sign_quasi(signs, w=w, p=p)
    point = lambda sign: {
        "ob": {"*": "*"}, "hmap": {"1_*": "1_*"}, "vmap": {"1^*": "1^*"},
        "sqmap": {"Id_1_*": "s[0000:0]"},
        "comp": {"1_*,1_*": "s[0000:%d]" % sign},
        "unit": {"*": "s[0000:%d]" % sign}}
    kk = {"1_*,%s" % w.hnames[K]: p.sq_names[s] for (_, K), s in q.kk.items()}
    kk["1_*," + hcell] = p.sq_names[flip(p, q.kk[(0, w.hnames.index(hcell))])]
    return {"name": "sign-flipped", "A": {"builtin": "walk_h"},
            "B": {"objects": ["*"]}, "C": {"builtin": "parity"},
            "fam_a": {w.objects[x]: point(signs[x]) for x in signs},
            "fam_b": {"*": _functor_doc(walk_into_parity(w, p))},
            "kk": kk}


def _cli_cases():
    cases = {
        "functor-check-monad-functor":
            ["functor-check", fx("monad-functor")],
        "transform-check-transform-hor":
            ["transform-check", fx("transform-hor")],
        "quasi-check-preorder-pair": ["quasi-check", fx("preorder-pair")],
        "strictify-preorder-pair": ["strictify", fx("preorder-pair")],
        "destrictify-quasi-identity": ["destrictify", fx("quasi-identity")],
        "tensor-factorize-preorder-pair":
            ["tensor-factorize", fx("preorder-pair")],
        "monads-enumerate-2": ["monads-enumerate", "--size", "2"],
        "monads-comp-2": ["monads-comp", "--size", "2"],
        "monads-diagram-3": ["monads-diagram", "--size", "3",
                             "--sample", "100", "--seed", "0"],
        # no square R => 1_* exists, so deriving the missing cells fails;
        # pins the derivation error text carried in the witness
        "transform-check-hor-underived": ["transform-check", _mutant(
            "transform-hor", at={"*": "1_*"}, sq_v=None, delta=None)],
        "transform-check-vert-underived": ["transform-check", _mutant(
            "transform-hor", kind="vert", orientation="lax",
            at={"*": "1^*"}, sq_v=None, delta=None)],
        "functor-check-parity-flip":
            ["functor-check", _parity_functor_doc()],
        "quasi-check-parity-flip": ["quasi-check", _parity_quasi_doc()],
        "tensor-factorize-parity-flip":
            ["tensor-factorize", _parity_quasi_doc()],
    }
    for name in TABLE_FIXTURES:
        cases["validate-" + name] = ["validate", fx(name)]
    for flavor in sorted(FLAVORS):
        cases["hom-trivial-parity-" + _slug(flavor)] = [
            "hom", fx("trivial"), fx("parity"), "--flavor", flavor]
    for verb in ("curry", "uncurry"):
        for name in ("preorder-pair", "quasi-identity"):
            cases["%s-%s" % (verb, name)] = [verb, fx(name)]
    # the verbs that build on a quasi functor, given one that fails its laws
    for verb in ("curry", "uncurry", "strictify", "destrictify"):
        cases[verb + "-parity-flip"] = [verb, _parity_quasi_doc()]
    return cases


CLI_CASES = _cli_cases()


def cli_result(args, tmp_dir):
    """Exit code and payload; a document argument is written to a file."""
    args = list(args)
    for i, arg in enumerate(args):
        if isinstance(arg, dict):
            args[i] = os.path.join(tmp_dir, "input.json")
            with open(args[i], "w", encoding="utf-8") as fh:
                json.dump(arg, fh)
    out = os.path.join(tmp_dir, "payload.json")
    res = invoke(*args, "--json", out)
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["elapsed"]
    return {"exit_code": res.exit_code, "payload": payload}


def plain_table(d):
    """The cells of a double category with its composition tables: ids,
    names, boundaries, and every table as sorted rows."""
    pairs = lambda table: sorted([a, b, c] for (a, b), c in table.items())
    return {
        "counts": [d.n_objects, d.n_hcells, d.n_vcells, d.n_squares],
        "objects": d.objects, "hnames": d.hnames, "vnames": d.vnames,
        "sq_names": d.sq_names,
        "hsrc": d.hsrc, "htgt": d.htgt, "vsrc": d.vsrc, "vtgt": d.vtgt,
        "sq_bounds": [list(b) for b in d.sq_bounds],
        "hh": pairs(d._hh), "vv": pairs(d._vv),
        "hs": pairs(d._hs), "vs": pairs(d._vs),
        "sqvid": sorted(d._sqvid.items()), "sqhid": sorted(d._sqhid.items()),
    }


def cell_table(d):
    """Everything interning decides: the plain table and the interning key
    of every cell, which carries its payload's orientation, components and
    field squares."""
    ends = ([()] * d.n_objects, list(zip(d.hsrc, d.htgt)),
            list(zip(d.vsrc, d.vtgt)), d.sq_bounds)
    keys = {"%s_keys" % name: [d._key(kind, x, tuple(bounds)) for x, bounds
                               in zip(d._payloads[kind], ends[kind])]
            for name, kind in (("obj", OBJ), ("h", HOR), ("v", VERT),
                               ("sq", SQ))}
    return dict(keys, **plain_table(d))


def sign_qhom():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    qh = q_hom_double_category(q1.A, q1.B, q1.C)
    qh.intern_quasi(q1)
    qh.intern_quasi(q2)
    qh.intern_q_hor(sign_q_hor(q1, q2))
    return qh


# the categories whose populated cell tables are pinned, built unpopulated
TABLE_CATEGORIES = dict(
    {"hom-trivial-parity-" + _slug(f): (lambda f=f: hom_double_category(
        trivial(), parity(), FLAVORS[f], bound=5000)) for f in sorted(FLAVORS)},
    **{"qhom-sign": sign_qhom,
       "mnd-parity-lax": lambda: mnd_double_category(parity(), bound=5000),
       "mnd-parity-oplax": lambda: mnd_double_category(
           parity(), oplax=True, bound=5000)})

TABLE_CASES = {name: (lambda build=build: cell_table(populate_squares(build())))
               for name, build in TABLE_CATEGORIES.items()}


def _bare(doc):
    """A ``to_json`` document without its identity squares (and the rows
    naming one), its identity-square maps and its unit rows, so that
    ``from_json`` generates them."""
    ident = set(doc.pop("sq_v_id").values()) | set(doc.pop("sq_h_id").values())
    doc["squares"] = [s for s in doc["squares"] if s["name"] not in ident]
    for key in ("hcomp_sq", "vcomp_sq"):
        doc[key] = [row for row in doc[key] if ident.isdisjoint(row)]
    for key, mark in (("hcomp_h", "1_"), ("vcomp_v", "1^")):
        units = {mark + o for o in doc["objects"]}
        doc[key] = [row for row in doc[key] if units.isdisjoint(row[:2])]
    return doc


def _builtin_tables(name, build):
    """A builtin's plain table as built, after a round trip through its
    document, and rebuilt from its bare document."""
    return {name: lambda: plain_table(build()),
            name + "-json": lambda: plain_table(from_json(to_json(build()))),
            name + "-json-bare": lambda: plain_table(
                from_json(_bare(to_json(build()))))}


for _builtin in (parity, walk_h, walk_sq, walk_v):
    TABLE_CASES.update(_builtin_tables(_builtin.__name__, _builtin))


def _failures(rep):
    return [[law, {k: repr(v) for k, v in wit.items()}]
            for law, wit in rep.failures]


def functor_mutant_failures():
    """Failures of the acceptance criterion-2 functor mutants."""
    return {name: _failures(check_lax_functor(F))
            for name, F, _ in _mutation_corpus()}


def _sign_quasi_flips(signs):
    """Every single-square flip of a sign quasi functor: each interchanger
    and each family square image, compositor and unitor."""
    def fresh():
        return sign_quasi(dict(enumerate(signs)))
    out = {}
    for key in sorted(fresh().kk):
        q = fresh()
        q.kk[key] = flip(q.C, q.kk[key])
        out["kk%d" % key[1]] = q
    for fam in ("fam_a", "fam_b"):
        for x in sorted(getattr(fresh(), fam)):
            F = getattr(fresh(), fam)[x]
            for field in ("sqmap", "comp", "unit"):
                for key in sorted(getattr(F, field)):
                    q = fresh()
                    table = getattr(getattr(q, fam)[x], field)
                    table[key] = flip(q.C, table[key])
                    out["%s%d.%s%s" % (fam[-1], x, field, key)] = q
    return out


def quasi_flip_failures(derive_unit_laws):
    out = {}
    for signs in itertools.product((0, 1), repeat=2):
        for name, q in _sign_quasi_flips(signs).items():
            rep = check_quasi_functor(q, derive_unit_laws=derive_unit_laws)
            out["sign%d%d:%s" % (signs + (name,))] = _failures(rep)
    return out


def _flips(make, fields):
    """Every single-square flip of the stored squares of a fresh ``make()``;
    ``fields`` maps a name to a function from the cell to one of its square
    stores.  Every cell lies in parity, whose ids agree across instances."""
    p = parity()
    out = {}
    for name, store_of in fields.items():
        for key in sorted(store_of(make())):
            x = make()
            store = store_of(x)
            store[key] = flip(p, store[key])
            out["%s%s" % (name, key)] = x
    return out


def transform_flip_failures():
    """Flips of every component and structure square of the identity
    horizontal and vertical transformations on parity, both orientations."""
    out = {}
    for o in (OPLAX, LAX):
        hor = lambda: identity_hor_transform(identity_functor(parity()), o)
        vert = lambda: identity_vert_transform(identity_functor(parity()), o)
        for name, t in _flips(hor, {"comp_v": lambda t: t.comp_v,
                                    "delta": lambda t: t.delta}).items():
            out["hor-%s:%s" % (o, name)] = _failures(check_hor_transform(t))
        for name, t in _flips(vert, {"comp_h": lambda t: t.comp_h,
                                     "comp_v": lambda t: t.comp_v}).items():
            out["vert-%s:%s" % (o, name)] = _failures(check_vert_transform(t))
    return out


def modification_flip_failures():
    """Flips of each component of the identity modification on the identity
    horizontal transformation of the first two lax functors walk_sq ->
    parity, in both orientation pairings."""
    out = {}
    functors = list(itertools.islice(
        enumerate_lax_functors(walk_sq(), parity()), 2))
    for i, G in enumerate(functors):
        for o in (OPLAX, LAX):
            make = lambda: identity_modification(identity_hor_transform(G, o))
            for name, m in _flips(make, {"comp": lambda m: m.comp}).items():
                out["G%d-%s:%s" % (i, o, name)] = _failures(
                    check_modification(m))
    return out


def q_cell_flip_failures():
    """Flips of every stored square of the family transformations of the
    sign q-horizontal transformation and of the identity q-vertical one,
    then of each interchanger of their target quasi functor."""
    q1 = sign_quasi({0: 0, 1: 1})
    quasi = lambda signs: sign_quasi(signs, w=q1.A, t=q1.B, p=q1.C)

    def vert(q2):
        ident = identity_q_vert(q1)
        return QVertTransform(q1, q2, ident.th_a, ident.th_b)

    out = {}
    for kind, make, signs, stores in (
            ("q-hor", lambda q2: sign_q_hor(q1, q2), {0: 0, 1: 0},
             ("comp_v", "delta")),
            ("q-vert", vert, {0: 0, 1: 1}, ("comp_h", "comp_v"))):
        fields = {
            "%s%d.%s" % (fam[-1], x, field):
                lambda th, fam=fam, x=x, field=field: getattr(
                    getattr(th, fam)[x], field)
            for fam, n in (("th_a", q1.A.n_objects), ("th_b", q1.B.n_objects))
            for x in range(n) for field in stores}
        cases = _flips(lambda: make(quasi(signs)), fields)
        targets = _flips(lambda: quasi(signs), {"kk": lambda q: q.kk})
        for name, q2 in targets.items():
            cases["target." + name] = make(q2)
        for name, th in cases.items():
            out["%s:%s" % (kind, name)] = _failures(check_q_cell(th))
    return out


def pairing_q_cell_flip_failures():
    """The mixed-law failures of the identity q-cells of both kinds of the
    pairing quasi functor on (parity, walk_sq), whose variables both have
    free 1h- and 1v-cells, and of each single flip of one member square
    (its parity factor), as in ``tests/test_q_cells.py``.  Every flip fails
    a member's own law, which ``check_q_cell`` reports first and alone,
    so the mixed laws are run here by themselves, as that check runs them
    once the members pass."""
    pair = lambda: pairing_quasi(parity(), walk_sq())
    cells = _with_flips({"pair-hor": lambda: identity_q_hor(pair()),
                         "pair-vert": lambda: identity_q_vert(pair())},
                        flip_parity_factor)
    out = {}
    for name, make in cells.items():
        rep = ValidationReport()
        _q_cell_laws(make(), rep.expect)
        out[name] = _failures(rep)
    return out


def _composes(d, s, bounds):
    """True when the boundary s is both a horizontal and a vertical
    composite of two squares of d on ``bounds`` other than s."""
    hh, vv = d.hcomp_h, d.vcomp_v
    h = any(b1[3] == b2[2] and s not in (b1, b2)
            and (hh(b1[0], b2[0]), hh(b1[1], b2[1]), b1[2], b2[3]) == s
            for b1 in bounds for b2 in bounds)
    return h and any(
        b1[1] == b2[0] and s not in (b1, b2)
        and (b1[0], b2[1], vv(b1[2], b2[2]), vv(b1[3], b2[3])) == s
        for b1 in bounds for b2 in bounds)


def flat_closure_failures():
    """The flat validation failures of bool1, preorder and
    bool1×bool1×preorder, each less one composite square: the first
    square, in boundary order, that is no identity square and is both a
    horizontal and a vertical composite of two others.  preorder has none,
    each of its composites being one of its factors, so it loses its last
    square, Id_R, the horizontal composite of its plain square and Id_R."""
    out = {}
    for name in ("bool1", "preorder", "bool1xbool1xpreorder"):
        d = FLAT_INPUTS[name]()
        bounds = list(d.iter_flat_boundaries())
        dropped = next((s for s in bounds if not is_identity_boundary(d, s)
                        and _composes(d, s, bounds)), bounds[-1])
        out[name] = _failures(validate_double_category(without(d, [dropped])))
    return out


def row_error_failures():
    """The failures of the strict functor from parity into a copy of
    parity less one vertical square composite that keeps every cell but
    takes each square to the square of sign 0 on its boundary.  The
    missing composite is that of the last non-identity square of sign 0
    over the vertical identity square on its bottom.  Every instance that
    needs it records its error, and the instances after it are still
    evaluated."""
    d, c = parity(), parity()
    s = max(x for x in range(c.n_squares) if c.parity_sign[x] == 0
            and x != c.sq_v_id(c.sq_top(x)) and x != c.sq_h_id(c.sq_left(x)))
    del c._vs[(s, c.sq_v_id(c.sq_bottom(s)))]
    ids = lambda n: {x: x for x in range(n)}
    F = strict_functor(d, c, ids(d.n_objects), ids(d.n_hcells),
                       ids(d.n_vcells), {x: c.parity_index[d.sq_bounds[x] + (0,)]
                                         for x in range(d.n_squares)})
    return {"parity-less-one-vcomp": _failures(check_lax_functor(F))}


FAILURE_CASES = {
    "flat-closure": flat_closure_failures,
    "row-errors": row_error_failures,
    "functor-mutants": functor_mutant_failures,
    "quasi-flips": lambda: quasi_flip_failures(False),
    "quasi-flips-derived": lambda: quasi_flip_failures(True),
    "transform-flips": transform_flip_failures,
    "modification-flips": modification_flip_failures,
    "q-cell-flips": q_cell_flip_failures,
    "pairing-q-cell-flips": pairing_q_cell_flip_failures,
}


def _member(x):
    """A family member's name, orientation and accessor value on every
    domain cell; a modification's orientation is its horizontal then its
    vertical one."""
    d = x.dom
    cells = lambda n, read: [read(c) for c in range(n)]
    out = {"name": x.name, "at": cells(d.n_objects, x.at)}
    if isinstance(x, Modification):
        out["orientation"] = [x.top.orientation, x.left.orientation]
        return out
    out["orientation"] = x.orientation
    if isinstance(x, HorTransform):
        out["sq_v"] = cells(d.n_vcells, x.sq_v)
        out["delta_at"] = cells(d.n_hcells, x.delta_at)
    else:
        out["sq_h"] = cells(d.n_hcells, x.sq_h)
        out["sq_v"] = cells(d.n_vcells, x.sq_v)
    return out


def _q_cell(c):
    """Every member of both families of a q-cell, by index."""
    fams = ("m_a", "m_b") if isinstance(c, QModification) else ("th_a", "th_b")
    out = {"name": c.name}
    for fam in fams:
        members = getattr(c, fam)
        out[fam] = [_member(members[x]) for x in sorted(members)]
    return out


def sign_cells(signs):
    """The q-cells that unpack, compose or build identities memberwise,
    on the identity q-cells of one sign quasi functor."""
    q = sign_quasi(dict(enumerate(signs)))
    hor, vert, mod = identity_q_hor(q), identity_q_vert(q), identity_q_mod(q)
    dom = product_dom(q.A, q.B)
    hom = HomDoubleCat(q.B, q.C)
    cells = {
        "identity_q_hor": hor, "identity_q_vert": vert,
        "vcompose_q_hor": vcompose_q_hor(hor, hor),
        "vcompose_q_vert": vcompose_q_vert(vert, vert),
        "hcompose_q_mod": hcompose_q_mod(mod, mod),
        "vcompose_q_mod": vcompose_q_mod(mod, mod),
        "destrictify_hor": destrictify_cell(
            strictify_cell(hor, dom), q.A, q.B),
        "destrictify_vert": destrictify_cell(
            strictify_cell(vert, dom), q.A, q.B),
        "destrictify_mod": destrictify_mod(
            strictify_mod(mod, dom), q.A, q.B),
        "uncurry_hor": uncurry_cell(curry_hor(hor, hom), hom),
        "uncurry_vert": uncurry_cell(curry_vert(vert, hom), hom),
        "uncurry_mod": uncurry_mod(curry_mod(mod, hom), hom),
    }
    return {name: _q_cell(c) for name, c in cells.items()}


def sign_q_hor_cells():
    """The same for the sign q-horizontal transformation between two sign
    quasi functors, composed with an identity on either side."""
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    t = sign_q_hor(q1, q2)
    dom = product_dom(q1.A, q1.B)
    hom = HomDoubleCat(q1.B, q1.C)
    cells = {
        "sign_q_hor": t,
        "vcompose_q_hor-id-after": vcompose_q_hor(t, identity_q_hor(q2)),
        "vcompose_q_hor-id-before": vcompose_q_hor(identity_q_hor(q1), t),
        "destrictify_hor": destrictify_cell(
            strictify_cell(t, dom), q1.A, q1.B),
        "uncurry_hor": uncurry_cell(curry_hor(t, hom), hom),
    }
    return {name: _q_cell(c) for name, c in cells.items()}


CELL_CASES = dict({"sign%d%d" % signs: (lambda signs=signs: sign_cells(signs))
                   for signs in itertools.product((0, 1), repeat=2)},
                  **{"sign-q-hor": sign_q_hor_cells})


def mutant_verdicts():
    """The verdict of every single mutation of a README document, keyed by
    verb, document, operation and JSON path: the exit code, then the
    sorted failed law labels, or the message of an input error."""
    import tempfile
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        payload = os.path.join(tmp, "payload.json")
        for verb, doc, op, path, res in readme_mutant_runs(
                tmp, "--json", payload):
            key = "%s %s %s /%s" % (verb, doc, op, "/".join(map(str, path)))
            if res.exit_code == 2:
                out[key] = [2, res.output.strip()]
                continue
            with open(payload, encoding="utf-8") as fh:
                failures = json.load(fh)["failures"]
            os.remove(payload)
            out[key] = [res.exit_code, sorted({f["law"] for f in failures})]
    return out


MUTANT_CASES = {"readme-documents": mutant_verdicts}


def _interned(d):
    """The boundaries of a flat category's squares, in interning order."""
    return [list(b) for b in d.sq_bounds]


def walk_h_into_bool1_interning():
    """The squares of one fresh bool1 after checking in turn each lax
    functor walk_h -> bool1 of the hom enumeration (run on another bool1),
    its compositors and unitors found by their boundaries and its square
    images left to the check to derive."""
    w, b1 = walk_h(), bool_matrix_double_category(1)
    out = {}
    for n, G in enumerate(enumerate_lax_functors(
            w, bool_matrix_double_category(1))):
        F = LaxDoubleFunctor(w, b1, G.ob, G.hmap, G.vmap)
        for f, g in composable_pairs(w.hsrc, w.htgt):
            F.comp[f, g] = b1.find_square(*F._compositor_bounds(f, g))
        for a in range(w.n_objects):
            F.unit[a] = b1.find_square(*F._unitor_bounds(a))
        check_lax_functor(F)
        out["F%d" % n] = _interned(b1)
    return out


def bool2_distributive_law_interning():
    """The squares of one fresh bool2 after ``check_quasi_functor`` and
    then ``verify_universal_property`` on the first, the middle and the
    last distributive law of its enumeration over every carrier."""
    b2 = bool_matrix_double_category(2)
    laws = [lw for carrier in range(b2.n_objects)
            for lw in enumerate_distributive_laws(b2, carrier)]
    out = {}
    for n in (0, len(laws) // 2, len(laws) - 1):
        q = laws[n].quasi
        check_quasi_functor(q)
        out["L%d-quasi" % n] = _interned(b2)
        verify_universal_property(q)
        out["L%d-universal" % n] = _interned(b2)
    return out


def curried_pairing_interning():
    """The cell tables of the hom after ``check_lax_functor`` on the
    curried pairing quasi functor on (parity, walk_sq)."""
    F = curry0(pairing_quasi(parity(), walk_sq()))
    check_lax_functor(F)
    return cell_table(F.cod)


INTERNING_CASES = {
    "walk_h-into-bool1": walk_h_into_bool1_interning,
    "bool2-distributive-laws": bool2_distributive_law_interning,
    "curried-pairing": curried_pairing_interning,
}


def _term(t):
    """A compact rendering of a pasting term."""
    if isinstance(t, Gen):
        return t.name
    if isinstance(t, HComp):
        return "(%s | %s)" % (_term(t.left), _term(t.right))
    if isinstance(t, VComp):
        return "(%s / %s)" % (_term(t.top), _term(t.bottom))
    return "%s(%s)" % (type(t).__name__, _term(t.of))


def relation_table(A, B):
    """The presentation's relations as sorted [lhs, rhs] lists per label."""
    out = {}
    for label, lhs, rhs in tensor_presentation(A, B).relations:
        out.setdefault(label, []).append([_term(lhs), _term(rhs)])
    return {label: sorted(rels) for label, rels in out.items()}


RELATION_CASES = {
    "trivial-x-trivial": lambda: relation_table(trivial(), trivial()),
    "walk_h-x-trivial": lambda: relation_table(walk_h(), trivial()),
    "walk_h-x-walk_v": lambda: relation_table(walk_h(), walk_v()),
}


def _golden_path(kind, name):
    return os.path.join(GOLDEN, kind, name + ".json")


def _load(kind, name):
    with open(_golden_path(kind, name), encoding="utf-8") as fh:
        return json.load(fh)


def _roundtrip(obj):
    """JSON-normalised form, so tuples compare equal to stored lists."""
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_cli_payload_matches_golden(name, tmp_path):
    got = cli_result(CLI_CASES[name], str(tmp_path))
    assert got == _load("cli", name)


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_cell_table_matches_golden(name):
    assert _roundtrip(TABLE_CASES[name]()) == _load("tables", name)


@pytest.mark.parametrize("name", sorted(FAILURE_CASES))
def test_failures_match_golden(name):
    assert _roundtrip(FAILURE_CASES[name]()) == _load("failures", name)


@pytest.mark.parametrize("name", sorted(INTERNING_CASES))
def test_interning_order_matches_golden(name):
    assert _roundtrip(INTERNING_CASES[name]()) == _load("interning", name)


def test_row_errors_reach_the_later_instances():
    """The deletion fails h1 and c-nat with errors only, each at more than
    one instance, so the instances after the first error were evaluated."""
    failures = _load("failures", "row-errors")["parity-less-one-vcomp"]
    for law in ("lx.f.h1", "lx.f.c-nat"):
        errors = [wit for name, wit in failures if name == law]
        assert len(errors) > 1
        assert all("error" in wit and "lhs" not in wit for wit in errors)


@pytest.mark.parametrize("name", sorted(CELL_CASES))
def test_q_cell_members_match_golden(name):
    assert _roundtrip(CELL_CASES[name]()) == _load("cells", name)


@pytest.mark.parametrize("name", sorted(RELATION_CASES))
def test_relations_match_golden(name):
    assert RELATION_CASES[name]() == _load("relations", name)


@pytest.mark.parametrize("name", sorted(MUTANT_CASES))
def test_mutant_verdicts_match_golden(name):
    got, want = MUTANT_CASES[name](), _load("mutants", name)
    assert sorted(got) == sorted(want)
    assert {k: v for k, v in got.items() if v != want[k]} == {}


def test_flip_goldens_name_every_oriented_law():
    """Each law whose body depends on the orientation fails in some case."""
    covered = {law for name in ("transform-flips", "modification-flips")
               for failures in _load("failures", name).values()
               for law, _ in failures}
    assert covered >= {"h.o.t.-1", "h.o.t.-2", "h.o.t.-5",
                       "h.l.t.-1", "h.l.t.-2", "h.l.t.-5",
                       "v.l.t.-3", "v.l.t.-5", "v.o.t.-3", "v.o.t.-5",
                       "m.ho-vl.-1", "m.ho-vl.-2", "m.hl-vo.-1", "m.hl-vo.-2"}


def test_pairing_q_cell_golden_names_the_mixed_labels():
    """The mixed q-cell labels that the sign q-cells of ``q-cell-flips``
    cannot fail are each the named failure of some pairing q-cell flip."""
    covered = {law for failures in
               _load("failures", "pairing-q-cell-flips").values()
               for law, _ in failures}
    assert covered >= {"q-hor-2", "q-hor-3", "q-hor-4",
                       "q-vert-1", "q-vert-2", "q-vert-3"}


GOLDEN_KINDS = (("cli", CLI_CASES), ("tables", TABLE_CASES),
                ("failures", FAILURE_CASES), ("cells", CELL_CASES),
                ("interning", INTERNING_CASES),
                ("relations", RELATION_CASES), ("mutants", MUTANT_CASES))


def test_corpus_has_no_stray_files():
    for kind, cases in GOLDEN_KINDS:
        stored = sorted(f[:-len(".json")]
                        for f in os.listdir(os.path.join(GOLDEN, kind)))
        assert stored == sorted(cases)


def _write_corpus():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for kind, cases in GOLDEN_KINDS:
            build = ((lambda args: cli_result(args, tmp)) if kind == "cli"
                     else (lambda fn: fn()))
            os.makedirs(os.path.join(GOLDEN, kind), exist_ok=True)
            for name, case in sorted(cases.items()):
                with open(_golden_path(kind, name), "w",
                          encoding="utf-8") as fh:
                    _dump(build(case), fh)


def _dump(obj, fh):
    """One top-level field per line, so a diff names the field that moved."""
    fields = (" %s: %s" % (json.dumps(k), json.dumps(obj[k], sort_keys=True))
              for k in sorted(obj))
    fh.write("{\n%s\n}\n" % ",\n".join(fields))


if __name__ == "__main__":
    _write_corpus()
