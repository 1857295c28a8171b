"""Workload inputs and their known answers.

Each ``build_<workload>(seed, ctx)`` makes one round of fresh inputs from the
seed and returns its jobs.  A job is one verdict: a callable that returns
``(exit_code, laws_failed)`` and the answer it must give.  In-process checks
map a passing report to exit code 0 and a failing one to 1, the command
line's own convention, so one rule judges both.

Every known answer follows from how the input was built, never from running
the checker under test: a well-formed input passes, a mutant fails with the
law its mutation breaks, a broken document exits 2.  Inputs that hit a known
defect are ordinary jobs with the right answer; ``defect`` names the ROADMAP
defect, so a report can tell a known wrong verdict from a new one.

An item in a round may also be an ``Expand``: a callable run when the round
reaches it, returning further jobs.  Membership jobs use it, because the
cells to check exist only once the hom job before them has built its hom.
"""

import json
import os
import random
import resource
import subprocess
from collections import namedtuple

from dblcheck import core, functor, hom, monads, quasi, strictify, tensor
from dblcheck import transform

Job = namedtuple("Job", "id fn want defect", defaults=(None,))
Expand = namedtuple("Expand", "fn")

PASS = (0, None)
SCHEMA = (2, None)

N_LAWS = 100          # distributive laws sampled from bool3, carrier 3
MAX_CHECKS = 20000    # sampling budget of the capped validations
DEFECT_BOUND = 5000   # the closure budget of ROADMAP defect 2
CHILD_CPU_LIMIT_S = 120  # a child over this is killed and counts as crashed


def fails(law):
    return (1, law)


def judge(job, outcome):
    """True when the outcome matches the job's known answer."""
    code, laws = outcome
    want_code, want_law = job.want
    return code == want_code and (want_law is None or want_law in laws)


def report(rep):
    return (0 if rep.passed else 1), rep.laws_failed()


# -- shared constructions ----------------------------------------------------


def flip(p, s):
    """The other square on the same boundary of the parity fixture."""
    return p.parity_index[p.sq_bounds[s] + (1 - p.parity_sign[s],)]


def sign_square(p, top, bottom, left, right, sign):
    return p.parity_index[(top, bottom, left, right, sign)]


def sign_functor(p):
    """Identity on cells of parity with every compositor and unitor of
    sign 1.  The sign is a 2-cocycle, so every lax functor law holds."""
    F = functor.identity_functor(p)
    F.comp = {k: p.parity_index[p.sq_bounds[s] + (1,)]
              for k, s in F.comp.items()}
    F.unit = {a: p.parity_index[p.sq_bounds[s] + (1,)]
              for a, s in F.unit.items()}
    F.name = "sign1"
    return F


def walk_into_parity(w, p):
    """Strict functor sending the free 1h-cell of walk_h to h."""
    a = w.hnames.index("a")
    hmap = {x: (1 if x == a else 0) for x in range(w.n_hcells)}
    vmap = {u: 0 for u in range(w.n_vcells)}
    sqmap = {s: p.parity_index[(hmap[w.sq_top(s)], hmap[w.sq_bottom(s)],
                                0, 0, 0)] for s in range(w.n_squares)}
    return functor.strict_functor(w, p, {0: 0, 1: 0}, hmap, vmap, sqmap)


def point_functor(t, p, sign):
    """Functor from the point to parity on 1_*, compositor and unitor of
    the given sign."""
    sq = p.parity_index[(0, 0, 0, 0, sign)]
    return functor.LaxDoubleFunctor(
        t, p, {0: 0}, {0: 0}, {0: 0}, {0: p.parity_index[(0, 0, 0, 0, 0)]},
        {(0, 0): sq}, {0: sq}, name="pt%d" % sign)


def sign_quasi(signs, w=None, t=None, p=None):
    """Quasi functor (walk_h, point) -> parity.  The point family at each
    object of walk_h carries that object's sign; the interchanger on a
    1h-cell K carries the sign difference of K's endpoints, which is what
    the unit coherence laws (1_B,K) require."""
    w = w or core.walk_h()
    t = t or core.trivial()
    p = p or core.parity()
    fam_a = {a: point_functor(t, p, signs[a]) for a in range(w.n_objects)}
    fam_b = {0: walk_into_parity(w, p)}
    kk = {}
    for K in range(w.n_hcells):
        img = fam_b[0].h(K)
        kk[(0, K)] = p.parity_index[
            (img, img, 0, 0, (signs[w.hsrc[K]] + signs[w.htgt[K]]) % 2)]
    return quasi.QuasiFunctor(w, t, p, fam_a, fam_b, kk)


def sign_q_hor(q1, q2):
    """Horizontal q-transformation between two sign quasi functors on one
    frame.  Components are identities; a point-family delta carries the sum
    of the two compositor signs, which is what its coherence law with the
    compositors asks, and the walk family keeps identity deltas."""
    w, p = q1.A, q1.C
    th_a = {}
    for a in range(w.n_objects):
        F, G = q1.fA(a), q2.fA(a)
        sign = (p.parity_sign[F.compositor(0, 0)]
                + p.parity_sign[G.compositor(0, 0)]) % 2
        th_a[a] = transform.HorTransform(
            F, G, {0: 0}, {0: p.sq_h_id(0)},
            {0: sign_square(p, 0, 0, 0, 0, sign)})
    F, G = q1.fB(0), q2.fB(0)
    th_b = {0: transform.HorTransform(
        F, G, {a: 0 for a in range(w.n_objects)},
        {u: p.sq_h_id(0) for u in range(w.n_vcells)},
        {K: p.sq_v_id(F.h(K)) for K in range(w.n_hcells)})}
    return quasi.QHorTransform(q1, q2, th_a, th_b)


def flat_boundaries(d):
    return list(d.iter_flat_boundaries())


def is_identity_square(d, b):
    top, bottom, left, right = b
    return ((top == bottom and d.is_v_identity(left)
             and d.is_v_identity(right))
            or (left == right and d.is_h_identity(top)
                and d.is_h_identity(bottom)))


def pick_composite(d, bounds, rng):
    """A non-identity square of a flat category that is the horizontal
    composite of two other non-identity squares.  Removing it leaves those
    two without a composite, so hcomp-sq-closure must fail."""
    have = set(bounds)
    plain = [b for b in bounds if not is_identity_square(d, b)]
    by_left = {}
    for b in plain:
        by_left.setdefault(b[2], []).append(b)
    while True:
        b1 = plain[rng.randrange(len(plain))]
        right = by_left.get(b1[3])
        if not right:
            continue
        b2 = right[rng.randrange(len(right))]
        s = (d.hcomp_h(b1[0], b2[0]), d.hcomp_h(b1[1], b2[1]), b1[2], b2[3])
        if s in (b1, b2) or is_identity_square(d, s):
            continue
        if s not in have:
            raise RuntimeError("flat category not closed: input is broken")
        return s


def bool2_minus(rng):
    """bool2 with one seeded non-identity composite square removed."""
    d = core.bool_matrix_double_category(2)
    removed = pick_composite(d, flat_boundaries(d), rng)
    pred = d.square_pred
    d.set_flat(lambda t, b, l, r: (t, b, l, r) != removed and pred(t, b, l, r))
    return d, removed


def flat_doc(d, drop=None):
    """The JSON presentation of a flat category, every composite listed.

    Identity 1-cells get the names ``1_<obj>`` / ``1^<obj>`` that the
    format recognises, so the document describes the same category.
    """
    def hname(f):
        return "1_%s" % d.objects[d.hsrc[f]] if d.is_h_identity(f) \
            else d.hnames[f]

    def vname(u):
        return "1^%s" % d.objects[d.vsrc[u]] if d.is_v_identity(u) \
            else d.vnames[u]

    nh, nv = range(d.n_hcells), range(d.n_vcells)
    return {
        "objects": list(d.objects),
        "hcells": [{"name": hname(f), "src": d.objects[d.hsrc[f]],
                    "tgt": d.objects[d.htgt[f]]} for f in nh],
        "vcells": [{"name": vname(u), "src": d.objects[d.vsrc[u]],
                    "tgt": d.objects[d.vtgt[u]]} for u in nv],
        "flat": True,
        "hcomp_h": [[hname(f), hname(g), hname(d.hcomp_h(f, g))]
                    for f in nh for g in nh if d.htgt[f] == d.hsrc[g]],
        "vcomp_v": [[vname(u), vname(w), vname(d.vcomp_v(u, w))]
                    for u in nv for w in nv if d.vtgt[u] == d.vsrc[w]],
        "squares": [{"top": hname(t), "bottom": hname(b), "left": vname(l),
                     "right": vname(r)}
                    for (t, b, l, r) in flat_boundaries(d) if (t, b, l, r) != drop],
    }


# -- flat-check ---------------------------------------------------------------


def build_flat_check(seed, ctx):
    rng = random.Random(seed)
    jobs = []
    b2 = core.bool_matrix_double_category(2)
    jobs.append(Job("validate:bool2",
                    lambda: report(core.validate_double_category(b2)), PASS))
    with open(os.path.join(ctx.root, "fixtures", "preorder.json")) as fh:
        pre = core.from_json(json.load(fh))
    prod = core.dc_product(core.dc_product(
        core.bool_matrix_double_category(1),
        core.bool_matrix_double_category(1)), pre)
    jobs.append(Job("functor:id(bool1xbool1xpreorder)", lambda: report(
        functor.check_lax_functor(functor.identity_functor(prod))), PASS))
    # distributive laws in a flat category satisfy every law automatically
    b3 = core.bool_matrix_double_category(3)
    laws3 = monads.enumerate_distributive_laws(b3, 3)
    # one law from each of N_LAWS consecutive blocks of the enumeration, so
    # every seed checks the same mix of monad pairs
    n = len(laws3)
    picked = [rng.randrange(i * n // N_LAWS, (i + 1) * n // N_LAWS)
              for i in range(N_LAWS)]
    corpus = [("b3.%d" % i, laws3[i]) for i in picked]
    b2l = core.bool_matrix_double_category(2)
    for carrier in range(3):
        for i, lw in enumerate(monads.enumerate_distributive_laws(b2l, carrier)):
            corpus.append(("b2c%d.%d" % (carrier, i), lw))
    for tag, lw in corpus:
        q = lw.quasi
        jobs.extend([
            Job("quasi:" + tag,
                lambda q=q: report(quasi.check_quasi_functor(q)), PASS),
            Job("strictify:" + tag, lambda q=q: report(
                functor.check_lax_functor(strictify.strictify0(q))), PASS),
            Job("curry:" + tag, lambda q=q: report(
                functor.check_lax_functor(quasi.curry0(q))), PASS),
            Job("tensor:" + tag, lambda q=q: report(
                tensor.verify_universal_property(q)), PASS),
            Job("monad:" + tag, lambda lw=lw: report(
                monads.check_monad(monads.comp(lw))), PASS),
        ])
    b3d = core.bool_matrix_double_category(3)
    jobs.append(Job("comp-diagram:bool3", lambda: report(
        monads.verify_comp_diagram(b3d, sample=100, seed=seed)), PASS))
    return jobs


# -- explicit-build -----------------------------------------------------------


def _hom_jobs(flavor_name, seed):
    B, C = core.trivial(), core.parity()
    flavor = hom.FLAVORS[flavor_name]
    built = []

    def build():
        h = hom.hom_double_category(B, C, flavor, bound=MAX_CHECKS)
        hom.populate_squares(h)
        built.append(h)
        return report(core.validate_double_category(
            h, max_checks=MAX_CHECKS, seed=seed))

    def members():
        # every interned cell is a lawful member: enumerated cells pass by
        # construction and composites of lawful cells are lawful
        if not built:  # the hom job crashed and is counted already
            return []
        h = built[0]
        cells = [("obj", h.obj_payload), ("hor", h.h_payload),
                 ("vert", h.v_payload), ("mod", h.sq_payload)]
        return [Job("member:%s:%s%d" % (flavor_name, kind, i),
                    lambda h=h, x=x: report(hom.hom_membership(h, x)), PASS)
                for kind, xs in cells for i, x in enumerate(xs)]

    return [Job("hom:" + flavor_name, build, PASS), Expand(members)]


def build_explicit_build(seed, ctx):
    jobs = []
    for name in sorted(hom.FLAVORS):
        jobs.extend(_hom_jobs(name, seed))
    for oplax in (False, True):
        p = core.parity()

        def mnd(p=p, oplax=oplax):
            m = monads.mnd_double_category(p, oplax=oplax, bound=MAX_CHECKS)
            hom.populate_squares(m)
            return report(core.validate_double_category(
                m, max_checks=MAX_CHECKS, seed=seed))
        jobs.append(Job("mnd:%s" % ("oplax" if oplax else "lax"), mnd, PASS))
    # products of valid double categories are valid
    p = core.parity()
    pw = core.dc_product(core.parity(), core.walk_h())
    pp = core.dc_product(core.parity(), core.parity())
    jobs.extend([
        Job("validate:parity",
            lambda: report(core.validate_double_category(p)), PASS),
        Job("validate:parityxwalk_h",
            lambda: report(core.validate_double_category(pw)), PASS),
        Job("validate:parityxparity", lambda: report(
            core.validate_double_category(pp, max_checks=MAX_CHECKS,
                                          seed=seed)), PASS),
    ])
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    th = sign_q_hor(q1, q2)

    def qhom():
        qh = quasi.q_hom_double_category(q1.A, q1.B, q1.C)
        qh.intern_quasi(q1)
        qh.intern_quasi(q2)
        qh.intern_q_hor(th)
        hom.populate_squares(qh)
        return report(core.validate_double_category(
            qh, max_checks=MAX_CHECKS, seed=seed))
    jobs.append(Job("q-hom:sign", qhom, PASS))
    # every parity square is invertible, so each sign quasi functor is
    # unitary and strictification is an equivalence on it
    for signs in ((0, 0), (0, 1), (1, 0), (1, 1)):
        q = sign_quasi(dict(enumerate(signs)))
        jobs.append(Job("equivalence:sign%d%d" % signs, lambda q=q: report(
            strictify.check_equivalence(strictify.build_witnesses(q))), PASS))
    n1 = sign_quasi({0: 0, 1: 1})
    n2 = sign_quasi({0: 0, 1: 0}, w=n1.A, t=n1.B, p=n1.C)
    nth = sign_q_hor(n1, n2)

    def naturality():
        dom = strictify.product_dom(n1.A, n1.B)
        w1 = strictify.build_witnesses(n1, dom)
        w2 = strictify.build_witnesses(n2, dom)
        return report(strictify.check_equivalence(
            [w1, w2], hor_cells=[nth], vert_cells=[quasi.identity_q_vert(n1)]))
    jobs.append(Job("equivalence:naturality", naturality, PASS))
    return jobs


# -- mutants ------------------------------------------------------------------


def _functor_mutants():
    """Single-entry flips of parity functors, with the law each breaks."""
    p = core.parity()
    out = []
    base = functor.identity_functor(p)
    for key in sorted(base.comp):
        F = functor.identity_functor(p)
        F.comp[key] = flip(p, F.comp[key])
        # a compositor with an identity factor sits in a unit law; (h, h)
        # has none and is caught by compositor naturality
        out.append(("comp%d%d" % key, F,
                    "lx.f.c-nat" if key == (1, 1) else "lx.f.u"))
    F = functor.identity_functor(p)
    F.unit[0] = flip(p, F.unit[0])
    out.append(("unit", F, "lx.f.u"))
    # identity squares are pinned by h2 and u-nat, every other square by
    # vertical functoriality h1
    special = {p.sq_v_id(0): "lx.f.h2", p.sq_v_id(1): "lx.f.h2",
               p.sq_h_id(1): "lx.f.u-nat"}
    for s in range(p.n_squares):
        F = functor.identity_functor(p)
        F.sqmap[s] = flip(p, F.sqmap[s])
        out.append(("sqmap%d" % s, F, special.get(s, "lx.f.h1")))
    # a compositor flip on a free composable pair breaks the hexagon
    w = core.walk_h()
    H = walk_into_parity(w, p)
    ia = w.h_id(0)
    H.comp[(ia, ia)] = flip(p, H.comp[(ia, ia)])
    out.append(("hex", H, "lx.f.hex"))
    # a cyclic vertical group exposes the 1v-cell laws
    z = core.DoubleCat("z3")
    a = z.add_object("*")
    z.add_hcell("1_*", a, a, identity_of=a)
    z.add_vcell("1^*", a, a, identity_of=a)
    z.add_vcell("w", a, a)
    z.add_vcell("w2", a, a)
    z.set_hh(0, 0, 0)
    for i in range(3):
        for j in range(3):
            z.set_vv(i, j, (i + j) % 3)
    z.set_flat(lambda t, b, l, r: True)
    out.append(("v1", functor.strict_functor(z, z, {0: 0}, {0: 0},
                                             {0: 0, 1: 2, 2: 2}), "lx.f.v1"))
    out.append(("v2", functor.strict_functor(z, z, {0: 0}, {0: 0},
                                             {0: 1, 1: 1, 2: 2}), "lx.f.v2"))
    return [Job("functor:" + name, lambda F=F: report(
        functor.check_lax_functor(F)), fails(law)) for name, F, law in out]


def _transform_bases(p):
    """Passing transformations into parity, with their naturality law."""
    T = transform
    ident, sign = functor.identity_functor(p), sign_functor(p)
    hids = {u: p.sq_h_id(u) for u in range(p.n_vcells)}
    signed = {f: sign_square(p, f, f, 0, 0, 1) for f in range(p.n_hcells)}
    return [
        ("hor-oplax", T.HorTransform(ident, sign, {0: 0}, hids, signed,
                                     T.OPLAX), "h.o.t.-5"),
        ("hor-lax", T.HorTransform(sign, ident, {0: 0}, hids, signed, T.LAX),
         "h.l.t.-5"),
        ("hor-id-oplax", T.identity_hor_transform(ident, T.OPLAX), "h.o.t.-5"),
        ("hor-id-lax", T.identity_hor_transform(ident, T.LAX), "h.l.t.-5"),
        ("vert-lax", T.VertTransform(ident, sign, {0: 0}, signed, hids,
                                     T.LAX), "v.l.t.-5"),
        ("vert-oplax", T.VertTransform(sign, ident, {0: 0}, signed, hids,
                                       T.OPLAX), "v.o.t.-5"),
        ("vert-id-lax", T.identity_vert_transform(ident, T.LAX), "v.l.t.-5"),
        ("vert-id-oplax", T.identity_vert_transform(ident, T.OPLAX),
         "v.o.t.-5"),
    ]


def _transform_mutants():
    """Sign flips of one component square of a passing transformation.

    Parity squares compose by adding signs, so a law instance fails exactly
    when the flipped square occurs an odd number of times in it.  The
    naturality law over a square holds the component of one side only, and
    parity has squares with any two distinct sides, so naturality fails."""
    p = core.parity()
    jobs = []
    for i, (name, _t, law) in enumerate(_transform_bases(p)):
        hor = name.startswith("hor")
        check = (transform.check_hor_transform if hor
                 else transform.check_vert_transform)
        for field in (("delta", "comp_v") if hor else ("comp_h", "comp_v")):
            for key in (0, 1):
                t = _transform_bases(p)[i][1]
                store = getattr(t, field)
                store[key] = flip(p, store[key])
                jobs.append(Job("transform:%s:%s%d" % (name, field, key),
                                lambda t=t, c=check: report(c(t)),
                                fails(law)))
    return jobs


def _quasi_mutants():
    """Sign flips of one interchanger; the unit coherence (1_B,K) holds the
    interchanger on K exactly once."""
    jobs = []
    for signs in ((0, 0), (0, 1), (1, 0), (1, 1)):
        for K in range(3):
            q = sign_quasi(dict(enumerate(signs)))
            q.kk[(0, K)] = flip(q.C, q.kk[(0, K)])
            jobs.append(Job("quasi:sign%d%d:kk%d" % (signs + (K,)),
                            lambda q=q: report(quasi.check_quasi_functor(q)),
                            fails("(1_B,K)")))
    return jobs


def _monad_mutants():
    """Monads on parity have unit and multiplication of equal sign; a flip
    of either breaks the left unit law, whose sides differ by both signs."""
    jobs = []
    p = core.parity()
    for endo in (0, 1):
        for sign in (0, 1):
            for part in ("unit", "mult"):
                sq = sign_square(p, 0, endo, 0, 0, sign)
                other = sign_square(p, 0, endo, 0, 0, 1 - sign)
                m = monads.Monad(p, 0, endo,
                                 other if part == "unit" else sq,
                                 other if part == "mult" else sq)
                jobs.append(Job("monad:e%ds%d:%s" % (endo, sign, part),
                                lambda m=m: report(monads.check_monad(m)),
                                fails("mnd.unit-l")))
    return jobs


def build_mutants(seed, ctx):
    rng = random.Random(seed)
    jobs = (_functor_mutants() + _transform_mutants() + _quasi_mutants()
            + _monad_mutants())
    d, _removed = bool2_minus(rng)
    jobs.append(Job("validate:bool2-minus-one", lambda: report(
        core.validate_double_category(d)), fails("hcomp-sq-closure")))
    rng.shuffle(jobs)
    return jobs


# -- cli ----------------------------------------------------------------------


README_VERBS = [
    ("validate", ["validate", "fixtures/parity.json"]),
    ("functor-check", ["functor-check", "fixtures/monad-functor.json"]),
    ("transform-check", ["transform-check", "fixtures/transform-hor.json"]),
    ("quasi-check", ["quasi-check", "fixtures/preorder-pair.json"]),
    ("curry", ["curry", "fixtures/preorder-pair.json"]),
    ("strictify", ["strictify", "fixtures/preorder-pair.json"]),
    ("destrictify", ["destrictify", "fixtures/quasi-identity.json"]),
    ("tensor-factorize", ["tensor-factorize", "fixtures/preorder-pair.json"]),
    ("hom", ["hom", "fixtures/trivial.json", "fixtures/parity.json",
             "--flavor", "hop"]),
    ("monads-enumerate", ["monads-enumerate", "--size", "2"]),
    ("monads-comp", ["monads-comp", "--size", "2"]),
]


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (CHILD_CPU_LIMIT_S,
                                             CHILD_CPU_LIMIT_S))


def _cli_job(ctx, jid, argv, want, defect=None):
    out = os.path.join(ctx.tmp, jid.replace(":", "_") + ".json")

    def run():
        if os.path.exists(out):
            os.remove(out)
        # no timeout=: subprocess polls with sleeps up to 50 ms when given
        # one, which would quantize every time to verdict; a CPU limit in
        # the child stops a runaway instead
        proc = subprocess.run(ctx.cli_command(jid) + argv + ["--json", out],
                              cwd=ctx.root, env=ctx.child_env,
                              stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL,
                              preexec_fn=_limit_cpu)
        laws = []
        if proc.returncode == 1 and os.path.exists(out):
            with open(out) as fh:
                laws = [f["law"] for f in json.load(fh)["failures"]]
        if proc.returncode < 0:
            raise RuntimeError("child killed by signal %d" % -proc.returncode)
        return proc.returncode, laws
    return Job("cli:" + jid, run, want, defect)


def _write(ctx, name, doc):
    path = os.path.join(ctx.tmp, name)
    with open(path, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return os.path.relpath(path, ctx.root)


def _fixture(ctx, name):
    with open(os.path.join(ctx.root, "fixtures", name)) as fh:
        return json.load(fh)


def build_cli(seed, ctx):
    rng = random.Random(seed)
    jobs = [_cli_job(ctx, name, argv, PASS) for name, argv in README_VERBS]
    jobs.append(_cli_job(ctx, "monads-diagram", [
        "monads-diagram", "--size", "3", "--sample", "100",
        "--seed", str(seed)], PASS))
    for fx in ("trivial", "bool2", "walk", "preorder"):
        jobs.append(_cli_job(ctx, "validate:" + fx,
                             ["validate", "fixtures/%s.json" % fx], PASS))
    jobs.append(_cli_job(ctx, "uncurry", ["uncurry",
                                          "fixtures/preorder-pair.json"], PASS))
    # the preorder's unitor 1_* => R has no inverse square, so the
    # round trip stops with an error report
    jobs.append(_cli_job(ctx, "destrictify:preorder-pair", [
        "destrictify", "fixtures/preorder-pair.json"], fails("error")))

    # mutants: each moves one cell onto a boundary its law forbids
    wrong = {"top": "1_*", "bottom": "R", "left": "1^*", "right": "1^*"}
    doc = _fixture(ctx, "monad-functor.json")
    doc["unit"]["*"] = {"top": "R", "bottom": "R", "left": "1^*",
                        "right": "1^*"}
    jobs.append(_cli_job(ctx, "functor-check:unit", [
        "functor-check", _write(ctx, "functor-unit.json", doc)],
        fails("wf-unitor-boundary")))
    doc = _fixture(ctx, "transform-hor.json")
    doc["delta"]["1_*"] = wrong
    jobs.append(_cli_job(ctx, "transform-check:delta", [
        "transform-check", _write(ctx, "transform-delta.json", doc)],
        fails("wf-structure-boundary")))
    doc = _fixture(ctx, "preorder-pair.json")
    doc["kk"]["1_*,1_*"] = wrong
    jobs.append(_cli_job(ctx, "quasi-check:kk", [
        "quasi-check", _write(ctx, "quasi-kk.json", doc)],
        fails("kk-boundary")))
    d = core.bool_matrix_double_category(2)
    removed = pick_composite(d, flat_boundaries(d), rng)
    path = _write(ctx, "bool2-minus-one.json", flat_doc(d, drop=removed))
    jobs.append(_cli_job(ctx, "validate:bool2-minus-one", [
        "validate", path], fails("hcomp-sq-closure")))
    jobs.append(_cli_job(ctx, "validate:bool2-minus-one:bound", [
        "validate", "--bound", str(DEFECT_BOUND), path], fails(None),
        defect=2))

    # documents outside docs/formats.md
    for name, text, defect in [
            ("parse", "{not json", None),
            ("unknown-builtin", {"builtin": "no-such-thing"}, None),
            ("hcell-not-object", {"objects": ["*"], "hcells": ["R"]}, 4),
            ("objects-string", {"objects": "ab"}, 4)]:
        jobs.append(_cli_job(ctx, "validate:" + name, [
            "validate", _write(ctx, name + ".json", text)], SCHEMA, defect))
    jobs.append(_cli_job(ctx, "functor-check:no-frame", [
        "functor-check", _write(ctx, "no-frame.json", {"ob": {}})], SCHEMA))
    rng.shuffle(jobs)
    return jobs


BUILDERS = {
    "flat-check": build_flat_check,
    "explicit-build": build_explicit_build,
    "mutants": build_mutants,
    "cli": build_cli,
}
