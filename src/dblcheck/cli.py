"""Command line front end: load JSON descriptions, run checks, report.

All verbs share one report shape: a verdict, a list of law failures with
witnesses, timing, and verb-specific details.  The text rendering is a
pure function of the machine payload, so writing the payload with --json
and re-rendering it reproduces the text output exactly.

Exit codes: 0 when the verdict passes, 1 on law failures, 2 on parse or
schema errors.

Only ``core`` and ``errors`` load with this module.  Each verb, or the
loader it calls, imports the modules of its own construction, so a
one-shot run does not compile the rest of the package.
"""

import json
import re
import sys
import time

import click

from .core import (
    ValidationReport, bool_matrix_double_category, from_json, parity, trivial,
    validate_double_category, walk_h, walk_v, walk_sq)
from .errors import DblError


class SchemaError(Exception):
    """Input does not match the documented JSON formats."""


class _IllFormed(Exception):
    """A well-formedness pass failed; carries its report and details."""


# the least number of draws per sampled law of ``hom``: a smaller
# enumeration budget does not weaken the check of what was enumerated
LAW_CHECKS = 5000

# the keys of ``hom.FLAVORS``, spelled out so that building the command
# line does not import ``hom``
FLAVOR_NAMES = ["hop", "hop*", "st", "st-u"]

BUILTINS = {
    "trivial": trivial,
    "walk_h": walk_h,
    "walk_v": walk_v,
    "walk_sq": walk_sq,
    "parity": parity,
}


# -- loading ----------------------------------------------------------------


def _read_doc(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SchemaError("%s: %s" % (path, exc))


def _dc_from_doc(doc):
    if not isinstance(doc, dict):
        raise SchemaError("double category description must be an object")
    if "builtin" in doc:
        name = doc["builtin"]
        if name == "bool_matrix":
            size = doc.get("size", 2)
            if type(size) is not int or not 0 <= size <= 3:
                raise SchemaError("bool_matrix size must be an integer 0 to 3")
            return bool_matrix_double_category(size)
        if name not in BUILTINS:
            raise SchemaError("unknown builtin %r" % name)
        return BUILTINS[name]()
    _check_tables_doc(doc)
    try:
        return from_json(doc)
    except (KeyError, DblError) as exc:
        raise SchemaError("bad double category tables: %s" % exc)


def _check_tables_doc(doc):
    """Reject explicit tables whose fields have the wrong JSON types."""
    def names(xs, n=None):
        return (isinstance(xs, list) and (n is None or len(xs) == n)
                and all(isinstance(x, str) for x in xs))

    def cells(xs, fields):
        return isinstance(xs, list) and all(
            isinstance(x, dict) and all(isinstance(x.get(k), str)
                                        for k in fields) for x in xs)

    def name_map(m):
        return isinstance(m, dict) and all(isinstance(v, str)
                                           for v in m.values())

    if not names(doc.get("objects")):
        raise SchemaError('"objects" must be a list of names')
    for key in ("hcells", "vcells"):
        if not cells(doc.get(key, []), ("name", "src", "tgt")):
            raise SchemaError('"%s" must be a list of objects with string '
                              '"name", "src" and "tgt"' % key)
    for key in ("hcomp_h", "vcomp_v", "hcomp_sq", "vcomp_sq"):
        triples = doc.get(key, [])
        if not (isinstance(triples, list)
                and all(names(t, 3) for t in triples)):
            raise SchemaError('"%s" must be a list of name triples' % key)
    flat = doc.get("flat", False)
    if not isinstance(flat, bool):
        raise SchemaError('"flat" must be true or false')
    sides = ("top", "bottom", "left", "right") + (() if flat else ("name",))
    if not cells(doc.get("squares", []), sides):
        raise SchemaError('"squares" must be a list of objects with string '
                          + ", ".join('"%s"' % k for k in sides))
    for key in ("sq_v_id", "sq_h_id"):
        if not name_map(doc.get(key, {})):
            raise SchemaError('"%s" must map cell names to square names' % key)


def _index(names, kind):
    lookup = {}
    for i, nm in enumerate(names):
        lookup[nm] = i
    def resolve(nm):
        if not isinstance(nm, str) or nm not in lookup:
            raise SchemaError("unknown %s %r" % (kind, nm))
        return lookup[nm]
    return resolve


def _object(doc, what):
    if not isinstance(doc, dict):
        raise SchemaError("%s must be a JSON object" % what)
    return doc


def _field(doc, key, what, required=False):
    """The field ``key`` of ``doc``, which must be a JSON object; ``{}``
    when an optional field is absent."""
    if key not in doc:
        if required:
            raise SchemaError("%s needs %r" % (what, key))
        return {}
    return _object(doc[key], '%s field "%s"' % (what, key))


def _square_ref(d, ref, oh, ov):
    """A square given by name (explicit backend) or by boundary."""
    if isinstance(ref, str):
        return _index(d.sq_names, "square")(ref)
    if isinstance(ref, dict):
        top, bottom = oh(ref["top"]), oh(ref["bottom"])
        left, right = ov(ref["left"]), ov(ref["right"])
        try:
            s = d.find_square(top, bottom, left, right)
        except DblError as exc:  # a flat category rejects an open boundary
            raise SchemaError("bad square boundary %r: %s" % (ref, exc))
        if s is None:
            raise SchemaError("no square with boundary %r" % (ref,))
        return s
    raise SchemaError("square reference must be a name or a boundary")


def _domain_square(d):
    """Resolve a domain square by name.  The squares of a flat category
    are named by their sides, ``[top/bottom;left/right]``, as
    ``find_square`` names them when it interns them."""
    by_name = _index(d.sq_names, "square")
    if not d.flat:
        return by_name
    oh, ov = _index(d.hnames, "1h-cell"), _index(d.vnames, "1v-cell")

    def resolve(nm):
        sides = (re.fullmatch(r"\[([^/;]+)/([^/;]+);([^/;]+)/([^/;]+)\]", nm)
                 if isinstance(nm, str) else None)
        if sides is None:
            return by_name(nm)
        return _square_ref(d, dict(zip(
            ("top", "bottom", "left", "right"), sides.groups())), oh, ov)
    return resolve


def _functor_from_doc(doc, dom, cod, name="F"):
    from .functor import LaxDoubleFunctor
    what = "functor description"
    _object(doc, what)
    do, dh, dv = (_index(dom.objects, "object"), _index(dom.hnames, "1h-cell"),
                  _index(dom.vnames, "1v-cell"))
    co, ch, cv = (_index(cod.objects, "object"), _index(cod.hnames, "1h-cell"),
                  _index(cod.vnames, "1v-cell"))
    try:
        ob = {do(k): co(v)
              for k, v in _field(doc, "ob", what, True).items()}
        hmap = {dh(k): ch(v)
                for k, v in _field(doc, "hmap", what, True).items()}
        vmap = {dv(k): cv(v)
                for k, v in _field(doc, "vmap", what, True).items()}
        sqmap = None
        if _field(doc, "sqmap", what):
            ds, cs = _domain_square(dom), _index(cod.sq_names, "square")
            sqmap = {ds(k): cs(v) for k, v in doc["sqmap"].items()}
        comp_t = {}
        for key, ref in _field(doc, "comp", what).items():
            f, g = key.split(",")
            comp_t[(dh(f), dh(g))] = _square_ref(cod, ref, ch, cv)
        unit = {do(k): _square_ref(cod, ref, ch, cv)
                for k, ref in _field(doc, "unit", what).items()}
        return LaxDoubleFunctor(dom, cod, ob, hmap, vmap, sqmap,
                                comp_t or None, unit or None,
                                name=doc.get("name", name))
    except (KeyError, ValueError) as exc:
        raise SchemaError("bad functor description: %s" % exc)


def _load_functor(doc):
    _object(doc, "functor description")
    if "dom" not in doc or "cod" not in doc:
        raise SchemaError("functor description needs dom and cod")
    dom = _dc_from_doc(doc["dom"])
    cod = _dc_from_doc(doc["cod"])
    return _functor_from_doc(doc, dom, cod)


def _load_quasi(doc):
    from .quasi import QuasiFunctor
    what = "quasi functor description"
    _object(doc, what)
    for key in ("A", "B", "C"):
        if key not in doc:
            raise SchemaError("quasi functor description needs %s" % key)
    A = _dc_from_doc(doc["A"])
    B = _dc_from_doc(doc["B"])
    C = _dc_from_doc(doc["C"])
    ao, bo = _index(A.objects, "object"), _index(B.objects, "object")
    ah, bh = _index(A.hnames, "1h-cell"), _index(B.hnames, "1h-cell")
    av, bv = _index(A.vnames, "1v-cell"), _index(B.vnames, "1v-cell")
    ch, cv = _index(C.hnames, "1h-cell"), _index(C.vnames, "1v-cell")
    try:
        fam_a = {ao(k): _functor_from_doc(sub, B, C, name="F_%s" % k)
                 for k, sub in _field(doc, "fam_a", what, True).items()}
        fam_b = {bo(k): _functor_from_doc(sub, A, C, name="F_%s" % k)
                 for k, sub in _field(doc, "fam_b", what, True).items()}
        for key, fam, X in (("fam_a", fam_a, A), ("fam_b", fam_b, B)):
            missing = [nm for x, nm in enumerate(X.objects) if x not in fam]
            if missing:
                raise SchemaError("%s leaves out object %r"
                                  % (key, missing[0]))

        def table(field, left, right):
            out = {}
            for key, ref in _field(doc, field, what).items():
                x, y = key.split(",")
                out[(left(x), right(y))] = _square_ref(C, ref, ch, cv)
            return out

        return QuasiFunctor(A, B, C, fam_a, fam_b,
                            table("kk", bh, ah), table("uk", bv, ah),
                            table("ku", bh, av), table("uu", bv, av),
                            name=doc.get("name", "H"))
    except (KeyError, ValueError) as exc:
        raise SchemaError("bad quasi functor description: %s" % exc)


def _wellformed_quasi(path):
    """The quasi functor of the document at path.  The verbs that build on
    it first run the well-formedness pass of ``quasi-check``; a failure
    ends the verb with that pass's report."""
    from .quasi import _check_quasi_wellformed
    q = _load_quasi(_read_doc(path))
    rep = ValidationReport()
    _check_quasi_wellformed(rep, q)
    if not rep.passed:
        raise _IllFormed(rep, {"quasi": q.name})
    return q


def _wellformed_transform(doc):
    """The transformation of doc.  Its functors first pass the
    well-formedness pass of ``functor-check``, reported under ``F.`` and
    ``G.``; a failure ends the verb with that report before any
    transformation law reads them."""
    from .functor import check_wellformed
    t = _load_transform(doc)
    rep = ValidationReport()
    for name, F in (("F", t.F), ("G", t.G)):
        rep.merge(check_wellformed(F), prefix=name + ".")
    if not rep.passed:
        raise _IllFormed(rep, {"kind": doc["kind"],
                               "orientation": t.orientation})
    return t


def _load_transform(doc):
    from .transform import LAX, OPLAX, HorTransform, VertTransform
    what = "transform description"
    kind = _object(doc, what).get("kind")
    if kind not in ("hor", "vert"):
        raise SchemaError('transform description needs kind "hor" or "vert"')
    for key in ("dom", "cod", "F", "G"):
        if key not in doc:
            raise SchemaError("%s needs %r" % (what, key))
    dom = _dc_from_doc(doc["dom"])
    cod = _dc_from_doc(doc["cod"])
    F = _functor_from_doc(doc["F"], dom, cod, name="F")
    G = _functor_from_doc(doc["G"], dom, cod, name="G")
    do, dh, dv = (_index(dom.objects, "object"), _index(dom.hnames, "1h-cell"),
                  _index(dom.vnames, "1v-cell"))
    ch, cv = _index(cod.hnames, "1h-cell"), _index(cod.vnames, "1v-cell")
    orientation = doc.get("orientation", "oplax" if kind == "hor" else "lax")
    if orientation not in (OPLAX, LAX):
        raise SchemaError("unknown orientation %r" % orientation)
    try:
        if kind == "hor":
            comp0 = {do(k): ch(v)
                     for k, v in _field(doc, "at", what, True).items()}
            comp_v = {dv(k): _square_ref(cod, ref, ch, cv)
                      for k, ref in _field(doc, "sq_v", what).items()}
            delta = {dh(k): _square_ref(cod, ref, ch, cv)
                     for k, ref in _field(doc, "delta", what).items()}
            return HorTransform(F, G, comp0, comp_v, delta, orientation,
                                name=doc.get("name", "alpha"))
        comp0 = {do(k): cv(v)
                 for k, v in _field(doc, "at", what, True).items()}
        comp_h = {dh(k): _square_ref(cod, ref, ch, cv)
                  for k, ref in _field(doc, "sq_h", what).items()}
        comp_v = {dv(k): _square_ref(cod, ref, ch, cv)
                  for k, ref in _field(doc, "sq_v", what).items()}
        return VertTransform(F, G, comp0, comp_h, comp_v, orientation,
                             name=doc.get("name", "alpha0"))
    except (KeyError, ValueError) as exc:
        raise SchemaError("bad transform description: %s" % exc)


# -- reporting --------------------------------------------------------------


def _payload(command, rep, started, details=None):
    failures = [{"law": law, "witness": {k: repr(v) for k, v in wit.items()}}
                for law, wit in rep.failures]
    return {
        "command": command,
        "verdict": "passed" if rep.passed else "failed",
        "failures": failures,
        "sampled": rep.sampled,
        "reduced": rep.reduced,
        "elapsed": round(time.monotonic() - started, 3),
        "details": details or {},
    }


def render_text(payload):
    lines = ["%s: %s (%.3fs)" % (payload["command"], payload["verdict"],
                                 payload["elapsed"])]
    for key in sorted(payload["details"]):
        lines.append("  %s: %s" % (key, payload["details"][key]))
    for law, info in sorted(payload.get("sampled", {}).items()):
        lines.append("  sampled %s: %d draws, seed %d"
                     % (law, info["draws"], info["seed"]))
    for law, n in sorted(payload.get("reduced", {}).items()):
        lines.append("  reduced %s: %d instances" % (law, n))
    for failure in payload["failures"]:
        wit = ", ".join("%s=%s" % (k, v)
                        for k, v in sorted(failure["witness"].items()))
        lines.append("  FAIL %s%s" % (failure["law"],
                                      " [%s]" % wit if wit else ""))
    return "\n".join(lines)


def _finish(payload, json_path):
    if json_path:
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
    click.echo(render_text(payload))
    sys.exit(0 if payload["verdict"] == "passed" else 1)


def _run(command, json_path, fn):
    """Execute a verb body and translate outcomes into exit codes."""
    started = time.monotonic()
    try:
        rep, details = fn()
    except SchemaError as exc:
        click.echo("%s: input error: %s" % (command, exc), err=True)
        sys.exit(2)
    except _IllFormed as exc:
        rep, details = exc.args
    except DblError as exc:
        rep = ValidationReport()
        rep.add("error", reason=str(exc))
        _finish(_payload(command, rep, started), json_path)
        return
    _finish(_payload(command, rep, started, details), json_path)


def _json_option(fn):
    return click.option("--json", "json_path", type=click.Path(),
                        default=None,
                        help="also write the machine report here")(fn)


@click.group()
def main():
    """Equational checks for finite strict double categories."""


@main.command()
@click.argument("path", type=click.Path(exists=True))
@click.option("--bound", type=click.IntRange(min=0), default=None,
              help="most composable pairs of flat squares to check for "
                   "closure; a larger category fails with flat-too-large")
@_json_option
def validate(path, bound, json_path):
    """Validate the double category axioms on a JSON description."""
    def body():
        d = _dc_from_doc(_read_doc(path))
        rep = validate_double_category(d, closure_limit=bound)
        return rep, {"objects": d.n_objects, "hcells": d.n_hcells,
                     "vcells": d.n_vcells}
    _run("validate", json_path, body)


@main.command("functor-check")
@click.argument("path", type=click.Path(exists=True))
@_json_option
def functor_check(path, json_path):
    """Check the lax double functor laws."""
    def body():
        from .functor import check_lax_functor
        F = _load_functor(_read_doc(path))
        return check_lax_functor(F), {"functor": F.name}
    _run("functor-check", json_path, body)


@main.command("transform-check")
@click.argument("path", type=click.Path(exists=True))
@_json_option
def transform_check(path, json_path):
    """Check a horizontal or vertical transformation."""
    def body():
        from .transform import check_hor_transform, check_vert_transform
        doc = _read_doc(path)
        t = _wellformed_transform(doc)
        check = (check_hor_transform if doc["kind"] == "hor"
                 else check_vert_transform)
        return check(t), {"kind": doc["kind"], "orientation": t.orientation}
    _run("transform-check", json_path, body)


@main.command("quasi-check")
@click.argument("path", type=click.Path(exists=True))
@click.option("--trivial-uu", is_flag=True,
              help="require the (u,U) interchangers to be trivial")
@_json_option
def quasi_check(path, trivial_uu, json_path):
    """Check the quasi functor laws."""
    def body():
        from .quasi import check_quasi_functor
        q = _load_quasi(_read_doc(path))
        rep = check_quasi_functor(q, trivial_uU=trivial_uu)
        return rep, {"quasi": q.name}
    _run("quasi-check", json_path, body)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@_json_option
def curry(path, json_path):
    """Check a quasi functor, then curry it and check the lax functor."""
    def body():
        from .functor import check_lax_functor
        from .quasi import check_quasi_functor, curry0
        q = _load_quasi(_read_doc(path))
        rep = check_quasi_functor(q)
        if not rep.passed:
            return rep, {"quasi": q.name}
        P = curry0(q)
        return check_lax_functor(P), {"codomain": P.cod.name}
    _run("curry", json_path, body)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@_json_option
def uncurry(path, json_path):
    """Round-trip a quasi functor through currying and compare cells."""
    def body():
        from .quasi import check_quasi_functor, curry0, uncurry0
        q = _wellformed_quasi(path)
        back = uncurry0(curry0(q))
        rep = ValidationReport()
        for a, F in q.fam_a.items():
            G = back.fam_a[a]
            if (F.ob, F.hmap, F.vmap) != (G.ob, G.hmap, G.vmap):
                rep.add("roundtrip-fam-a", a=a)
        for b, F in q.fam_b.items():
            G = back.fam_b[b]
            if (F.ob, F.hmap, F.vmap) != (G.ob, G.hmap, G.vmap):
                rep.add("roundtrip-fam-b", b=b)
        for field in ("kk", "uk", "ku", "uu"):
            if getattr(q, field) != getattr(back, field):
                rep.add("roundtrip-%s" % field)
        rep.merge(check_quasi_functor(back))
        return rep, {"quasi": q.name}
    _run("uncurry", json_path, body)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@_json_option
def strictify(path, json_path):
    """Strictify a quasi functor and check the lax functor laws."""
    def body():
        from .functor import check_lax_functor
        from .strictify import strictify0
        q = _wellformed_quasi(path)
        P = strictify0(q)
        return check_lax_functor(P), {
            "domain-objects": P.dom.n_objects,
            "domain-hcells": P.dom.n_hcells}
    _run("strictify", json_path, body)


@main.command()
@click.argument("path", type=click.Path(exists=True))
@_json_option
def destrictify(path, json_path):
    """Strictify, destrictify back, and re-check the quasi functor laws."""
    def body():
        from .quasi import check_quasi_functor
        from .strictify import destrictify0, strictify0
        q = _wellformed_quasi(path)
        back = destrictify0(strictify0(q), q.A, q.B)
        rep = check_quasi_functor(back, trivial_uU=True)
        return rep, {"quasi": q.name}
    _run("destrictify", json_path, body)


@main.command("tensor-factorize")
@click.argument("path", type=click.Path(exists=True))
@_json_option
def tensor_factorize(path, json_path):
    """Factor a quasi functor through the tensor presentation."""
    def body():
        from .tensor import verify_universal_property
        q = _wellformed_quasi(path)
        rep = verify_universal_property(q)
        return rep, {"quasi": q.name}
    _run("tensor-factorize", json_path, body)


@main.command()
@click.argument("path_b", type=click.Path(exists=True))
@click.argument("path_c", type=click.Path(exists=True))
@click.option("--flavor", type=click.Choice(FLAVOR_NAMES), default="hop")
@click.option("--bound", type=click.IntRange(min=0), default=5000,
              help="total enumeration budget: candidates tried over all "
                   "functors and transformations together; also the draws "
                   "per sampled law, but never fewer than 5000")
@_json_option
def hom(path_b, path_c, flavor, bound, json_path):
    """Build a hom double category by enumeration and validate it."""
    def body():
        from .hom import FLAVORS, hom_double_category, populate_squares
        B = _dc_from_doc(_read_doc(path_b))
        C = _dc_from_doc(_read_doc(path_c))
        h = hom_double_category(B, C, FLAVORS[flavor], bound=bound)
        populate_squares(h)
        rep = validate_double_category(h, max_checks=max(bound, LAW_CHECKS))
        return rep, {"objects": h.n_objects, "hcells": h.n_hcells,
                     "vcells": h.n_vcells, "squares": h.n_squares}
    _run("hom", json_path, body)


def _bool_matrix_carrier(size):
    if size < 0 or size > 3:
        raise SchemaError("--size must be between 0 and 3")
    d = bool_matrix_double_category(size)
    return d, d.objects.index(str(size))


@main.command("monads-enumerate")
@click.option("--semiring", type=click.Choice(["bool"]), default="bool")
@click.option("--size", type=int, default=2,
              help="carrier size over the Boolean matrix category")
@_json_option
def monads_enumerate(semiring, size, json_path):
    """List the monads on a Boolean matrix carrier."""
    def body():
        from .monads import enumerate_monads
        d, carrier = _bool_matrix_carrier(size)
        monads = enumerate_monads(d, carrier)
        details = {"count": len(monads)}
        for i, m in enumerate(monads):
            details["monad-%02d" % i] = d.hnames[m.endo]
        return ValidationReport(), details
    _run("monads-enumerate", json_path, body)


@main.command("monads-comp")
@click.option("--size", type=int, default=2)
@_json_option
def monads_comp(size, json_path):
    """Compose every distributive law and check the composite monads."""
    def body():
        from .monads import check_monad, comp, enumerate_distributive_laws
        d, carrier = _bool_matrix_carrier(size)
        rep = ValidationReport()
        laws = enumerate_distributive_laws(d, carrier)
        for lw in laws:
            sub = check_monad(comp(lw))
            rep.merge(sub, prefix="%r: " % lw)
        return rep, {"laws": len(laws)}
    _run("monads-comp", json_path, body)


@main.command("monads-diagram")
@click.option("--size", type=int, default=2)
@click.option("--sample", type=click.IntRange(min=0), default=None,
              help="check a random subset of the distributive laws")
@click.option("--seed", type=int, default=0)
@_json_option
def monads_diagram(size, sample, seed, json_path):
    """Compare strictified and direct monad composition on all laws."""
    def body():
        from .monads import verify_comp_diagram
        d, _ = _bool_matrix_carrier(size)
        rep = verify_comp_diagram(d, sample=sample, seed=seed)
        return rep, {"checked": rep.checked}
    _run("monads-diagram", json_path, body)


if __name__ == "__main__":
    main()
