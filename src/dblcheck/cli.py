"""Command line front end: load JSON descriptions, run checks, report.

All verbs share one report shape: a verdict, a list of law failures with
witnesses, timing, and verb-specific details.  The text rendering is a
pure function of the machine payload, so writing the payload with --json
and re-rendering it reproduces the text output exactly.

Exit codes: 0 when the verdict passes, 1 on law failures, 2 on usage,
parse or schema errors.

Only ``core`` and ``errors`` load with this module.  Each verb, or the
loader it calls, imports the modules of its own construction, so a
one-shot run does not compile the rest of the package.  The command line
is read by a stdlib ``argparse`` parser built for the invoked verb alone,
from its row of ``VERBS``.
"""

import json
import os
import re
import sys
import time

from .core import (
    ValidationReport, bool_matrix_double_category, from_json, parity, trivial,
    validate_double_category, validate_one_cell_tables, walk_h, walk_v,
    walk_sq)
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


def _check_one_cells(docs, **cats):
    """Validation's 1-cell table pass on each category of ``cats`` that
    its document in ``docs``, under the same key, gives by tables rather
    than as a builtin.  A failure ends the verb with those labels, each
    prefixed by the key, before any law reads a missing or misplaced
    composite."""
    rep = ValidationReport()
    for key, d in cats.items():
        if "builtin" not in docs[key]:
            rep.merge(validate_one_cell_tables(d), prefix=key + ".")
    if not rep.passed:
        raise _IllFormed(rep, {})


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
    F = _functor_from_doc(doc, dom, cod)
    _check_one_cells(doc, dom=dom, cod=cod)
    return F


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

        q = QuasiFunctor(A, B, C, fam_a, fam_b,
                         table("kk", bh, ah), table("uk", bv, ah),
                         table("ku", bh, av), table("uu", bv, av),
                         name=doc.get("name", "H"))
    except (KeyError, ValueError) as exc:
        raise SchemaError("bad quasi functor description: %s" % exc)
    _check_one_cells(doc, A=A, B=B, C=C)
    return q


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
            t = HorTransform(F, G, comp0, comp_v, delta, orientation,
                             name=doc.get("name", "alpha"))
        else:
            comp0 = {do(k): cv(v)
                     for k, v in _field(doc, "at", what, True).items()}
            comp_h = {dh(k): _square_ref(cod, ref, ch, cv)
                      for k, ref in _field(doc, "sq_h", what).items()}
            comp_v = {dv(k): _square_ref(cod, ref, ch, cv)
                      for k, ref in _field(doc, "sq_v", what).items()}
            t = VertTransform(F, G, comp0, comp_h, comp_v, orientation,
                              name=doc.get("name", "alpha0"))
    except (KeyError, ValueError) as exc:
        raise SchemaError("bad transform description: %s" % exc)
    _check_one_cells(doc, dom=dom, cod=cod)
    return t


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
    print(render_text(payload))
    sys.exit(0 if payload["verdict"] == "passed" else 1)


def _run(command, json_path, fn):
    """Execute a verb body and translate outcomes into exit codes."""
    started = time.monotonic()
    try:
        rep, details = fn()
    except SchemaError as exc:
        print("%s: input error: %s" % (command, exc), file=sys.stderr)
        sys.exit(2)
    except _IllFormed as exc:
        rep, details = exc.args
    except DblError as exc:
        rep = ValidationReport()
        rep.add("error", reason=str(exc))
        _finish(_payload(command, rep, started), json_path)
        return
    _finish(_payload(command, rep, started, details), json_path)


# -- the verb table ---------------------------------------------------------

# the option types besides ``int``: a whole number at least 0; a list
# stands for a choice among its entries and ``bool`` for a flag
COUNT = "count"

# verb name -> (body, positional PATH arguments, options); an option is
# keyed by its parameter name and maps to (type, default, help)
VERBS = {}


def _verb(name, *paths, **options):
    """Enter a verb body in ``VERBS``.  The body takes each path and
    option by its lower-case name and returns a report and its details;
    every verb also takes ``--json PATH``."""
    def enter(fn):
        VERBS[name] = (fn, paths, options)
        return fn
    return enter


def _flag(name):
    return "--" + name.replace("_", "-")


def _usage_error(usage, prog, message):
    print("Usage: %s\nTry '%s --help' for help.\n\nError: %s"
          % (usage, prog, message), file=sys.stderr)
    sys.exit(2)


def _value(kind, name, text):
    """``text`` read as an option of this type; a ``ValueError`` says why
    it is not one."""
    if isinstance(kind, list):
        if text in kind:
            return text
        why = "%r is not one of %s." % (text, ", ".join(map(repr, kind)))
    else:
        try:
            n = int(text)
        except ValueError:
            why = "%r is not a valid integer." % text
        else:
            if kind is int or n >= 0:
                return n
            why = "%d is not in the range x>=0." % n
    raise ValueError("Invalid value for '%s': %s" % (_flag(name), why))


def _parse(usage, prog, paths, options, argv):
    """The keyword arguments of a verb body, and the ``--json`` path, from
    the verb's command line; only this verb's parser is built."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            _usage_error(usage, prog, message)

    parser = Parser(prog=prog, add_help=False, allow_abbrev=False,
                    argument_default=argparse.SUPPRESS)
    for p in paths:
        parser.add_argument(p.lower(), metavar=p)
    for name, (kind, _, _) in options.items():
        parser.add_argument(_flag(name), dest=name, action=(
            "store_true" if kind is bool else "store"))
    parser.add_argument("--json", dest="json_path", default=None)
    given = vars(parser.parse_args(argv))
    try:
        for p in paths:
            if not os.path.exists(given[p.lower()]):
                raise ValueError("Invalid value for '%s': Path %r does not "
                                 "exist." % (p, given[p.lower()]))
        for name, (kind, default, _) in options.items():
            given[name] = (default if name not in given else
                           given[name] if kind is bool else
                           _value(kind, name, given[name]))
    except ValueError as exc:
        _usage_error(usage, prog, exc)
    return given, given.pop("json_path")


def _help(usage, doc, sections):
    """Help text: the usage line, the summary, and each titled section of
    (term, help) rows in two columns."""
    import textwrap
    lines = ["Usage: " + usage, ""]
    lines += ["  " + line for line in textwrap.wrap(" ".join(doc.split()), 77)]
    for title, rows in sections:
        width = max(len(term) for term, _ in rows) + 4
        lines += ["", title + ":"]
        for term, text in rows:
            wrapped = textwrap.wrap(" ".join(text.split()), 79 - width) or [""]
            lines.append(("  %-*s%s" % (width - 2, term, wrapped[0])).rstrip())
            lines += [" " * width + line for line in wrapped[1:]]
    return "\n".join(lines)


def _option_row(name, kind, help_text):
    if kind is bool:
        return _flag(name), help_text
    if isinstance(kind, list):
        return "%s [%s]" % (_flag(name), "|".join(kind)), help_text
    if kind is COUNT:
        return _flag(name) + " INTEGER RANGE", help_text + "  [x>=0]"
    return _flag(name) + " INTEGER", help_text


HELP_ROW = ("--help", "Show this message and exit.")


def main(args=None, prog_name=None):
    """Run the verb that ``args`` (default ``sys.argv[1:]``) names; always
    ends in ``SystemExit`` with the verb's exit code."""
    args = sys.argv[1:] if args is None else list(args)
    prog = prog_name or "dblcheck"
    usage = prog + " [OPTIONS] COMMAND [ARGS]..."
    if not args or args[0] == "--help":
        print(_help(usage, "Equational checks for finite strict double "
                    "categories.", [
                        ("Options", [HELP_ROW]),
                        ("Commands", [(name, VERBS[name][0].__doc__)
                                      for name in sorted(VERBS)])]),
              file=sys.stdout if args else sys.stderr)
        sys.exit(0 if args else 2)
    if args[0] not in VERBS:
        _usage_error(usage, prog, "No such command %r." % args[0])
    name, argv = args[0], args[1:]
    fn, paths, options = VERBS[name]
    prog += " " + name
    usage = "%s [OPTIONS]%s" % (prog, "".join(" " + p for p in paths))
    if "--help" in argv:
        print(_help(usage, fn.__doc__, [("Options", [
            _option_row(o, kind, text)
            for o, (kind, _, text) in options.items()] + [
            ("--json PATH", "also write the machine report here"),
            HELP_ROW])]))
        sys.exit(0)
    kwargs, json_path = _parse(usage, prog, paths, options, argv)
    _run(name, json_path, lambda: fn(**kwargs))


# -- verbs ------------------------------------------------------------------


@_verb("validate", "PATH", bound=(
    COUNT, None, "most composable pairs of flat squares to check for "
    "closure; a larger category fails with flat-too-large"))
def validate(path, bound):
    """Validate the double category axioms on a JSON description."""
    d = _dc_from_doc(_read_doc(path))
    rep = validate_double_category(d, closure_limit=bound)
    return rep, {"objects": d.n_objects, "hcells": d.n_hcells,
                 "vcells": d.n_vcells}


@_verb("functor-check", "PATH")
def functor_check(path):
    """Check the lax double functor laws."""
    from .functor import check_lax_functor
    F = _load_functor(_read_doc(path))
    return check_lax_functor(F), {"functor": F.name}


@_verb("transform-check", "PATH")
def transform_check(path):
    """Check a horizontal or vertical transformation."""
    from .transform import check_hor_transform, check_vert_transform
    doc = _read_doc(path)
    t = _wellformed_transform(doc)
    check = (check_hor_transform if doc["kind"] == "hor"
             else check_vert_transform)
    return check(t), {"kind": doc["kind"], "orientation": t.orientation}


@_verb("quasi-check", "PATH", trivial_uu=(
    bool, False, "require the (u,U) interchangers to be trivial"))
def quasi_check(path, trivial_uu):
    """Check the quasi functor laws."""
    from .quasi import check_quasi_functor
    q = _load_quasi(_read_doc(path))
    rep = check_quasi_functor(q, trivial_uU=trivial_uu)
    return rep, {"quasi": q.name}


def _lawful_quasi(path):
    """The quasi functor of the document at path, and the report of
    ``quasi-check`` on it when that fails (else None)."""
    from .quasi import check_quasi_functor
    q = _load_quasi(_read_doc(path))
    rep = check_quasi_functor(q)
    return q, None if rep.passed else (rep, {"quasi": q.name})


@_verb("curry", "PATH")
def curry(path):
    """Check a quasi functor, then curry it and check the lax functor."""
    from .functor import check_lax_functor
    from .quasi import curry0
    q, failed = _lawful_quasi(path)
    if failed:
        return failed
    P = curry0(q)
    return check_lax_functor(P), {"codomain": P.cod.name}


@_verb("uncurry", "PATH")
def uncurry(path):
    """Round-trip a quasi functor through currying and compare cells."""
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


@_verb("strictify", "PATH")
def strictify(path):
    """Strictify a quasi functor and check the lax functor laws."""
    from .functor import check_lax_functor
    from .strictify import strictify0
    q = _wellformed_quasi(path)
    P = strictify0(q)
    return check_lax_functor(P), {
        "domain-objects": P.dom.n_objects,
        "domain-hcells": P.dom.n_hcells}


@_verb("destrictify", "PATH")
def destrictify(path):
    """Strictify, destrictify back, and re-check the quasi functor laws."""
    from .quasi import check_quasi_functor
    from .strictify import destrictify0, strictify0
    q = _wellformed_quasi(path)
    back = destrictify0(strictify0(q), q.A, q.B)
    rep = check_quasi_functor(back, trivial_uU=True)
    return rep, {"quasi": q.name}


@_verb("tensor-factorize", "PATH")
def tensor_factorize(path):
    """Check a quasi functor, then factor it through the tensor
    presentation."""
    from .tensor import verify_universal_property
    q, failed = _lawful_quasi(path)
    if failed:
        return failed
    return verify_universal_property(q), {"quasi": q.name}


@_verb("hom", "PATH_B", "PATH_C", flavor=(FLAVOR_NAMES, "hop", ""), bound=(
    COUNT, 5000, "total enumeration budget: candidates tried over all "
    "functors and transformations together; also the draws per sampled "
    "law, but never fewer than 5000"))
def hom(path_b, path_c, flavor, bound):
    """Build by enumeration and validate a hom double category, whose
    squares are the composition closure of the identity modifications."""
    from .hom import FLAVORS, hom_double_category, populate_squares
    docs = {"B": _read_doc(path_b), "C": _read_doc(path_c)}
    B, C = _dc_from_doc(docs["B"]), _dc_from_doc(docs["C"])
    _check_one_cells(docs, B=B, C=C)
    h = hom_double_category(B, C, FLAVORS[flavor], bound=bound)
    populate_squares(h)
    rep = validate_double_category(h, max_checks=max(bound, LAW_CHECKS))
    return rep, {"objects": h.n_objects, "hcells": h.n_hcells,
                 "vcells": h.n_vcells, "squares": h.n_squares,
                 "squares_of": "composition closure of the identity "
                 "modifications"}


def _bool_matrix_carrier(size):
    if size < 0 or size > 3:
        raise SchemaError("--size must be between 0 and 3")
    d = bool_matrix_double_category(size)
    return d, d.objects.index(str(size))


@_verb("monads-enumerate", semiring=(["bool"], "bool", ""), size=(
    int, 2, "carrier size over the Boolean matrix category"))
def monads_enumerate(semiring, size):
    """List the monads on a Boolean matrix carrier."""
    from .monads import enumerate_monads
    d, carrier = _bool_matrix_carrier(size)
    monads = enumerate_monads(d, carrier)
    details = {"count": len(monads)}
    for i, m in enumerate(monads):
        details["monad-%02d" % i] = d.hnames[m.endo]
    return ValidationReport(), details


@_verb("monads-comp", size=(int, 2, ""))
def monads_comp(size):
    """Compose every distributive law and check the composite monads."""
    from .monads import check_monad, comp, enumerate_distributive_laws
    d, carrier = _bool_matrix_carrier(size)
    rep = ValidationReport()
    laws = enumerate_distributive_laws(d, carrier)
    for lw in laws:
        sub = check_monad(comp(lw))
        rep.merge(sub, prefix="%r: " % lw)
    return rep, {"laws": len(laws)}


@_verb("monads-diagram", size=(int, 2, ""), sample=(
    COUNT, None, "check a random subset of the distributive laws"),
    seed=(int, 0, ""))
def monads_diagram(size, sample, seed):
    """Compare strictified and direct monad composition on all laws."""
    from .monads import verify_comp_diagram
    d, _ = _bool_matrix_carrier(size)
    rep = verify_comp_diagram(d, sample=sample, seed=seed)
    return rep, {"checked": rep.checked}


if __name__ == "__main__":
    main()
