"""Tests for the command line interface."""

import copy
import functools
import json
import operator
import os
import re
import subprocess
import sys

import pytest

from cli_run import invoke as run
from dblcheck.cli import VERBS, render_text
from dblcheck.core import bool_matrix_double_category
from dblcheck.functor import identity_functor

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")
SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def fx(name):
    return os.path.join(FIXTURES, name)


def load(name):
    """The fixture document ``name``."""
    with open(fx(name), encoding="utf-8") as fh:
        return json.load(fh)


def run_child(*args, timeout):
    """Run ``python args...`` in a fresh interpreter on the package
    sources, as a user of an uninstalled checkout would."""
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, *args], env=env, timeout=timeout,
                          capture_output=True, text=True)


def test_validate_fixtures():
    for name in ("trivial.json", "parity.json", "bool2.json", "walk.json",
                 "preorder.json"):
        res = run("validate", fx(name))
        assert res.exit_code == 0, res.output
        assert "passed" in res.output


def test_validate_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    res = run("validate", str(bad))
    assert res.exit_code == 2


def test_validate_schema_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"builtin": "no-such-thing"}))
    res = run("validate", str(bad))
    assert res.exit_code == 2


@pytest.mark.parametrize("doc", [
    {"objects": ["*"], "hcells": ["R"]},
    {"objects": "ab"},
    {"objects": ["*"], "hcells": [{"name": "R", "src": "*"}]},
    {"objects": ["*"], "hcomp_h": [["1_*", "1_*"]]},
    {"objects": ["*"], "flat": "yes"},
    {"objects": ["*"], "squares": [{"top": "1_*"}], "flat": True},
    {"builtin": "bool_matrix", "size": "2"},
], ids=["hcell-name-only", "objects-string", "hcell-no-tgt", "pair-not-triple",
        "flat-string", "square-no-sides", "size-string"])
def test_validate_schema_types(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run("validate", str(bad))
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def _one_object(**fields):
    doc = {"objects": ["*"], "hcells": [], "vcells": [], "hcomp_h": [],
           "vcomp_v": [], "squares": [], "flat": False}
    doc.update(fields)
    return doc


R = {"name": "R", "src": "*", "tgt": "*"}
SQUARE = {"top": "1_*", "bottom": "1_*", "left": "1^*", "right": "1^*"}


@pytest.mark.parametrize("doc", [
    {"objects": ["a", "a"], "hcells": [], "vcells": [], "hcomp_h": [],
     "vcomp_v": [], "squares": [], "flat": True},
    _one_object(hcells=[R, R]),
    _one_object(vcells=[R, R]),
    _one_object(squares=[dict(SQUARE, name="s"), dict(SQUARE, name="s")]),
    _one_object(hcells=[R], hcomp_h=[["R", "R", "R"], ["R", "R", "1_*"]]),
    _one_object(vcells=[R], vcomp_v=[["R", "R", "1^*"], ["R", "R", "R"]]),
    _one_object(squares=[dict(SQUARE, name="s"), dict(SQUARE, name="t")],
                hcomp_sq=[["s", "s", "s"], ["s", "s", "t"]]),
    _one_object(squares=[dict(SQUARE, name="s"), dict(SQUARE, name="t")],
                vcomp_sq=[["t", "t", "s"], ["t", "t", "t"]]),
], ids=["objects", "hcells", "vcells", "squares", "hcomp_h", "vcomp_v",
        "hcomp_sq", "vcomp_sq"])
def test_validate_rejects_repeated_names_and_rows(tmp_path, doc):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run("validate", str(bad))
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


def test_validate_accepts_a_repeated_row(tmp_path):
    doc = _one_object(hcells=[R], hcomp_h=[["R", "R", "1_*"]] * 2, flat=True)
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(doc))
    res = run("validate", str(path))
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("doc, law", [
    (_one_object(hcells=[R], flat=True,
                 hcomp_h=[["R", "R", "1_*"], ["1_*", "R", "1_*"]]), "h-unit"),
    (_one_object(vcells=[R], flat=True,
                 vcomp_v=[["R", "R", "1^*"], ["R", "1^*", "1^*"]]), "v-unit"),
    (_one_object(squares=[dict(SQUARE, name="s")],
                 hcomp_sq=[["s", "s", "s"], ["Id_1_*", "s", "Id_1_*"]],
                 vcomp_sq=[["s", "s", "s"]]), "hcomp-sq-unit"),
], ids=["hcomp_h", "vcomp_v", "hcomp_sq"])
def test_validate_keeps_a_listed_unit_row(tmp_path, doc, law):
    # a row the document lists with an identity is checked, not replaced
    # by the generated unit row
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(doc))
    res = run("validate", str(path))
    assert res.exit_code == 1, res.output
    assert "FAIL %s " % law in res.output


@pytest.mark.parametrize("verb", [
    "monads-enumerate", "monads-comp", "monads-diagram"])
@pytest.mark.parametrize("size", ["-1", "4"])
def test_monads_size_out_of_range(verb, size):
    res = run(verb, "--size", size)
    assert res.exit_code == 2, res.output
    assert "--size must be between 0 and 3" in res.output


@pytest.mark.parametrize("verb, fixture, path, value", [
    ("functor-check", "monad-functor.json", ["ob"], ["*"]),
    ("functor-check", "monad-functor.json", ["unit"], ["*"]),
    ("functor-check", "monad-functor.json", ["sqmap"], ["*"]),
    ("functor-check", "monad-functor.json", ["hmap", "1_*"], ["R"]),
    ("functor-check", "monad-functor.json", [], ["*"]),
    ("quasi-check", "preorder-pair.json", ["fam_a", "*", "ob"], ["*"]),
    ("quasi-check", "preorder-pair.json", ["fam_a"], ["*"]),
    ("quasi-check", "preorder-pair.json", ["fam_b", "*"], ["*"]),
    ("quasi-check", "preorder-pair.json", ["kk"], ["*"]),
    ("transform-check", "transform-hor.json", ["F", "ob"], ["*"]),
    ("transform-check", "transform-hor.json", ["at"], ["*"]),
    ("transform-check", "transform-hor.json", ["delta"], ["*"]),
    ("transform-check", "transform-hor.json", ["G"], None),
], ids=["functor-ob", "functor-unit", "functor-sqmap", "functor-name-list",
        "functor-doc", "quasi-fam-ob", "quasi-fam-a", "quasi-fam-b-entry",
        "quasi-kk", "transform-functor-ob", "transform-at", "transform-delta",
        "transform-no-G"])
def test_loaders_reject_non_object_fields(tmp_path, verb, fixture, path,
                                          value):
    doc = load(fixture)
    if not path:
        doc = value
    elif value is None:
        del doc[path[0]]
    else:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run(verb, str(bad))
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)


QUASI_VERBS = ["quasi-check", "curry", "uncurry", "strictify", "destrictify",
               "tensor-factorize"]


def _without_vmap(doc):
    doc["fam_a"]["*"]["vmap"] = {}


@pytest.mark.parametrize("verb", QUASI_VERBS)
@pytest.mark.parametrize("edit, code, message", [
    (_without_vmap, 1, "FAIL fam-a[*].wf-vcell-missing"),
    (lambda doc: doc["fam_a"].pop("*"), 2, "fam_a leaves out object '*'"),
    (lambda doc: doc["fam_b"].pop("*"), 2, "fam_b leaves out object '*'"),
], ids=["fam-a-vmap-empty", "fam-a-entry-deleted", "fam-b-entry-deleted"])
def test_incomplete_quasi_families_end_without_traceback(tmp_path, verb, edit,
                                                         code, message):
    """A family missing a cell fails the well-formedness pass before any
    construction reads it; a family missing a member is an input error."""
    doc = load("preorder-pair.json")
    edit(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run(verb, str(bad))
    assert res.exit_code == code, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert message in res.output


def test_validate_bound_fails_when_exceeded():
    res = run("validate", "--bound", "5000", fx("bool2.json"))
    assert res.exit_code == 1, res.output
    assert "flat-too-large" in res.output
    res = run("validate", "--bound", "2000000", fx("bool2.json"))
    assert res.exit_code == 0, res.output


def test_functor_check():
    res = run("functor-check", fx("monad-functor.json"))
    assert res.exit_code == 0, res.output


def test_functor_check_law_failure(tmp_path):
    doc = load("monad-functor.json")
    # swap the unitor target onto the wrong boundary
    doc["unit"]["*"] = {"top": "R", "bottom": "R",
                        "left": "1^*", "right": "1^*"}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    res = run("functor-check", str(path))
    assert res.exit_code == 1
    assert "FAIL" in res.output


def test_functor_check_names_flat_domain_squares(tmp_path):
    # the squares of the flat builtin trivial have no stored names; sqmap
    # keys name them by their sides
    sign = lambda k: "s[0000:%d]" % k
    doc = {"dom": {"builtin": "trivial"}, "cod": {"builtin": "parity"},
           "ob": {"*": "*"}, "hmap": {"1_*": "1_*"}, "vmap": {"1^*": "1^*"},
           "sqmap": {"[1_*/1_*;1^*/1^*]": sign(0)},
           "comp": {"1_*,1_*": sign(0)}, "unit": {"*": sign(0)}}
    path = tmp_path / "point.json"
    for image, key, code, says in (
            (sign(0), "[1_*/1_*;1^*/1^*]", 0, "passed"),
            (sign(1), "[1_*/1_*;1^*/1^*]", 1, "FAIL lx.f.h2"),
            (sign(0), "Id_1_*", 2, "unknown square"),
            (sign(0), "[1_*/1_*;1^*/x]", 2, "unknown 1v-cell")):
        doc["sqmap"] = {key: image}
        path.write_text(json.dumps(doc))
        res = run("functor-check", str(path))
        assert res.exit_code == code and says in res.output, (key, res.output)


def test_open_boundary_reference_is_an_input_error(tmp_path):
    # the flat matrix category rejects a boundary that does not close
    doc = {"dom": {"builtin": "trivial"},
           "cod": {"builtin": "bool_matrix", "size": 1},
           "ob": {"*": "1"}, "hmap": {"1_*": "M4"}, "vmap": {"1^*": "f2"},
           "unit": {"*": {"top": "M0", "bottom": "M4",
                          "left": "f2", "right": "f2"}}}
    path = tmp_path / "open.json"
    path.write_text(json.dumps(doc))
    res = run("functor-check", str(path))
    assert res.exit_code == 2 and "bad square boundary" in res.output


def test_transform_check():
    res = run("transform-check", fx("transform-hor.json"))
    assert res.exit_code == 0, res.output


@pytest.mark.parametrize("functor", ["F", "G"])
@pytest.mark.parametrize("field, law", [
    ("ob", "wf-object"), ("hmap", "wf-hcell-missing"),
    ("vmap", "wf-vcell-missing")])
def test_transform_functor_missing_a_cell_ends_without_traceback(
        tmp_path, functor, field, law):
    """A functor of the transformation that leaves out its one object,
    1h-cell or 1v-cell fails its well-formedness pass before any
    transformation law reads it."""
    doc = load("transform-hor.json")
    doc[functor][field] = {}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run("transform-check", str(bad))
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "FAIL %s.%s" % (functor, law) in res.output


ROOT = os.path.join(os.path.dirname(__file__), "..")
UNKNOWN = "?unknown"
# each JSON type's replacement, of another type
OTHER_TYPE = {dict: [], list: {}, str: 0, int: "0", float: "0", bool: 0,
              type(None): 0}


def _readme_documents():
    """(args, i) for every README command line and each position i of a
    document among its arguments."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        lines = [line.split()[1:] for line in fh
                 if line.startswith("dblcheck ")]
    return [(args, i) for args in lines
            for i, arg in enumerate(args) if arg.endswith(".json")]


def _nodes(node, path=()):
    """(path, value) for every value inside a JSON document."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def _edited(doc, path, edit):
    """A copy of doc whose value at path is edited in its parent by
    ``edit(parent, key)``."""
    doc = copy.deepcopy(doc)
    edit(functools.reduce(operator.getitem, path[:-1], doc), path[-1])
    return doc


def _renamed_key(parent, key):
    items = [(UNKNOWN if k == key else k, v) for k, v in parent.items()]
    parent.clear()
    parent.update(items)


def labelled_mutations(doc):
    """(operation, path, mutant) for every single mutation of a JSON
    document: change a value's JSON type (the document's too), delete a
    key or list entry, rename a key or a string to an unknown name, or
    duplicate a list entry."""
    yield "retype", (), OTHER_TYPE[type(doc)]
    for path, value in _nodes(doc):
        yield "delete", path, _edited(doc, path, lambda p, k: p.pop(k))
        if isinstance(path[-1], str):
            yield "rename", path, _edited(doc, path, _renamed_key)
        else:
            yield "duplicate", path, _edited(
                doc, path, lambda p, k: p.insert(k + 1, p[k]))
        replacements = [("retype", OTHER_TYPE[type(value)])]
        if isinstance(value, str):
            replacements.append(("unknown", UNKNOWN))
        for op, new in replacements:
            yield op, path, _edited(
                doc, path, lambda p, k, new=new: operator.setitem(p, k, new))


def readme_mutant_runs(tmp_dir, *extra):
    """(verb, document, operation, path, result) for every single mutation
    of each README document, run by its README verb with ``extra``
    arguments; the mutant is written to ``tmp_dir``."""
    bad = os.path.join(tmp_dir, "bad.json")
    for args, i in _readme_documents():
        with open(os.path.join(ROOT, args[i]), encoding="utf-8") as fh:
            doc = json.load(fh)
        argv = [os.path.join(ROOT, arg) if arg.endswith(".json") else arg
                for arg in args]
        argv[i] = bad
        for op, path, mutant in labelled_mutations(doc):
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump(mutant, fh)
            yield args[0], args[i], op, path, run(*argv, *extra)


def test_every_single_mutation_of_a_readme_document_ends_without_traceback(
        tmp_path):
    """Each document-reading README verb, on every single mutation of each
    of its README documents, exits 0, 1 or 2 with no exception but its
    exit, and names an input error when it exits 2."""
    runs, failures = 0, []
    for verb, doc, op, path, res in readme_mutant_runs(str(tmp_path)):
        runs += 1
        if (res.exit_code not in (0, 1, 2)
                or not isinstance(res.exception, (SystemExit, type(None)))
                or res.exit_code == 2 and "input error" not in res.output):
            failures.append((verb, doc, op, path, res.exit_code,
                             repr(res.exception)))
    # the set is exhaustive: a smaller count means mutations went missing
    assert runs == 1769
    assert failures == []


def test_quasi_check():
    res = run("quasi-check", fx("preorder-pair.json"))
    assert res.exit_code == 0, res.output


def _fails_as_quasi_check(verb, hcell, tmp_path):
    """Exit code and failures of ``quasi-check`` and of verb on the sign
    quasi functor whose kk entry on hcell is flipped."""
    from test_golden import _parity_quasi_doc
    path = tmp_path / "quasi.json"
    path.write_text(json.dumps(_parity_quasi_doc(hcell)))
    got = {}
    for name in ("quasi-check", verb):
        out = tmp_path / (name + ".json")
        code = run(name, str(path), "--json", str(out)).exit_code
        got[name] = code, json.loads(out.read_text())["failures"]
    assert got[verb] == got["quasi-check"] and got[verb][0] == 1


@pytest.mark.parametrize("hcell", ["1_0", "1_1", "a"])
def test_curry_fails_a_quasi_functor_that_fails_its_laws(hcell, tmp_path):
    """The curried functor of each kk flip of the sign quasi functor passes
    the lax functor laws in the hom, which does not check the cells it
    interns; ``curry`` checks the quasi laws first and fails as
    ``quasi-check`` does."""
    _fails_as_quasi_check("curry", hcell, tmp_path)


@pytest.mark.parametrize("hcell", ["1_0", "1_1", "a"])
def test_tensor_factorize_fails_a_quasi_functor_that_fails_its_laws(
        hcell, tmp_path):
    """``tensor-factorize`` checks the quasi laws first and fails each kk
    flip of the sign quasi functor as ``quasi-check`` does, not with one
    ``error`` naming the first relation the flip breaks."""
    _fails_as_quasi_check("tensor-factorize", hcell, tmp_path)


def _failures(tmp_path, *args):
    """Exit code and failures, as (law, witness) pairs, of a verb."""
    out = tmp_path / "out.json"
    code = run(*args, "--json", str(out)).exit_code
    return code, [(f["law"], f["witness"])
                  for f in json.loads(out.read_text())["failures"]]


@pytest.mark.parametrize("verb, fixture, key", [
    (verb, "preorder-pair.json", "C") for verb in (
        "quasi-check", "curry", "uncurry", "strictify", "destrictify",
        "tensor-factorize")] + [
    ("functor-check", "monad-functor.json", "cod"),
    ("transform-check", "transform-hor.json", "cod")])
def test_missing_composite_is_named_by_its_validation_label(
        verb, fixture, key, tmp_path):
    """A category given by tables with its hcomp_h row deleted fails each
    verb with the labels ``validate`` gives that category alone, under its
    document key, not with one ``error`` naming the missing entry."""
    with open(fx(fixture), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc[key]["hcomp_h"]
    cat, path = tmp_path / "cat.json", tmp_path / "doc.json"
    cat.write_text(json.dumps(doc[key]))
    path.write_text(json.dumps(doc))
    code, alone = _failures(tmp_path, "validate", str(cat))
    assert code == 1 and [law for law, _ in alone] == ["h-table-total"]
    assert _failures(tmp_path, verb, str(path)) == (
        1, [(key + "." + law, witness) for law, witness in alone])


def test_hom_names_a_missing_composite_of_its_codomain(tmp_path):
    with open(fx("preorder.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    del doc["hcomp_h"]
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    code, failures = _failures(tmp_path, "hom", fx("trivial.json"), str(path))
    assert code == 1 and [law for law, _ in failures] == ["C.h-table-total"]


def test_curry_uncurry():
    assert run("curry", fx("preorder-pair.json")).exit_code == 0
    assert run("uncurry", fx("preorder-pair.json")).exit_code == 0


def test_uncurry_compares_every_cell_of_a_member(tmp_path, monkeypatch):
    """A round trip that changes one compositor of a member, and nothing
    the member's objects and 1-cells show, fails ``roundtrip-fam-b``."""
    import dblcheck.quasi
    uncurry0 = dblcheck.quasi.uncurry0

    def flipped(P):
        back = uncurry0(P)
        member = back.fam_b[0]
        assert member.unitor(0) != member.compositor(0, 0)
        member.comp[(0, 0)] = member.unitor(0)
        return back
    monkeypatch.setattr(dblcheck.quasi, "uncurry0", flipped)
    code, failures = _failures(tmp_path, "uncurry", fx("preorder-pair.json"))
    assert code == 1 and ("roundtrip-fam-b", {"b": "0"}) in failures


@pytest.mark.parametrize("store, key, ref", [
    ("uk", "1^*,1_*", ("R", "R")), ("ku", "1_*,1^*", ("R", "R")),
    ("uu", "1^*,1^*", ("1_*", "1_*"))])
def test_interchanger_at_a_vertical_identity_is_an_input_error(
        tmp_path, store, key, ref):
    """An interchanger at a vertical identity is derived; listing one,
    even on the square it derives, exits 2 naming the key."""
    doc = load("preorder-pair.json")
    doc[store] = {key: {"top": ref[0], "bottom": ref[1], "left": "1^*",
                        "right": "1^*"}}
    path = tmp_path / "quasi.json"
    path.write_text(json.dumps(doc))
    res = run("quasi-check", str(path))
    assert res.exit_code == 2, res.output
    assert "input error: %s key %r" % (store, key) in res.output


def test_compositor_on_a_pair_that_does_not_compose_is_an_input_error(
        tmp_path):
    """monad-functor.json over walk_h: its four composable compositors
    pass; one more on ``a,a``, which does not compose, exits 2."""
    doc = load("monad-functor.json")
    square = {"top": "R", "bottom": "R", "left": "1^*", "right": "1^*"}
    doc.update(dom={"builtin": "walk_h"}, ob={"0": "*", "1": "*"},
               hmap=dict.fromkeys(("1_0", "1_1", "a"), "R"),
               vmap={"1^0": "1^*", "1^1": "1^*"},
               unit=dict.fromkeys("01", dict(square, top="1_*")),
               comp=dict.fromkeys(("1_0,1_0", "1_0,a", "1_1,1_1", "a,1_1"),
                                  square))
    path = tmp_path / "functor.json"
    path.write_text(json.dumps(doc))
    assert run("functor-check", str(path)).exit_code == 0
    doc["comp"]["a,a"] = square
    path.write_text(json.dumps(doc))
    res = run("functor-check", str(path))
    assert res.exit_code == 2, res.output
    assert "input error: comp key 'a,a' is not a composable pair" in res.output


def test_strictify_destrictify():
    assert run("strictify", fx("preorder-pair.json")).exit_code == 0
    assert run("destrictify", fx("quasi-identity.json")).exit_code == 0
    # a non-invertible unitor stops destrictification with a law failure
    res = run("destrictify", fx("preorder-pair.json"))
    assert res.exit_code == 1
    assert "unitor" in res.output


def test_tensor_factorize():
    res = run("tensor-factorize", fx("preorder-pair.json"))
    assert res.exit_code == 0, res.output


def test_hom():
    res = run("hom", fx("trivial.json"), fx("parity.json"), "--flavor", "hop")
    assert res.exit_code == 0, res.output
    assert "objects: 4" in res.output


def test_monads_enumerate():
    res = run("monads-enumerate", "--size", "2")
    assert res.exit_code == 0, res.output
    assert "count: 4" in res.output


def test_monads_comp_and_diagram():
    assert run("monads-comp", "--size", "2").exit_code == 0
    assert run("monads-diagram", "--size", "2").exit_code == 0
    res = run("monads-diagram", "--size", "3", "--sample", "10",
              "--seed", "1")
    assert res.exit_code == 0, res.output
    assert "checked: 10" in res.output


def test_monads_diagram_rejects_a_negative_sample():
    res = run("monads-diagram", "--size", "2", "--sample", "-1")
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Invalid value for '--sample'" in res.output


def test_monads_diagram_reports_a_sample_as_sampled(tmp_path):
    # 18 distributive laws at size 2: a sample of 1 checks one of them
    out = tmp_path / "report.json"
    res = run("monads-diagram", "--size", "2", "--sample", "1", "--seed", "4",
              "--json", str(out))
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["details"] == {"checked": 1}
    assert payload["sampled"] == {"comp-diagram": {"draws": 1, "seed": 4}}
    assert "  sampled comp-diagram: 1 draws, seed 4" in res.output.splitlines()
    # a sample that covers every law checks them all, unsampled
    res = run("monads-diagram", "--size", "2", "--sample", "18",
              "--json", str(out))
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["details"] == {"checked": 18}
    assert payload["sampled"] == {}


@pytest.mark.parametrize("args", [
    ["validate", fx("trivial.json")],
    ["hom", fx("trivial.json"), fx("trivial.json")],
])
def test_negative_bound_is_an_input_error(args):
    res = run(*args, "--bound", "-1")
    assert res.exit_code == 2, res.output
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "Invalid value for '--bound'" in res.output
    assert "Traceback" not in res.output


# each numeric option on a small input: the arguments before it, and the
# exit code for -1, 0, a non-integer and the largest documented value.
# --bound and --sample document no upper limit, so the largest 64-bit
# integer stands for it; neither input enumerates more under it.
LARGEST = str(2 ** 63 - 1)
NUMERIC_OPTIONS = [
    (["validate", fx("bool2.json")], "--bound", LARGEST, [2, 1, 2, 0]),
    (["hom", fx("trivial.json"), fx("parity.json"), "--flavor", "hop"],
     "--bound", LARGEST, [2, 1, 2, 0]),
    (["monads-enumerate"], "--size", "3", [2, 0, 2, 0]),
    (["monads-comp"], "--size", "3", [2, 0, 2, 0]),
    (["monads-diagram"], "--size", "3", [2, 0, 2, 0]),
    (["monads-diagram", "--size", "2"], "--sample", LARGEST, [2, 0, 2, 0]),
]


@pytest.mark.parametrize("args, option, largest, exits", NUMERIC_OPTIONS,
                         ids=lambda x: x[0] if isinstance(x, list) else None)
def test_numeric_option_values_end_without_traceback(args, option, largest,
                                                     exits):
    for value, exit_code in zip(["-1", "0", "1.5", largest], exits):
        res = run(*args, option, value)
        assert res.exit_code == exit_code, (value, res.output)
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), value
        assert "Traceback" not in res.output
        if exit_code == 2:
            assert option in res.output, (value, res.output)


def test_monads_diagram_deterministic():
    a = run("monads-diagram", "--size", "3", "--sample", "5", "--seed", "7")
    b = run("monads-diagram", "--size", "3", "--sample", "5", "--seed", "7")
    # strip the timing line prefix before comparing
    strip = lambda out: [l for l in out.splitlines() if "checked" in l]
    assert strip(a.output) == strip(b.output)


def test_json_report_roundtrip(tmp_path):
    out = tmp_path / "report.json"
    res = run("quasi-check", fx("preorder-pair.json"), "--json", str(out))
    assert res.exit_code == 0
    payload = json.loads(out.read_text())
    assert payload["verdict"] == "passed"
    assert render_text(payload) == res.output.rstrip("\n")
    # the machine format survives a serialization cycle losslessly
    assert json.loads(json.dumps(payload)) == payload


@pytest.mark.parametrize("where", ["directory", "missing-directory"])
def test_unwritable_json_path_exits_2_naming_it(tmp_path, where):
    """A ``--json`` path that cannot be opened for writing is a usage
    error, reported after the verb has run."""
    out = tmp_path if where == "directory" else tmp_path / "no" / "r.json"
    res = run("validate", fx("parity.json"), "--json", str(out))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "validate: cannot write --json %s" % out in res.output


@pytest.mark.parametrize("builtin", [[], {}, ["parity"]])
@pytest.mark.parametrize("verb", ["validate", "functor-check"])
def test_non_string_builtin_is_unknown(tmp_path, builtin, verb):
    """``builtin`` names a builtin by a string; any other value exits 2."""
    doc = ({"builtin": builtin} if verb == "validate" else
           dict(load("monad-functor.json"), dom={"builtin": builtin}))
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run(verb, str(bad))
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit), res.exception
    assert "input error: unknown builtin %r" % (builtin,) in res.output


# a document of each kind that carries a name, by its verb; the path is
# where the name goes, in the document or in a functor it holds
NAMED_DOCUMENTS = [
    ("functor-check", "monad-functor.json", ()),
    ("quasi-check", "preorder-pair.json", ()),
    ("quasi-check", "preorder-pair.json", ("fam_a", "*")),
    ("transform-check", "transform-hor.json", ()),
    ("transform-check", "transform-hor.json", ("F",)),
]


@pytest.mark.parametrize("name", [None, 7, [], {}])
@pytest.mark.parametrize("verb, fixture, path", NAMED_DOCUMENTS)
def test_non_string_name_is_an_input_error(tmp_path, verb, fixture, path,
                                           name):
    """``name`` is a string; any other value exits 2, naming the field."""
    doc = load(fixture)
    functools.reduce(operator.getitem, path, doc)["name"] = name
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = run(verb, str(bad))
    assert res.exit_code == 2, res.output
    assert 'description field "name" must be a string' in res.output


def test_hom_reports_sampled_laws(tmp_path):
    # the law check keeps at least 5000 draws, which cover every instance
    # of hom(trivial, parity) whatever the enumeration budget; the 400
    # partial assignments cover its enumeration (341 in all)
    out = tmp_path / "report.json"
    res = run("hom", fx("trivial.json"), fx("parity.json"), "--bound", "400",
              "--json", str(out))
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["sampled"] == {}
    assert render_text(payload) == res.output.rstrip("\n")
    payload["sampled"] = {"interchange": {"draws": 100, "seed": 0}}
    assert ("  sampled interchange: 100 draws, seed 0"
            in render_text(payload).splitlines())
    res = run("validate", fx("parity.json"), "--json", str(out))
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["sampled"] == {}
    assert "sampled" not in res.output


def test_hom_bound_keeps_the_law_check_budget(tmp_path):
    """A small enumeration budget does not weaken the law check: the
    report is the default one."""
    payloads = []
    for extra in (["--bound", "400"], []):
        out = tmp_path / "report.json"
        res = run("hom", fx("trivial.json"), fx("parity.json"), *extra,
                  "--json", str(out))
        assert res.exit_code == 0, res.output
        assert "sampled" not in res.output
        payload = json.loads(out.read_text())
        del payload["elapsed"]
        payloads.append(payload)
    assert payloads[0] == payloads[1]


def _identity_functor_doc(d, builtin):
    """The identity functor of a builtin category, written out by name."""
    sides = lambda s: dict(zip(("top", "bottom", "left", "right"), (
        d.hnames[s[0]], d.hnames[s[1]], d.vnames[s[2]], d.vnames[s[3]])))
    F = identity_functor(d)
    return {
        "dom": builtin, "cod": builtin, "name": "id",
        "ob": {x: x for x in d.objects},
        "hmap": {f: f for f in d.hnames}, "vmap": {u: u for u in d.vnames},
        "comp": {"%s,%s" % (d.hnames[f], d.hnames[g]): sides(d.sq_bounds[s])
                 for (f, g), s in F.comp.items()},
        "unit": {d.objects[a]: sides(d.sq_bounds[s])
                 for a, s in F.unit.items()},
    }


def test_functor_check_reports_reduced_laws(tmp_path):
    """A pass decided by the flat reduction names each reduced law with its
    instance count, in the payload and in the text."""
    doc = _identity_functor_doc(bool_matrix_double_category(2),
                                {"builtin": "bool_matrix", "size": 2})
    path, out = tmp_path / "functor.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    res = run("functor-check", str(path), "--json", str(out))
    assert res.exit_code == 0, res.output
    payload = json.loads(out.read_text())
    assert payload["reduced"] == {
        "lx.f.h1": 306043, "lx.f.h2": 31, "lx.f.hex": 8507, "lx.f.u": 62,
        "lx.f.c-nat": 1401043, "lx.f.u-nat": 11}
    assert "  reduced lx.f.c-nat: 1401043 instances" in res.output.splitlines()
    assert render_text(payload) == res.output.rstrip("\n")
    res = run("functor-check", fx("monad-functor.json"), "--json", str(out))
    assert res.exit_code == 0, res.output
    assert json.loads(out.read_text())["reduced"] == {}
    assert "reduced" not in res.output


def test_hom_bound_caps_the_total_enumeration(tmp_path):
    """``--bound`` caps the candidates of all enumerations together: a
    one-cell domain into parity stops at the bound instead of trying up
    to the bound for every pair of functors.  The child's timeout turns
    a regression into a failure, not a hang."""
    out = tmp_path / "report.json"
    res = run_child("-m", "dblcheck.cli", "hom", fx("walk.json"),
                    fx("parity.json"), "--bound", "5000", "--json", str(out),
                    timeout=60)
    assert res.returncode == 1, res.stdout + res.stderr
    payload = json.loads(out.read_text())
    assert payload["failures"] == [{
        "law": "error",
        "witness": {"reason": "'candidate enumeration exceeded the bound'"}}]
    assert payload["elapsed"] < 10


# modules a child must not load: click is no dependency, and dataclasses
# loads inspect, ast, dis and tokenize before it generates any code
START_UP_FREE = ["click", "dataclasses", "inspect"]


def test_cli_import_loads_only_core_and_errors():
    """Importing the command line loads no construction module: each verb
    imports its own, so start-up does not compile the whole package.  Nor
    does it, or importing every module of the package after it, load
    click, dataclasses or inspect, unless the interpreter had before."""
    modules = sorted(name[:-len(".py")] for name in os.listdir(
        os.path.join(SRC, "dblcheck")) if name.endswith(".py"))
    res = run_child("-c", "\n".join([
        "import importlib, json, sys",
        "before = set(sys.modules)",
        "import dblcheck.cli",
        "cli = sorted(m for m in sys.modules if m.split('.')[0] == 'dblcheck')",
        "for name in %r:" % modules,
        "    importlib.import_module('dblcheck.' + name)",
        "print(json.dumps([cli, sorted(set(sys.modules) - before)]))"]),
        timeout=60)
    assert res.returncode == 0, res.stderr
    cli, loaded = json.loads(res.stdout)
    assert cli == ["dblcheck", "dblcheck.cli", "dblcheck.core",
                   "dblcheck.errors"]
    assert "dblcheck.monads" in loaded
    assert [m for m in START_UP_FREE if m in loaded] == []


def test_flavor_choices_are_the_hom_flavors():
    from dblcheck.hom import FLAVORS
    _, _, options = VERBS["hom"]
    assert options["flavor"][0] == sorted(FLAVORS)


# the usage line and the option column of ``--help``, per verb (None for
# the group itself)
HELP = {
    None: ("[OPTIONS] COMMAND [ARGS]...", ["--help"]),
    "curry": ("curry [OPTIONS] PATH", ["--json PATH", "--help"]),
    "destrictify": ("destrictify [OPTIONS] PATH", ["--json PATH", "--help"]),
    "functor-check": ("functor-check [OPTIONS] PATH",
                      ["--json PATH", "--help"]),
    "hom": ("hom [OPTIONS] PATH_B PATH_C",
            ["--flavor [hop|hop*|st|st-u]", "--bound INTEGER", "--json PATH",
             "--help"]),
    "monads-comp": ("monads-comp [OPTIONS]",
                    ["--size INTEGER", "--json PATH", "--help"]),
    "monads-diagram": ("monads-diagram [OPTIONS]",
                       ["--size INTEGER", "--sample INTEGER", "--seed INTEGER",
                        "--json PATH", "--help"]),
    "monads-enumerate": ("monads-enumerate [OPTIONS]",
                         ["--size INTEGER", "--json PATH", "--help"]),
    "quasi-check": ("quasi-check [OPTIONS] PATH",
                    ["--trivial-uu", "--json PATH", "--help"]),
    "strictify": ("strictify [OPTIONS] PATH", ["--json PATH", "--help"]),
    "tensor-factorize": ("tensor-factorize [OPTIONS] PATH",
                         ["--json PATH", "--help"]),
    "transform-check": ("transform-check [OPTIONS] PATH",
                        ["--json PATH", "--help"]),
    "uncurry": ("uncurry [OPTIONS] PATH", ["--json PATH", "--help"]),
    "validate": ("validate [OPTIONS] PATH",
                 ["--bound INTEGER", "--json PATH", "--help"]),
}


@pytest.mark.parametrize("verb", [None] + sorted(HELP.keys() - {None}))
def test_help_lists_the_same_options(verb):
    res = run(*([verb] if verb else []), "--help")
    assert res.exit_code == 0, res.output
    usage, options = HELP[verb]
    assert res.output.splitlines()[0] == "Usage: main " + usage
    assert re.findall(r"^  (--?[\w-]+(?: \S+)?)", res.output, re.M) == options
    if verb is None:
        assert sorted(VERBS) == sorted(HELP.keys() - {None})
