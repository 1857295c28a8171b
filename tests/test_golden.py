"""Golden reports: CLI payloads and interned cell tables, compared exactly.

The corpus under ``tests/golden/`` pins observable behaviour for
refactors: the ``--json`` payload (without ``elapsed``) and exit code of
every README verb, of ``validate`` on every table fixture, of ``hom`` in
all four flavors and of ``curry``/``uncurry`` on the quasi fixtures, plus
the full cell tables of the populated ``hom(trivial, parity)`` flavors and
of the sign q-hom double category.

Regenerate only for an intended change of behaviour, and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import os

import pytest
from click.testing import CliRunner

from dblcheck.cli import main
from dblcheck.core import parity, trivial
from dblcheck.hom import FLAVORS, hom_double_category, populate_squares
from dblcheck.quasi import q_hom_double_category

from test_quasi import sign_q_hor, sign_quasi

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
    }
    for name in TABLE_FIXTURES:
        cases["validate-" + name] = ["validate", fx(name)]
    for flavor in sorted(FLAVORS):
        cases["hom-trivial-parity-" + _slug(flavor)] = [
            "hom", fx("trivial"), fx("parity"), "--flavor", flavor]
    for verb in ("curry", "uncurry"):
        for name in ("preorder-pair", "quasi-identity"):
            cases["%s-%s" % (verb, name)] = [verb, fx(name)]
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
    res = CliRunner().invoke(main, args + ["--json", out])
    with open(out, encoding="utf-8") as fh:
        payload = json.load(fh)
    del payload["elapsed"]
    return {"exit_code": res.exit_code, "payload": payload}


def cell_table(d):
    """Everything interning decides: ids, names, boundaries, composites."""
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


def hom_table(flavor):
    h = hom_double_category(trivial(), parity(), FLAVORS[flavor], bound=5000)
    return cell_table(populate_squares(h))


def sign_qhom_table():
    q1 = sign_quasi({0: 0, 1: 1})
    q2 = sign_quasi({0: 0, 1: 0}, w=q1.A, t=q1.B, p=q1.C)
    qh = q_hom_double_category(q1.A, q1.B, q1.C)
    qh.intern_quasi(q1)
    qh.intern_quasi(q2)
    qh.intern_q_hor(sign_q_hor(q1, q2))
    return cell_table(populate_squares(qh))


TABLE_CASES = dict({"hom-trivial-parity-" + _slug(f): (lambda f=f: hom_table(f))
                    for f in sorted(FLAVORS)},
                   **{"qhom-sign": sign_qhom_table})


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


def test_corpus_has_no_stray_files():
    for kind, cases in (("cli", CLI_CASES), ("tables", TABLE_CASES)):
        stored = sorted(f[:-len(".json")]
                        for f in os.listdir(os.path.join(GOLDEN, kind)))
        assert stored == sorted(cases)


def _write_corpus():
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        for kind, cases, build in (
                ("cli", CLI_CASES, lambda args: cli_result(args, tmp)),
                ("tables", TABLE_CASES, lambda fn: fn())):
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
