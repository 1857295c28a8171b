"""Every single-field deletion and retyping of each fixture, through each
verb that reads it, ends in an exit code and never in a traceback.

Each run is in process, through ``cli_run.invoke``.  A mutant deletes one
key or list entry, or replaces one value (the whole document included)
by each of ``RETYPED``.  Every run must exit 0, 1 or 2, with no exception
but its ``SystemExit``, and name an input error when it exits 2.
"""

import json

from cli_run import invoke as run
from test_cli import QUASI_VERBS, _edited, _nodes, fx, load

# the replacements of a value: one of each JSON type
RETYPED = (None, 7, "zz", [], {})

# (fixture, command lines reading it, "DOC" standing for the mutant)
READERS = [
    *((name, [("validate", "DOC")]) for name in (
        "bool2.json", "parity.json", "preorder.json", "walk.json")),
    ("trivial.json", [("validate", "DOC"),
                      ("hom", "DOC", fx("parity.json"), "--flavor", "hop")]),
    ("parity.json", [("hom", fx("trivial.json"), "DOC", "--flavor", "hop")]),
    ("monad-functor.json", [("functor-check", "DOC")]),
    ("transform-hor.json", [("transform-check", "DOC")]),
    *((name, [(verb, "DOC") for verb in QUASI_VERBS])
      for name in ("preorder-pair.json", "quasi-identity.json")),
]


def mutants(doc):
    """(path, mutant) for every single deletion and retyping of doc."""
    for new in RETYPED:
        yield (), new
    for path, _ in _nodes(doc):
        yield path, _edited(doc, path, lambda p, k: p.pop(k))
        for new in RETYPED:
            yield path, _edited(doc, path,
                                lambda p, k, new=new: p.__setitem__(k, new))


def test_every_deletion_and_retyping_ends_without_traceback(tmp_path):
    bad = str(tmp_path / "bad.json")
    runs, failures = 0, []
    for name, lines in READERS:
        for path, mutant in mutants(load(name)):
            with open(bad, "w", encoding="utf-8") as fh:
                json.dump(mutant, fh)
            for line in lines:
                res = run(*(bad if arg == "DOC" else arg for arg in line))
                runs += 1
                if (res.exit_code not in (0, 1, 2)
                        or not isinstance(res.exception,
                                          (SystemExit, type(None)))
                        or res.exit_code == 2
                        and "input error" not in res.output):
                    failures.append((name, line[0], "/".join(map(str, path)),
                                     res.exit_code, repr(res.exception)))
    # the set is exhaustive: a smaller count means mutants went missing
    assert runs == 5751
    assert failures == []
