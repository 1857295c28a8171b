"""The span names the benchmark's tracer reads resolve in the package.

``bench/spans.py`` wraps public module functions and the methods it lists
by name, and ``layer_round`` turns the spans of the names it reads into
per-layer metrics.  A name that no longer resolves, or whose function the
tracer cannot wrap (an alias, a ``functools.partial``, a generator), reads
0 without an error.  This test reads ``bench/spans.py`` as a syntax tree;
it imports nothing under ``bench/``.
"""

import ast
import importlib
import inspect
import os

SPANS = os.path.join(os.path.dirname(__file__), "..", "bench", "spans.py")

# a generator's span always reads 0, since the tracer skips generators
# (ROADMAP Defect 1)
KNOWN_UNTRACED = ["hom.enumerate_lax_functors"]


def _spans_module():
    with open(SPANS, encoding="utf-8") as fh:
        return ast.parse(fh.read())


def _constant(tree, name):
    """The literal value of the module-level assignment to ``name``."""
    node, = [node for node in tree.body if isinstance(node, ast.Assign)
             and any(getattr(t, "id", None) == name for t in node.targets)]
    return ast.literal_eval(node.value)


def span_names(tree):
    """Every span ``layer_round`` reads, as ``module.function`` or
    ``core.Class.method``: the string arguments of its calls.  The
    per-instance callables of ``INSTANCE_FNS`` are left out, since the
    tracer wraps them as a category sets them, not by name."""
    fn, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
           and node.name == "layer_round"]
    instance = {"core." + name for name in _constant(tree, "INSTANCE_FNS")}
    return sorted({arg.value for node in ast.walk(fn)
                   if isinstance(node, ast.Call) for arg in node.args
                   if isinstance(arg, ast.Constant)
                   and isinstance(arg.value, str)} - instance)


def wrappable(name):
    """Whether the tracer can wrap ``name``: a public, plain, non-generator
    function of its module, or a method in its class's own ``__dict__``."""
    module, *path = name.split(".")
    mod = importlib.import_module("dblcheck." + module)
    if len(path) == 2:
        cls = getattr(mod, path[0], None)
        return inspect.isfunction(vars(cls).get(path[1])) if cls else False
    fn = getattr(mod, path[0], None)
    return (inspect.isfunction(fn) and fn.__module__ == mod.__name__
            and not path[0].startswith("_")
            and not inspect.isgeneratorfunction(fn))


def test_every_traced_name_can_be_wrapped():
    tree = _spans_module()
    names = span_names(tree) + [
        "core.%s.%s" % (cls, meth)
        for cls, table in (("DoubleCat", "DOUBLECAT_METHODS"),
                           ("ValidationReport", "REPORT_METHODS"))
        for meth in _constant(tree, table)]
    assert "transform.vcompose_hor" in names
    assert "core.DoubleCat.find_square" in names
    assert [name for name in names if not wrappable(name)] == KNOWN_UNTRACED


def test_an_unwrappable_name_is_found():
    assert wrappable("transform.hcompose_modifications")
    assert wrappable("core.ValidationReport.add")
    assert not wrappable("hom.enumerate_lax_functors")  # a generator
    assert not wrappable("transform._check")  # private
    assert not wrappable("transform.OPLAX")  # not a function
    assert not wrappable("functor.ValidationReport")  # another module's
    assert not wrappable("core.DoubleCat.hcomp_h_fn")  # not a method
    assert not wrappable("quasi.curry_hor")  # gone
