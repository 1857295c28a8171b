"""Every name a module of the package imports is used in that module.

No linter is installed, so this walks the syntax trees itself: an import
left behind by a refactor fails here.  ``__init__.py`` is exempt, since a
package's imports there are its exports.
"""

import ast
import glob
import os

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "dblcheck")
MODULES = sorted(p for p in glob.glob(os.path.join(SRC, "*.py"))
                 if os.path.basename(p) != "__init__.py")


def unused_imports(source):
    """The names bound by imports in ``source`` that nothing else in it
    reads, with the line of each import."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_unused_imports_are_found():
    src = ("import os\nimport functools\nfrom .a import b, c as d\n"
           "os.getcwd()\nprint(d)\n")
    assert unused_imports(src) == [(2, "functools"), (3, "b")]


@pytest.mark.parametrize("path", MODULES, ids=os.path.basename)
def test_module_uses_its_imports(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []


# -- the package has no dependency to import --------------------------------

# click is no dependency; dataclasses costs every command line child the
# import of inspect, ast, dis and tokenize and its code generation
BANNED = {"click", "dataclasses"}


def banned_imports(source):
    """The lines of ``source`` that import a module of ``BANNED`` or one
    of its submodules."""
    names = lambda node: ([a.name for a in node.names]
                          if isinstance(node, ast.Import) else
                          [node.module or ""] if node.level == 0 else [])
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Import, ast.ImportFrom))
                  and any(name.split(".")[0] in BANNED
                          for name in names(node)))


def test_banned_imports_are_found():
    src = ("import json\nimport click\nfrom dataclasses import field\n"
           "def f():\n    import click.testing\n"
           "from .dataclasses import x\nimport clickhouse\n")
    assert banned_imports(src) == [2, 3, 5]


@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SRC, "*.py"))),
                         ids=os.path.basename)
def test_module_imports_no_click_or_dataclasses(path):
    with open(path, encoding="utf-8") as fh:
        assert banned_imports(fh.read()) == []


# -- the product's cell-id layout is core's --------------------------------

COUNTS = {"n_objects", "n_hcells", "n_vcells", "n_squares"}


def product_id_arithmetic(source):
    """The lines of ``source`` that define or call ``_dims``, or that build
    or split a product cell id by hand: a multiple of a cell count with
    something added, or a floor division or remainder by a cell count,
    the other operand not a constant (so ``"M%d" % d.n_hcells`` and
    ``3 * nh + 1`` are not ids).
    A cell count is an ``n_objects``, ``n_hcells``, ``n_vcells`` or
    ``n_squares`` attribute, or a name assigned from an expression that
    reads one or calls ``_dims``."""
    tree = ast.parse(source)

    def reads_count(node):
        return any(isinstance(n, ast.Attribute) and n.attr in COUNTS
                   or isinstance(n, ast.Call) and calls_dims(n)
                   for n in ast.walk(node))

    def calls_dims(call):
        f = call.func
        return (f.id if isinstance(f, ast.Name) else
                getattr(f, "attr", None)) == "_dims"

    counts = {n.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
              and reads_count(node.value)
              for t in node.targets for n in ast.walk(t)
              if isinstance(n, ast.Name)}

    def is_count(node):
        return (isinstance(node, ast.Attribute) and node.attr in COUNTS
                or isinstance(node, ast.Name) and node.id in counts)

    def is_multiple(node):
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                and any(is_count(x) and not isinstance(y, ast.Constant)
                        for x, y in ((node.left, node.right),
                                     (node.right, node.left))))

    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.FunctionDef) and node.name == "_dims"
                or isinstance(node, ast.Call) and calls_dims(node)
                or isinstance(node, ast.BinOp)
                and (isinstance(node.op, (ast.FloorDiv, ast.Mod))
                     and is_count(node.right)
                     and not isinstance(node.left, ast.Constant)
                     or isinstance(node.op, ast.Add)
                     and (is_multiple(node.left) or is_multiple(node.right)))):
            lines.add(node.lineno)
    return sorted(lines)


def test_product_id_arithmetic_is_found():
    src = ("def _dims(dom):\n"
           "    return dom.n_objects, dom.n_hcells\n"
           "no2, nh2 = _dims(dom)\n"
           "x = a * no2 + b\n"
           "K, k = f // nh2, f % nh2\n"
           "y = B.n_squares * z + w\n"
           "bound = 3 * nh2 + 1\n"
           "name = 'M%d' % d.n_hcells\n"
           "pairs = d.n_hcells ** 2 + d.n_vcells ** 2\n")
    assert product_id_arithmetic(src) == [1, 3, 4, 5, 6]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if os.path.basename(p) != "core.py"],
                         ids=os.path.basename)
def test_product_ids_come_from_core(path):
    """Only ``core`` maps between a product cell and its components
    (``product_cell``, ``product_cells``, ``product_projections``)."""
    with open(path, encoding="utf-8") as fh:
        assert product_id_arithmetic(fh.read()) == []


# -- the composition tables are the kernel's ---------------------------------

# a flat or interned category fills these as it computes them; core, which
# fills them, is the only module that knows when an entry is sound, so
# every other module reads composites through the six accessors
TABLES = {"_hh", "_vv", "_hs", "_vs", "_sqvid", "_sqhid"}
ACCESSORS = {"hcomp_h", "vcomp_v", "hcomp_sq", "vcomp_sq", "sq_v_id",
             "sq_h_id"}


def table_accesses(source):
    """The lines of ``source`` that read or write a composition table: an
    attribute of that name, or the name as a string (``getattr``,
    ``vars``)."""
    return sorted({node.lineno for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute)
                   and node.attr in TABLES
                   or isinstance(node, ast.Constant)
                   and node.value in TABLES})


def test_square_table_accesses_are_found():
    src = ("s = d._hs[(a, b)]\n"
           "d._sqvid[f] = s\n"
           "t = getattr(d, '_vs')\n"
           "op = d._hs_op\n"
           "x = d.hs, d._sqhidden, _sqhid\n"
           "del c._sqhid[u]\n"
           "h = d._hh.get((f, g))\n"
           "d._vv[u, w] = x\n"
           "fn = d._hh_op, d.hcomp_h_fn\n")
    assert table_accesses(src) == [1, 2, 3, 6, 7, 8]


@pytest.mark.parametrize("path", [p for p in MODULES
                                  if os.path.basename(p) != "core.py"],
                         ids=os.path.basename)
def test_square_tables_stay_in_core_and_hom(path):
    """Only ``core`` reads or writes ``_hh``, ``_vv``, ``_hs``, ``_vs``,
    ``_sqvid`` and ``_sqhid``; every other module, ``hom`` included,
    composes through the accessors."""
    with open(path, encoding="utf-8") as fh:
        assert table_accesses(fh.read()) == []


def accessor_overrides(sources):
    """The ``Class.name`` of each of the six accessors defined or assigned
    in the body of a class of ``sources`` that derives from ``DoubleCat``,
    following base classes by name."""
    classes = [node for source in sources for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.ClassDef)]
    base_names = lambda cls: {getattr(b, "id", getattr(b, "attr", None))
                              for b in cls.bases}
    derived, grew = set(), True
    while grew:
        grew = False
        for cls in classes:
            if (cls.name not in derived
                    and base_names(cls) & (derived | {"DoubleCat"})):
                derived.add(cls.name)
                grew = True
    found = []
    for cls in classes:
        if cls.name not in derived:
            continue
        for item in cls.body:
            names = ([item.name] if isinstance(item, ast.FunctionDef)
                     else [t.id for t in item.targets if isinstance(t, ast.Name)]
                     if isinstance(item, ast.Assign) else [])
            found += ["%s.%s" % (cls.name, n) for n in names if n in ACCESSORS]
    return found


def test_accessor_overrides_are_found():
    core = ("class DoubleCat:\n"
            "    def hcomp_sq(self, s1, s2): pass\n"
            "class Product(DoubleCat):\n"
            "    def hcomp_sq_many(self, squares): pass\n"
            "    hcomp_h_fn = None\n")
    hom = ("class Hom(Interned):\n"
           "    sq_v_id = DoubleCat.sq_v_id\n"
           "class Interned(core.DoubleCat):\n"
           "    def vcomp_v(self, u, w): pass\n"
           "class Terms:\n"
           "    hcomp_sq = HComp\n"
           "    def sq_h_id(self, u): pass\n"
           "def hcomp_h(d, f, g): pass\n")
    assert accessor_overrides([core, hom]) == ["Hom.sq_v_id",
                                                "Interned.vcomp_v"]


def test_only_double_cat_defines_the_accessors():
    """Every backend composes through ``DoubleCat``'s ``hcomp_h``,
    ``vcomp_v``, ``hcomp_sq``, ``vcomp_sq``, ``sq_v_id`` and ``sq_h_id``;
    no subclass defines its own."""
    sources = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            sources.append(fh.read())
    assert accessor_overrides(sources) == []


# -- no function is written twice --------------------------------------------


def duplicate_bodies(sources):
    """The groups of module-level functions, over ``sources`` (pairs of a
    module name and its source), whose bodies are the same once a leading
    docstring is dropped; each function as ``module.name``."""
    groups = {}
    for module, source in sources:
        for node in ast.parse(source).body:
            if not isinstance(node, ast.FunctionDef):
                continue
            body = node.body
            if (isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                body = body[1:]
            key = ast.dump(ast.Module(body=body, type_ignores=[]))
            groups.setdefault(key, []).append("%s.%s" % (module, node.name))
    return sorted(group for group in groups.values() if len(group) > 1)


def test_duplicate_bodies_are_found():
    a = ('def f(x):\n    """One."""\n    return g(x)\n'
         'def h(x):\n    """Two."""\n    return g(x)\n'
         'def k(y):\n    return g(y)\n')
    b = 'def m(x):\n    return g(x)\ndef n():\n    pass\n'
    assert duplicate_bodies([("a", a), ("b", b)]) == [["a.f", "a.h", "b.m"]]


def test_no_two_functions_share_a_body():
    sources = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            sources.append((os.path.basename(path)[:-len(".py")], fh.read()))
    assert duplicate_bodies(sources) == []


# -- a law catalogue builds its side functions once per law -------------------

# each emits a run of instances of one law as one row: its side functions
# take the instance's key, so a default argument that binds loop variables
# (a closure per instance) has no place in them
CATALOGUES = {"functor.py": ("_lax_functor_laws",),
              "transform.py": ("_hor_transform_laws", "_vert_transform_laws",
                               "_modification_laws"),
              "quasi.py": ("_quasi_laws", "_q_cell_laws")}


def default_argument_closures(source, names):
    """The lines inside the module-level functions ``names`` of ``source``
    that make a lambda or a nested function with default arguments."""
    lines = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in names:
            for inner in ast.walk(node):
                if (inner is not node and isinstance(
                        inner, (ast.Lambda, ast.FunctionDef))
                        and (inner.args.defaults
                             or any(inner.args.kw_defaults))):
                    lines.add(inner.lineno)
    return sorted(lines)


def test_default_argument_closures_are_found():
    src = ("def laws(x, emit):\n"
           "    for a in x:\n"
           "        emit(lambda a=a: a)\n"
           "    side = lambda a: a\n"
           "    def inner(b, *, c=1):\n"
           "        return b\n"
           "def other(x):\n"
           "    return lambda y=x: y\n")
    assert default_argument_closures(src, ("laws",)) == [3, 5]


@pytest.mark.parametrize("module", sorted(CATALOGUES))
def test_catalogues_make_no_closure_per_instance(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        source = fh.read()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef)}
    assert set(CATALOGUES[module]) <= defined
    assert default_argument_closures(source, CATALOGUES[module]) == []
