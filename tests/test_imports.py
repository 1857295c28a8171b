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
