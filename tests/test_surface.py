"""Every public function, method and property in src/ufmlab has a caller there.

A name that only the tests reach is dead weight in the package: the tests
should check its behaviour through the code that the CLI runs.  The scan is
by name: a definition counts as used when a Name, an Attribute or an
import in src/ufmlab, outside the definition itself and outside the
package's __init__, carries its name (a re-export is not a caller).
"""

import ast
from collections import Counter
from pathlib import Path

import ufmlab

SRC = Path(ufmlab.__file__).parent


def _references(node) -> Counter:
    names = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    return Counter(getattr(n, names[type(n)]) for n in ast.walk(node) if type(n) in names)


def _public_defs(module: ast.Module):
    """(qualified name, def) of top-level functions and of class methods and properties."""
    for node in module.body:
        is_class = isinstance(node, ast.ClassDef)
        prefix, members = (f"{node.name}.", node.body) if is_class else ("", [node])
        for member in members:
            if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                yield prefix + member.name, member


def test_every_public_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
             if path.stem != "__init__"}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    unused = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, fn in _public_defs(tree)
        if used[fn.name] - _references(fn)[fn.name] <= 0
    )
    assert unused == []
