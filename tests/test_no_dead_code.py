"""No production code that only the tests call.

Every module-level function and class in src/morgan must be referenced
somewhere in src/morgan outside its own definition, as a name or as an
attribute (`zeros_mod.charpoly`).  An import alone is not a reference.
Exempt are the names in a module's `__all__` and the `cmd_*` functions,
which `cli.main` looks up by name.  Every method of a module-level class,
dunders aside, must be named as an attribute (`m.params()`) somewhere in
src/morgan outside its own definition.
"""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "morgan"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
METHODS = (ast.FunctionDef, ast.AsyncFunctionDef)

# The benchmark's layer table (perfbench/layers.py) wraps this method by
# name; nothing in the package calls it.
EXEMPT_METHODS = {("RationalMatrix", "nullspace")}


def used_names(node) -> set:
    """Every identifier that node loads, as a bare name or an attribute."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unreferenced(trees) -> list:
    """(module, name) of each module-level function or class of trees, a
    dict of module name to parsed module, that no other top-level statement
    of any module uses."""
    exempt = set()
    defined = []
    uses = []  # (module, the top-level statement, names it uses)
    for module, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, DEFINITIONS):
                defined.append((module, stmt))
            elif isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                exempt |= set(ast.literal_eval(stmt.value))
            uses.append((module, stmt, used_names(stmt)))
    return [
        (module, node.name)
        for module, node in defined
        if node.name not in exempt
        and not node.name.startswith("cmd_")
        and not any(
            node.name in names and stmt is not node for _, stmt, names in uses
        )
    ]


def attributes(node) -> Counter:
    """How often node names each attribute."""
    return Counter(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))


def unreferenced_methods(trees) -> list:
    """(module, class, method) of each non-dunder method of a module-level
    class of trees that no attribute outside its own definition names."""
    named = sum((attributes(tree) for tree in trees.values()), Counter())
    return [
        (module, cls.name, node.name)
        for module, tree in trees.items()
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, METHODS)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and (cls.name, node.name) not in EXEMPT_METHODS
        and named[node.name] == attributes(node)[node.name]
    ]


def test_every_module_level_name_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(trees) > 1
    assert unreferenced(trees) == []
    assert unreferenced_methods(trees) == []


def test_the_check_finds_an_uncalled_function():
    trees = {
        "a": ast.parse(
            "__all__ = ['api']\n"
            "def api(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(k): return recursive(k - 1) if k else 0\n"
            "def cmd_run(args): return 0\n"
            "def imported_only(): pass\n"
            "def by_attribute(): pass\n"
            "class Unused: pass\n"
            "class Used:\n"
            "    def __init__(self): self.called()\n"
            "    def called(self): pass\n"
            "    def unused(self): return self.unused_elsewhere\n"
            "    def again(self, k): return self.again(k - 1) if k else 0\n"
            "    def nullspace(self): pass\n"
        ),
        "b": ast.parse(
            "from .a import imported_only, Used\n"
            "from . import a as mod\n"
            "__all__ = ['caller']\n"
            "def caller(): return mod.by_attribute(), Used()\n"
        ),
    }
    assert unreferenced(trees) == [
        ("a", "recursive"),
        ("a", "imported_only"),
        ("a", "Unused"),
    ]
    # an exempt name in another class is still checked
    assert unreferenced_methods(trees) == [
        ("a", "Used", "unused"),
        ("a", "Used", "again"),
        ("a", "Used", "nullspace"),
    ]
