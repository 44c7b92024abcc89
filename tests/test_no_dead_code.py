"""No production code that only the tests call.

Every module-level function and class in src/morgan must be referenced
somewhere in src/morgan outside its own definition, as a name or as an
attribute (`zeros_mod.charpoly`).  An import alone is not a reference.
Exempt are the names in a module's `__all__` and the `cmd_*` functions,
which `cli.main` looks up by name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "morgan"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


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


def test_every_module_level_name_has_a_caller_in_the_package():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    assert len(trees) > 1
    assert unreferenced(trees) == []


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
        ),
        "b": ast.parse(
            "from .a import imported_only\n"
            "from . import a as mod\n"
            "__all__ = ['caller']\n"
            "def caller(): return mod.by_attribute()\n"
        ),
    }
    assert unreferenced(trees) == [
        ("a", "recursive"),
        ("a", "imported_only"),
        ("a", "Unused"),
    ]
