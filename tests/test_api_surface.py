"""Every public name of `trophom` has a caller in the pipeline: each public
top-level function, class and method in src/trophom is named somewhere in
src/ or bench/ besides its own definition.  A caller in tests/ alone is not
enough: a name only the tests need lives in the tests.  Every private
top-level function and class and every private method of a top-level class
(dunder methods aside) is named somewhere in src/, tests/ or bench/.  A
string names a function only when the whole string is its name or a dotted
path to it, as the benchmark's tracer writes them, so a word in an error
message keeps nothing alive.  A name that nothing calls is deleted, not
kept.  No module imports another's private name.  And the package stays
pure Python with no dependencies."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trophom"
PIPELINE = ("src", "bench")


def _docstrings(tree):
    """The docstring nodes of a module: prose, not references."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.add(first.value)
    return out


# a string that is one identifier or a dotted path of them, as the
# benchmark's tracer names the functions it patches ("polyhedra.dd_cone")
PATH = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*")


def names_used(tree):
    """Identifiers a module names: names, attributes, imports, and the parts
    of its string constants, other than docstrings, that are a whole
    identifier or dotted path (`PATH`).  A word inside other text, such as
    an error message, names nothing."""
    docs = _docstrings(tree)
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node not in docs and PATH.fullmatch(node.value):
            out.update(node.value.split("."))
    return out


def public(name):
    return not name.startswith("_")


def private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions(tree, keep):
    """(qualified name, name) of each top-level function and class, and of
    each method of a top-level class, whose name `keep` accepts."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and keep(node.name):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [("%s.%s" % (node.name, m.name), m.name) for m in node.body
                    if isinstance(m, ast.FunctionDef) and keep(m.name)]
    return out


def unused_definitions(keep, scopes):
    """The qualified names of the definitions in src/trophom whose names
    `keep` accepts and that no module under the directories `scopes` names
    outside docstrings, and how many such definitions there are."""
    used = set()
    for scope in scopes:
        for path in sorted((ROOT / scope).rglob("*.py")):
            used |= names_used(ast.parse(path.read_text(), str(path)))
    defined = [(path.stem, qualname, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for qualname, name in definitions(ast.parse(path.read_text()), keep)]
    return ["%s.%s" % (module, qualname) for module, qualname, name in defined
            if name not in used], len(defined)


def test_every_public_name_has_a_caller():
    unused, defined = unused_definitions(public, PIPELINE)
    assert defined > 50
    assert unused == []


def test_every_private_helper_is_referenced():
    unused, defined = unused_definitions(private, PIPELINE + ("tests",))
    assert defined > 10
    assert unused == []


def test_no_module_imports_another_modules_private_name():
    """A private name of a module in src/trophom is its own: no module
    imports one from another (`from .x import _name`).  A helper that two
    modules need is public in the one that owns it."""
    imported = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported += ["%s: %s.%s" % (path.name, node.module, alias.name)
                             for alias in node.names if alias.name.startswith("_")]
    assert imported == []


def test_only_whole_paths_in_strings_are_references():
    """A dotted path names each of its parts, and so does a lone
    identifier; a word inside a message, or a docstring, names nothing."""
    tree = ast.parse('''
def f():
    """calls column"""
    trace("exactla.IntMatrix.mul", "solve_int")
    raise ValueError("entry at row 1, column 2")
''')
    used = names_used(tree)
    assert {"exactla", "IntMatrix", "mul", "solve_int", "trace", "ValueError"} <= used
    assert "column" not in used and "calls" not in used and "row" not in used


def test_pure_python_with_no_dependencies():
    """Every import in src/trophom is relative or of the standard library,
    and pyproject.toml's [project] table declares `dependencies = []`."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)
    project = (ROOT / "pyproject.toml").read_text().split("\n[project]\n", 1)[1]
    project = project.split("\n[", 1)[0]
    assert re.search(r"^dependencies = \[\]$", project, re.M), project
