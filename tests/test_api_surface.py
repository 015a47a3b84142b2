"""Every public name of `trophom` has a caller: each public top-level
function, class and method in src/trophom is named somewhere in src/, tests/
or bench/ besides its own definition.  So is every private top-level
function and class and every private method of a top-level class (dunder
methods aside).  A name that nothing calls is deleted, not kept."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "trophom"
SCOPES = ("src", "tests", "bench")


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


def names_used(tree):
    """Identifiers a module names: names, attributes, imports, and the words
    of its string constants other than docstrings (the benchmark's tracer
    names the functions it patches by string)."""
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
                and node not in docs:
            out.update(re.findall(r"[A-Za-z_]\w*", node.value))
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


def unused_definitions(keep):
    """The qualified names of the definitions in src/trophom whose names
    `keep` accepts and that no module of src/, tests/ or bench/ names
    outside docstrings, and how many such definitions there are."""
    used = set()
    for scope in SCOPES:
        for path in sorted((ROOT / scope).rglob("*.py")):
            used |= names_used(ast.parse(path.read_text(), str(path)))
    defined = [(path.stem, qualname, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for qualname, name in definitions(ast.parse(path.read_text()), keep)]
    return ["%s.%s" % (module, qualname) for module, qualname, name in defined
            if name not in used], len(defined)


def test_every_public_name_has_a_caller():
    unused, defined = unused_definitions(public)
    assert defined > 50
    assert unused == []


def test_every_private_helper_is_referenced():
    unused, defined = unused_definitions(private)
    assert defined > 10
    assert unused == []
