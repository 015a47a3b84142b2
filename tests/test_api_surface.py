"""Every public name of `trophom` has a caller: each public top-level
function, class and method in src/trophom is named somewhere in src/, tests/
or bench/ besides its own definition.  A public name that nothing calls is
deleted, not kept."""

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


def public_definitions(tree):
    """(qualified name, name) of each public top-level function and class,
    and of each public method of a top-level class."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            out.append((node.name, node.name))
        if isinstance(node, ast.ClassDef):
            out += [("%s.%s" % (node.name, m.name), m.name) for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def test_every_public_name_has_a_caller():
    used = set()
    for scope in SCOPES:
        for path in sorted((ROOT / scope).rglob("*.py")):
            used |= names_used(ast.parse(path.read_text(), str(path)))
    defined = [(path.stem, qualname, name)
               for path in sorted(PACKAGE.glob("*.py"))
               for qualname, name in public_definitions(ast.parse(path.read_text()))]
    assert len(defined) > 50
    unused = ["%s.%s" % (module, qualname) for module, qualname, name in defined
              if name not in used]
    assert unused == []
