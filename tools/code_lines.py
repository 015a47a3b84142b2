"""Count the code lines of Python files: the lines that hold a token other
than a comment, and that are not part of a module, class or function
docstring.  So editing prose cannot pass for a change in code.

    python3 tools/code_lines.py src/trophom/*.py

prints one "<count> <path>" line per file and a "<count> total" line, the
counts right-aligned in six columns.
"""

import ast
import io
import sys
import tokenize

PROSE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text):
    """The number of code lines in the Python source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in PROSE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and body \
                and isinstance(body[0], ast.Expr) \
                and isinstance(body[0].value, ast.Constant) \
                and isinstance(body[0].value.value, str):
            code -= set(range(body[0].lineno, body[0].end_lineno + 1))
    return len(code)


def main(paths):
    total = 0
    for path in paths:
        with open(path) as f:
            n = code_lines(f.read())
        total += n
        print("%6d %s" % (n, path))
    print("%6d total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
