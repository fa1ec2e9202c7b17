"""Count the lines of each ``src/qprep`` module that hold code.

A line holds code when a token other than a comment, a line break or an
indent change starts on it or spans it.  Blank lines, comment lines and
docstrings (the string that opens a module, class or function body) do not
count; the lines of any other multi-line string do.

    python tools/code_lines.py

prints one ``lines  module`` row per module and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers spanned by every docstring of the module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of lines of ``path`` that hold code."""
    source = Path(path).read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type in _NOT_CODE:
                continue
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main():
    src = Path(__file__).resolve().parents[1] / "src" / "qprep"
    total = 0
    for path in sorted(src.glob("*.py")):
        count = code_lines(path)
        total += count
        print("%6d  %s" % (count, path.name))
    print("%6d  total" % total)
    return 0


if __name__ == "__main__":
    sys.exit(main())
