"""Count the code lines of the ``pauliblock`` package.

A code line is a source line that holds a token of code: blank lines,
comment lines and the lines of docstrings (the string that opens a
module, class or function) are left out; a line of code that ends in a
comment counts, and so does every line of a string or expression that
spans several.

Usage::

    python3 tools/code_lines.py [package directory]

The directory defaults to ``src/pauliblock`` beside this script's
directory.  It prints one line per module and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

# Tokens that hold no code.
SKIPPED = {
    tokenize.ENCODING, tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(tree):
    """The line numbers of every docstring in the parsed module ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(
            node,
            (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
        ) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path):
    """The number of code lines of the Python file at ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in SKIPPED:
                lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    package = (
        Path(argv[1]) if len(argv) > 1
        else Path(__file__).resolve().parents[1] / "src" / "pauliblock"
    )
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
