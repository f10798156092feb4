"""Print the physical lines and the code lines of each module of cicert.

Run from anywhere inside a cicert checkout:

    python3 tools/code_lines.py

It prints `module physical code` for each module of `src/cicert`, then a
`total` line.  A code line is a line that holds a token of the program:
blank lines, comment lines and the lines of docstrings are left out.  A
docstring is a string that stands alone as the first statement of a
module, class or function body.  A line that holds code and a comment
is a code line.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cicert"

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers that the docstrings of the module, its classes
    and its functions span."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> tuple[int, int]:
    """(physical, code) lines of a module's source text."""
    docstrings = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(n for n in range(tok.start[0], tok.end[0] + 1)
                        if n not in docstrings)
    return len(source.splitlines()), len(code)


def main():
    total_physical = total_code = 0
    for path in sorted(SRC.glob("*.py")):
        physical, code = count_lines(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.stem} {physical} {code}")
    print(f"total {total_physical} {total_code}")


if __name__ == "__main__":
    main()
