"""Line counts of the library's source files, by kind.

Usage::

    python tools/linecount.py

For each file of ``src/formcalc/`` and in all, prints the total number of
lines and its split into code, docstring, comment and blank lines.  Every
line has one kind: a line inside a module, class or function docstring is a
docstring line; any other line with a token of code is a code line (a string
spanning lines counts on each of them); a line holding only a comment is a
comment line; the rest are blank.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "formcalc"
KINDS = ("total", "code", "docstring", "comment", "blank")
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> dict[str, int]:
    """The number of lines of each kind in ``source``."""
    docstring, code, comment = set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.COMMENT:
            comment.add(token.start[0])
        elif token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    lines = len(io.StringIO(source).readlines())
    counts = dict.fromkeys(KINDS, 0)
    for line in range(1, lines + 1):
        kind = ("docstring" if line in docstring else "code" if line in code
                else "comment" if line in comment else "blank")
        counts[kind] += 1
    counts["total"] = lines
    return counts


def main() -> None:
    totals = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}" + "".join(f"{kind:>10}" for kind in KINDS))
    for path in sorted(SOURCE.glob("*.py")):
        counts = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            totals[kind] += counts[kind]
        print(f"{path.name:<16}" + "".join(f"{counts[kind]:>10}" for kind in KINDS))
    print(f"{'all':<16}" + "".join(f"{totals[kind]:>10}" for kind in KINDS))


if __name__ == "__main__":
    main()
