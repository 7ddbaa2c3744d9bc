"""Code lines of the package, per module and in all.

A code line holds a token other than a comment, a docstring (found by
``ast``) or blank space (found by ``tokenize``).  Standard library only;
run it from the repository root, next to ``wc -l src/wsimplex/*.py`` for
the net lines:

    python3 tools/source_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

BLANK = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(text: str) -> int:
    """The number of code lines in the Python source text."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in BLANK:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(text)):
        first = node.body[0] if isinstance(node, SCOPES) and node.body else None
        if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                and isinstance(first.value.value, str):
            lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(Path("src/wsimplex").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        print(f"{count:6d} code lines {path}")
        total += count
    print(f"{total:6d} code lines in all")


if __name__ == "__main__":
    main()
