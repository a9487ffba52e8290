"""Count the code lines and tokens of each module in src/altcomm, and their totals.

A code line is a non-blank line outside comments and docstrings.  A
docstring is a string literal standing alone as the first statement of a
module, class or function.  Every line of a statement continued over
several lines counts, so does every line of a multi-line string that is
not a docstring.

A module's tokens are those of tokenize, without comments and the NL
tokens of blank and continued lines; a docstring is one token.  CPython's
parser doubles its token array when a module reaches 4,096 tokens, which
raises the memory a compile of that module takes.

Run from the repository root:

    python tools/code_lines.py [DIR]

DIR defaults to src/altcomm.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in a Python source text."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    text = source.splitlines()
    return sum(1 for k in lines - skip if text[k - 1].strip())


def tokens(source: str) -> int:
    """The number of tokens in a Python source text, without comments and NL tokens."""
    return sum(1 for tok in tokenize.generate_tokens(io.StringIO(source).readline)
               if tok.type not in (tokenize.COMMENT, tokenize.NL))


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/altcomm")
    total = total_tokens = 0
    print("  code  tokens  module")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        count, tok = code_lines(source), tokens(source)
        total += count
        total_tokens += tok
        print(f"{count:6d}  {tok:6d}  {path.name}")
    print(f"{total:6d}  {total_tokens:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
