"""Count the code lines of Python sources: lines that hold a token, less comments,
blank lines and docstrings.

Usage, from the root of a checkout:

    python tools/codelines.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched for them (default ``src``).
The script prints the count of each file and the total.  A docstring is any
statement that is a string literal alone; a line that carries code and a
comment counts once.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _LAYOUT:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return len(lines)


def main(argv) -> int:
    paths = [Path(p) for p in argv] or [Path("src")]
    files = sorted(f for p in paths for f in ([p] if p.is_file() else p.rglob("*.py")))
    total = 0
    for f in files:
        count = code_lines(f.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
