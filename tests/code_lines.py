"""Count the code lines of each module of the degenwave package.

A code line is a physical line that holds at least one token of code. Blank
lines, comment lines and the lines of docstrings (the leading string of a
module, class or function body) are not code. A statement that spans lines
counts each line it is written on. The rule reads the token stream, so a
`#` inside a string is not a comment and a line continued by a bracket
still counts.

    python tests/code_lines.py [DIR]
    python tests/code_lines.py BEFORE_DIR AFTER_DIR

The first form prints each module's count and the total, for the package
directory DIR or by default the package at src/degenwave.  The second
compares two package directories: per module, and for the total, it prints
the count in BEFORE_DIR, the count in AFTER_DIR and their difference (a
module missing from one tree counts 0 there).
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "degenwave"

#: tokens that hold no code
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def count_package(package: Path) -> dict[str, int]:
    """Code lines per module file of a package directory, by file name."""
    return {path.name: code_lines(path.read_text()) for path in sorted(package.glob("*.py"))}


def main(argv: list[str]) -> int:
    if len(argv) > 2:
        print("usage: code_lines.py [DIR | BEFORE_DIR AFTER_DIR]", file=sys.stderr)
        return 2
    trees = [count_package(Path(arg)) for arg in argv] or [count_package(PACKAGE)]
    rows = [(name, [tree.get(name, 0) for tree in trees]) for name in sorted(set().union(*trees))]
    rows.append(("total", [sum(tree.values()) for tree in trees]))
    for name, counts in rows:
        cells = [f"{count:6d}" for count in counts]
        if len(counts) == 2:
            cells.append(f"{counts[1] - counts[0]:+6d}")
        print("  ".join(cells) + f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
