"""Print the code lines of each module under ``src/`` and their total.

A code line is a physical line that carries a token other than a comment,
and that lies outside every docstring (the leading string of a module,
class or function). Blank lines, comment-only lines and docstrings do not
count; a line inside a multi-line string that is not a docstring does.

    python tests/code_lines.py [ROOT] [--against REV]

ROOT defaults to the repository's ``src`` directory. With ``--against``,
each line also shows the signed change from the same module at git
revision REV (read with ``git show REV:path``), and a module present on
only one side counts 0 on the other. The script only prints; it checks
nothing.
"""

from __future__ import annotations

import argparse
import ast
import io
import subprocess
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def delta(before: dict, after: dict) -> list:
    """``(path, lines before, lines after)`` for every path of either
    mapping (path -> module source), ascending by path; a path missing
    from one mapping has 0 lines there."""
    return [(path, code_lines(before[path]) if path in before else 0,
             code_lines(after[path]) if path in after else 0)
            for path in sorted(set(before) | set(after))]


def sources_at(root: Path, rev: str) -> dict:
    """The ``.py`` modules under ``root`` at git revision ``rev``, keyed by
    their path relative to ``root``."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=root, check=True,
                              capture_output=True, text=True).stdout

    return {path: git("show", f"{rev}:./{path}")
            for path in git("ls-tree", "-r", "--name-only", rev).split()
            if path.endswith(".py")}


def main(argv) -> int:
    parser = argparse.ArgumentParser(description="Code lines per module.")
    parser.add_argument("root", nargs="?", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--against", metavar="REV",
                        help="also print the change from git revision REV")
    args = parser.parse_args(argv[1:])
    after = {path.relative_to(args.root).as_posix():
             path.read_text(encoding="utf-8")
             for path in args.root.rglob("*.py")}
    before = sources_at(args.root, args.against) if args.against else {}
    rows = delta(before, after)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    for path, old, new in rows:
        change = f"  {new - old:+6d}" if args.against else ""
        print(f"{new:6d}{change}  {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
