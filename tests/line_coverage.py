"""Print the statements of ``src/goalagenda`` that the tier-1 tests never run.

Runs tier-1 (``pytest -q --continue-on-collection-errors`` over ``tests``)
in this process under ``sys.settrace``, standard library only, and records
the lines executed in the package's modules. A statement is one of the
module's ``ast`` statements that compiles to code, docstrings excepted;
it ran when a line of its own ran (a compound statement owns its
decorators and header, up to its body). Every statement that never ran is
printed as ``path:line: source``, followed by their count and pytest's
exit status.

    python tests/line_coverage.py

Code run in a subprocess is not traced. The script only prints; it checks
nothing and writes no file.
"""

from __future__ import annotations

import ast
import os
import sys
from pathlib import Path

import pytest

from code_lines import docstring_lines

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "goalagenda"


def _code_lines(code) -> set:
    """The lines that carry bytecode in a code object and the code objects
    nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _own_lines(node) -> range:
    """All the lines of a simple statement; the decorators and header of a
    compound one."""
    start = min([node.lineno] + [d.lineno for d in
                                 getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
    return range(start, end + 1)


def never_run(source: str, executed: set) -> list:
    """The first lines of the module's statements that carry code, outside
    its docstrings, none of whose own lines is in ``executed``; ascending."""
    tree = ast.parse(source)
    code = _code_lines(compile(source, "<module>", "exec"))
    docstrings = docstring_lines(tree)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.stmt)
                  and node.lineno not in docstrings
                  and code.intersection(_own_lines(node))
                  and not executed.intersection(_own_lines(node)))


def run_traced(run, paths) -> tuple:
    """``(run(), path -> lines executed)`` for the files ``paths`` (as given,
    resolved to compare), with ``run`` under a line trace. The trace in
    force before is restored after."""
    executed = {path: set() for path in paths}
    by_real = {os.path.realpath(path): executed[path] for path in paths}
    tracers: dict = {}

    def tracer_for(filename: str):
        if filename not in tracers:
            lines = by_real.get(os.path.realpath(filename))
            local = None
            if lines is not None:
                add = lines.add

                def local(frame, event, arg):
                    if event == "line":
                        add(frame.f_lineno)
                    return local

            tracers[filename] = local
        return tracers[filename]

    def on_call(frame, event, arg):
        return tracer_for(frame.f_code.co_filename)

    before = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = run()
    finally:
        sys.settrace(before)
    return result, executed


def main() -> int:
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    paths = sorted(PACKAGE.rglob("*.py"))
    status, executed = run_traced(lambda: pytest.main(
        ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
         "--rootdir", str(ROOT), str(ROOT / "tests")]), paths)
    missed = 0
    for path in paths:
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        for line in never_run(source, executed[path]):
            missed += 1
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{lines[line - 1].strip()}")
    print(f"{missed} statements never run; pytest exit status {int(status)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
