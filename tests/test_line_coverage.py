"""The statement finder and the line trace behind
``python tests/line_coverage.py``, on a module of their own."""

import line_coverage

SOURCE = '''"""Module docstring."""

import os


def f(x):
    """Function docstring."""
    if x:
        return x
    return None


@staticmethod
def g():
    global y
    return (1 +
            2)
'''


def test_never_run_lists_each_statement_with_code_that_no_line_ran(tmp_path):
    """After the module runs and calls f(1), f's last return and g's body
    never ran. Docstrings are not statements here, ``global`` carries no
    code, and the decorated def ran at import (line 1 is the module
    docstring's store)."""
    path = tmp_path / "mod.py"
    path.write_text(SOURCE)
    code = compile(SOURCE, str(path), "exec")
    namespace: dict = {}

    def run():
        exec(code, namespace)
        return namespace["f"](1)

    result, executed = line_coverage.run_traced(run, [path])
    assert result == 1
    assert executed[path] == {1, 3, 6, 8, 9, 13, 14}
    assert line_coverage.never_run(SOURCE, executed[path]) == [10, 16]
    # a statement is named by its first line, the def's for a decorated one
    assert line_coverage.never_run(SOURCE, set()) == [3, 6, 8, 9, 10, 14, 16]
