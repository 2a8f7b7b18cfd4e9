"""The line counter behind ``python tests/code_lines.py --against REV``,
on in-memory sources."""

import code_lines

BEFORE = {
    "pkg/kept.py": '"""Module docstring."""\n\nx = 1\n',
    "pkg/gone.py": "def f():\n    \"\"\"Doc.\"\"\"\n    return 2\n",
}

AFTER = {
    "pkg/kept.py": '"""Module docstring,\nnow two lines."""\n\n'
                   "# a comment\nx = 1\ny = (x +\n     1)\n",
    "pkg/new.py": 'TEXT = """not a\ndocstring"""\n',
}


def test_code_lines_skips_docstrings_comments_and_blanks():
    assert code_lines.code_lines(BEFORE["pkg/kept.py"]) == 1
    assert code_lines.code_lines(BEFORE["pkg/gone.py"]) == 2
    assert code_lines.code_lines(AFTER["pkg/kept.py"]) == 3
    assert code_lines.code_lines(AFTER["pkg/new.py"]) == 2


def test_delta_lists_each_module_of_either_side_with_both_counts():
    assert code_lines.delta(BEFORE, AFTER) == [
        ("pkg/gone.py", 2, 0),
        ("pkg/kept.py", 1, 3),
        ("pkg/new.py", 0, 2),
    ]
