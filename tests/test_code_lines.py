"""The code-line count of `tests/code_lines.py`, which the size gates read."""

from code_lines import count_code_lines, main

MODULE = '''"""A module docstring."""

# a comment
x = 1
y = x + 1
'''

FUNCTION = '''def f(a):
    """A docstring
    over two lines."""
    return g(a,  # a comment inside the call
             a)
'''


def test_docstring_comment_and_blank_do_not_count():
    assert count_code_lines(MODULE) == 2


def test_function_docstring_skipped_continued_lines_counted():
    assert count_code_lines(FUNCTION) == 3


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg" / "b.py").write_text(FUNCTION)
    assert main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert [line.split() for line in lines] == [["2", "a.py"], ["3", "pkg/b.py"], ["5", "total"], []]
