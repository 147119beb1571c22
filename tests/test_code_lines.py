from code_lines import code_lines, main

#: a module of 6 code lines among docstrings, comments, blank lines, a
#: string holding '#' and a statement continued over two lines
FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps the line


# a comment line
class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring."""
        label = "# not a comment"
        return (side
                * side)
'''


def test_counts_code_lines_only():
    assert code_lines(FIXTURE) == 6


def test_a_later_string_statement_is_code():
    assert code_lines('x = 1\n"""not a docstring"""\n') == 2


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("y = 2\n")
    assert main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["6", "a.py", "1", "b.py", "7", "total"]


def test_main_compares_two_trees(tmp_path, capsys):
    before, after = tmp_path / "before", tmp_path / "after"
    before.mkdir()
    after.mkdir()
    (before / "a.py").write_text(FIXTURE)
    (before / "gone.py").write_text("y = 2\nz = 3\n")
    (after / "a.py").write_text(FIXTURE + "w = 4\n")
    (after / "new.py").write_text("y = 2\n")
    assert main([str(before), str(after)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     6       7      +1  a.py",
        "     2       0      -2  gone.py",
        "     0       1      +1  new.py",
        "     8       8      +0  total",
    ]


def test_main_refuses_a_third_tree(tmp_path, capsys):
    assert main([str(tmp_path)] * 3) == 2
    assert "usage" in capsys.readouterr().err
