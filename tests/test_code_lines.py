"""`tools/code_lines.py`, the code-line count that line-cut claims are made with."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''\
"""Module docstring,
over two lines."""

import os  # a trailing comment: the line counts

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        text = """a string
that is no docstring"""
        return os.path.join(
            text,

            # a comment inside a call
            x,
        )
'''


def test_counts_token_lines_outside_docstrings_and_comments(tmp_path):
    # import, class, def, the 2 string lines, and the 4 token lines of the call
    assert code_lines.code_lines(SNIPPET) == 9
    path = tmp_path / "pkg" / "m.py"
    path.parent.mkdir()
    path.write_text(SNIPPET)
    (path.parent / "notes.txt").write_text("x = 1\n")
    assert code_lines.count([tmp_path]) == {"modules": {str(path): 9}, "total": 9}
