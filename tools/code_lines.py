"""Count the code lines of Python modules.

A line is a code line when it holds a token outside docstrings and
comments: blank lines, comment lines and the lines of a module, class or
function docstring do not count.  A multi-line string other than a
docstring counts every line it covers.

    python tools/code_lines.py src/equichar

prints {"modules": {path: count}, "total": count} as JSON for every `.py`
file under the paths given (files or directories), sorted by path.
"""

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(source: str) -> int:
    """The number of code lines in the Python source `source`."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.tokenize(io.BytesIO(source.encode()).readline):
        if token.type not in _NOT_CODE:
            lines.update(set(range(token.start[0], token.end[0] + 1)) - docstrings)
    return len(lines)


def count(paths) -> dict:
    """{"modules": {path: code lines}, "total": their sum} for the `.py`
    files in `paths`, each a file or a directory searched recursively."""
    files = []
    for path in map(Path, paths):
        files.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    modules = {str(f): code_lines(f.read_text()) for f in sorted(files)}
    return {"modules": modules, "total": sum(modules.values())}


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit("usage: python tools/code_lines.py PATH [PATH ...]")
    print(json.dumps(count(sys.argv[1:]), indent=2))
