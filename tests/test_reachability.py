"""The package keeps what its surface reaches.

A fresh process runs a fixed list of commands under `sys.setprofile` and
records every function it enters: each subcommand in each of its formats,
every chamber with n <= 8 cold and then warm through one cache, the four
`verify` suites, `cache` and `cache --clear`, one usage error, one cache file
with a rational coefficient, and the README's Library snippet.  Every
module-level function and method of the package must be entered, except
dunders and the names in `UNREACHED`, each kept for the reason given there.
The process must be fresh, because a memo (`functools.cache`) warmed by
another test would hide calls.

Run as a script, `python tests/test_reachability.py DIR` with the package on
the path, this file is that process: it prints the exit codes and the entered
functions, as (file, first line), in JSON.
"""

import ast
import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "equichar"

# Names no command enters, each with the reason it stays.
UNREACHED = {
    "moduli.git_polynomial": "perfbench/spans.py:26 patches it",
    "qpoly.QPoly.divexact": "perfbench/spans.py:62 patches it to count calls",
    "qpoly.QPoly.reflect": "perfbench/gate.py:87 checks palindromes with it",
    "symfunc.character_value": "perfbench/worker.py:42 reads its cache_info",
}

# A cache file holding a character whose q-coefficient is not an integer.
RATIONAL_FILE = (
    '{"v":1,"n":5,"k":0,"l":2,"basis":"schur","bidegree":[0,5],'
    '"terms":[{"x":[],"y":[5],"coeff":{"0":"1","1":"1/2","2":"1"}}]}'
)


def _readme_snippet() -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(r"^## Library\n\n```python\n(.*?)^```", readme, re.M | re.S).group(1)


def _run_commands(directory: Path) -> dict:
    """Run the command list under a profile hook; the exit codes of the
    commands and the (file, first line) of every function entered."""
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(hook)
    from equichar.cli import main
    from equichar.moduli import base_level

    codes = []

    def run(*argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse ends a usage error this way
                code = exc.code
        codes.append([list(argv), code])

    for fmt in ("text", "latex", "json"):
        run("compute", "--n", "6", "--k", "1", "--l", "3", "--format", fmt)
        run("betti", "--n", "6", "--format", fmt)
    for fmt in ("text", "json"):
        run("length-table", "--n-max", "8", "--format", fmt)
    cache = str(directory / "cache")
    chambers = [
        (n, k, l) for n in range(3, 9) for k in range(n + 1) for l in range(1, base_level(n, k) + 1)
    ]
    for _ in ("cold", "warm"):
        for n, k, l in chambers:
            run("compute", "--n", str(n), "--k", str(k), "--l", str(l), "--cache", cache)
    for suite in ("paper-examples", "duality", "oracles", "length-theorem"):
        run("verify", "--suite", suite, "--n-max", "7")
    run("cache", "--cache", cache)
    run("cache", "--clear", "--cache", cache)
    run("compute", "--k", "1")
    rational = directory / "rational"
    rational.mkdir()
    (rational / "E_5_0_2.json").write_text(RATIONAL_FILE)
    run("compute", "--n", "5", "--cache", str(rational))
    exec(_readme_snippet(), {})
    sys.setprofile(None)
    prefix = str(PACKAGE) + os.sep
    lines = {(c.co_filename, c.co_firstlineno) for c in entered}
    return {"codes": codes, "entered": sorted(x for x in lines if x[0].startswith(prefix))}


def _definitions() -> dict:
    """{(file, first line): qualified name} for every module-level function
    and method of the package.  The first line is that of the first
    decorator, as in `co_firstlineno`."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            owner, items = "", [node]
            if isinstance(node, ast.ClassDef):
                owner, items = node.name + ".", node.body
            for item in items:
                if isinstance(item, ast.FunctionDef):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    out[str(path), first] = f"{path.stem}.{owner}{item.name}"
    return out


def test_every_name_but_the_listed_ones_is_reached(tmp_path):
    done = subprocess.run(
        [sys.executable, __file__, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    report = json.loads(done.stdout)
    failed = {tuple(argv): code for argv, code in report["codes"] if code}
    rational = ("compute", "--n", "5", "--cache", str(tmp_path / "rational"))
    assert failed == {("compute", "--k", "1"): 1, rational: 3}
    entered = {tuple(x) for x in report["entered"]}
    uncalled = {
        name
        for key, name in _definitions().items()
        if key not in entered and not re.fullmatch(r"__\w+__", name.rsplit(".", 1)[1])
    }
    assert uncalled == set(UNREACHED), (
        f"entered by no command: {sorted(uncalled - set(UNREACHED))}; "
        f"listed but entered or gone: {sorted(set(UNREACHED) - uncalled)}"
    )


if __name__ == "__main__":
    print(json.dumps(_run_commands(Path(sys.argv[1]))))
