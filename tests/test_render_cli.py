"""Rendering conventions, the command-line surface, including exit codes, and
the names the package exports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import equichar
from equichar import moduli, oracles, verify
from equichar.bigraded import BiSymFunc
from equichar.cli import main
from equichar.qpoly import QPoly
from equichar.render import latex, text
from equichar.symfunc import schur


def test_qpoly_rendering():
    p = QPoly({3: 1, 2: 2, 0: 1})
    assert text(p) == "q^3+2q^2+1"
    assert latex(p) == "q^{3}+2q^{2}+1"
    assert text(QPoly()) == "0"


def test_symfunc_text_ordering():
    f = (
        QPoly({1: 1}) * schur((4, 1))
        + QPoly({0: 1, 1: 1}) * schur((5,))
        + schur((3, 2))
    )
    # rows ordered as printed tables: (5) before (4,1) before (3,2)
    assert text(f) == "(q+1)*s[5] + q*s[4,1] + s[3,2]"


def test_symfunc_latex():
    f = QPoly({2: 1}) * schur((4, 2, 1))
    assert latex(f) == "q^{2}s_{(4,2,1)}"
    g = QPoly({1: 2}) * schur((2,))
    assert latex(g) == "2qs_{(2)}"


def test_bisymfunc_rendering():
    f = QPoly({1: 1, 0: 1}) * BiSymFunc.tensor(schur((2,)), schur((2,)))
    assert text(f) == "(q+1)*sx[2]*sy[2]"
    assert latex(f) == "(q+1)s^{x}_{(2)}s^{y}_{(2)}"
    g = BiSymFunc.tensor(schur(()), schur((3,)))
    assert text(g) == "s[3]"


def test_cli_compute_text(capsys):
    assert main(["compute", "--n", "4"]) == 0
    out = capsys.readouterr().out
    assert out == "(q+1)*s[4]\n"


def test_cli_compute_latex(capsys):
    assert main(["compute", "--n", "4", "--k", "2", "--l", "3", "--format", "latex"]) == 0
    assert capsys.readouterr().out == "(q+1)s^{x}_{(2)}s^{y}_{(2)}\n"


def test_cli_compute_json_round_trips(capsys):
    assert main(["compute", "--n", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["v"] == 1
    assert (payload["n"], payload["k"], payload["l"]) == (5, 0, 1)
    assert BiSymFunc.from_json_dict(payload).bidegree == (0, 5)


@pytest.mark.parametrize("key", [(7, 3, 2), (9, 3, 2), (10, 0, 3), (8, 8, 1)])
def test_cli_compute_json_is_the_cache_file(tmp_path, capsys, key):
    """For a normalized key, `compute --format json` prints the cache file."""
    n, k, l = map(str, key)
    argv = ["compute", "--n", n, "--k", k, "--l", l, "--format", "json", "--cache", str(tmp_path)]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    assert printed == (tmp_path / f"E_{n}_{k}_{l}.json").read_text()
    assert main(argv) == 0
    assert capsys.readouterr().out == printed


def test_cli_failed_check_exits_2(monkeypatch, capsys):
    """A computed character that fails its check is a verification failure:
    exit code 2 with one line on stderr, not a traceback."""
    real = moduli._git_numerators

    def off_by_one(n):
        out = real(n)
        out[(n,)][0] += 1
        return out

    monkeypatch.setattr(moduli, "_git_numerators", off_by_one)
    assert main(["compute", "--n", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("equichar: verification failed: ")
    assert captured.err.count("\n") == 1
    assert main(["verify", "--suite", "duality", "--n-max", "8"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert (payload["passed"], payload["failed"]) == (1, 5)
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == [f"n={n}" for n in range(4, 9)]
    assert all("q^3 - q" in c["detail"] for c in payload["checks"] if not c["ok"])


def test_cli_verify_oracles_reports_a_failed_betti_check(monkeypatch, capsys):
    """A Keel count that the computed key contradicts fails the Keel check,
    naming n, and the suite still prints its report."""
    def keel(n):
        return (1, 99, 1) if n == 5 else oracles.keel_betti(n)

    monkeypatch.setattr(moduli, "keel_betti", keel)
    monkeypatch.setattr(verify, "keel_betti", keel)
    by_name = {c.name: c for c in verify.run_oracles(n_max=6).checks}
    failed = by_name["betti numbers of E(n,0,1) vs keel's recursion n<=6"]
    assert not failed.ok and failed.detail.startswith("[(5, ") and "[1, 99, 1]" in failed.detail
    assert main(["verify", "--suite", "oracles", "--n-max", "6"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["checks"][0] == {"name": failed.name, "ok": False, "detail": failed.detail}


def test_verify_oracles_does_not_file_a_raised_check_as_a_comparison(monkeypatch):
    """E(5, 2, 3) needs E(5, 0, 2), whose own check raises under a patched
    Keel count: the Eulerian record says its comparison did not run."""
    def keel(n):
        return (1, 99, 1) if n == 5 else oracles.keel_betti(n)

    monkeypatch.setattr(moduli, "keel_betti", keel)
    by_name = {c.name: c for c in verify.run_oracles(n_max=6).checks}
    eulerian = by_name["betti numbers of E(n,2,n-2) vs eulerian numbers n<=6"]
    assert not eulerian.ok
    assert eulerian.detail == (
        "[(5, 'not compared: E(5, 0, 2) has the Betti numbers [1, 5, 1], not [1, 99, 1]')]"
    )


def test_cli_verify_reports_a_failed_recursion(monkeypatch, capsys):
    """With the GIT base off by one, paper-examples and length-theorem fail
    the keys they reach and still print their reports."""
    real = moduli._git_numerators

    def off_by_one(n):
        out = real(n)
        out[(n,)][0] += 1
        return out

    monkeypatch.setattr(moduli, "_git_numerators", off_by_one)
    assert main(["verify", "--suite", "paper-examples"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert (payload["passed"], payload["failed"]) == (0, len(verify.KNOWN_CHARACTERS))
    assert all("q^3 - q" in c["detail"] for c in payload["checks"])
    assert main(["verify", "--suite", "length-theorem", "--n-max", "6"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in payload["checks"] if not c["ok"]] == ["n=4", "n=5", "n=6"]


def test_cli_betti(capsys):
    assert main(["betti", "--n", "6"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["q^3+16q^2+16q+1", "1,16,16,1"]


def test_cli_betti_json(capsys):
    assert main(["betti", "--n", "7", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["betti"] == [1, 42, 127, 42, 1]


def test_cli_length_table(capsys):
    assert main(["length-table", "--n-max", "5"]) == 0
    out = capsys.readouterr().out
    assert "all rows match" in out
    assert "n=5 i=1 length=2 bound=2 match=yes w=(4,1)" in out


def test_cli_length_table_formats(capsys):
    """length-table prints text or JSON; latex would print the text."""
    with pytest.raises(SystemExit) as exc:
        main(["length-table", "--n-max", "4", "--format", "latex"])
    assert exc.value.code == 1
    assert "invalid choice: 'latex'" in capsys.readouterr().err


def test_cli_length_table_json(capsys):
    assert main(["length-table", "--n-max", "4", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["reports"][0]["n"] == 3


def test_cli_verify_runs_suite(capsys):
    assert main(["verify", "--suite", "paper-examples"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["failed"] == 0
    assert payload["passed"] == 9


@pytest.mark.parametrize("suite", ["duality", "oracles", "paper-examples"])
@pytest.mark.parametrize("n_max", ["2", "-5"])
def test_cli_verify_rejects_empty_range(capsys, suite, n_max):
    """A range with no n >= 3 would check nothing and report success."""
    assert main(["verify", "--suite", suite, "--n-max", n_max]) == 1
    captured = capsys.readouterr()
    assert "at least 3" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["verify", "--suite", "duality"], ["length-table"]])
def test_cli_n_max_error_names_the_flag(capsys, argv):
    assert main(argv + ["--n-max", "2"]) == 1
    assert "--n-max must be at least 3" in capsys.readouterr().err


def test_cli_verify_keeps_the_suite_default_n_max(capsys):
    """Without --n-max a suite runs to its own default, length-theorem to 8."""
    assert main(["verify", "--suite", "length-theorem"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert [c["name"] for c in checks] == [f"n={n}" for n in range(3, 9)]


@pytest.mark.parametrize("argv", [["compute", "--n", "12"], ["verify", "--suite", "oracles"]])
def test_cli_closed_stdout_exits_141(argv):
    """Output to a pipe whose read end is closed ends with exit 141
    (128 + SIGPIPE) and nothing on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(equichar.__file__).resolve().parents[1]))
    env.pop("EQUICHAR_CACHE", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run(
            [sys.executable, "-m", "equichar.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=300,
        )
    finally:
        os.close(write_end)
    assert (run.returncode, run.stderr) == (141, b"")


def test_cli_usage_errors(capsys):
    assert main(["compute", "--n", "2"]) == 1
    assert "--n must be at least 3" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["compute"])  # missing required --n
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 1


def test_cli_cache_flow(tmp_path, capsys):
    cache = str(tmp_path / "store")
    assert main(["compute", "--n", "6", "--cache", cache]) == 0
    first = capsys.readouterr().out
    assert main(["compute", "--n", "6", "--cache", cache]) == 0
    assert capsys.readouterr().out == first
    assert main(["cache", "--cache", cache]) == 0
    assert "cache files:" in capsys.readouterr().out
    # the temporary file of a writer killed before its rename
    (tmp_path / "store" / ".E_6_0_2.json.1-1.tmp").write_text("{")
    assert main(["cache", "--cache", cache, "--clear"]) == 0
    capsys.readouterr()
    assert not any((tmp_path / "store").iterdir())
    assert main(["cache", "--cache", cache]) == 0
    assert "cache files: 0" in capsys.readouterr().out


def test_cli_cache_clear_skips_vanished_files(tmp_path, monkeypatch, capsys):
    """A file that another clear, or a writer's rename, removes after the
    listing is skipped: `cache --clear` still exits 0."""
    assert main(["compute", "--n", "5", "--cache", str(tmp_path)]) == 0
    (tmp_path / ".E_5_0_1.json.1-2.tmp").write_text("{}")
    real_unlink = Path.unlink

    def removed_first(path, missing_ok=False):
        real_unlink(path)
        real_unlink(path, missing_ok=missing_ok)

    monkeypatch.setattr(Path, "unlink", removed_first)
    assert main(["cache", "--cache", str(tmp_path), "--clear"]) == 0
    monkeypatch.undo()
    assert list(tmp_path.iterdir()) == []


def test_cli_cache_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("EQUICHAR_CACHE", str(tmp_path))
    assert main(["compute", "--n", "4"]) == 0
    capsys.readouterr()
    assert list(tmp_path.glob("E_*.json"))
    monkeypatch.delenv("EQUICHAR_CACHE")
    assert main(["cache"]) == 1
    assert "cache directory" in capsys.readouterr().err


def test_cli_corrupt_cache_exit_code(tmp_path, capsys):
    cache = tmp_path
    assert main(["compute", "--n", "5", "--cache", str(cache)]) == 0
    capsys.readouterr()
    for path in cache.glob("E_*.json"):
        path.write_text("{broken")
    assert main(["compute", "--n", "5", "--cache", str(cache)]) == 3
    assert "cache error" in capsys.readouterr().err


def test_cli_empty_cache_file_exit_code(tmp_path, capsys):
    payload = '{"v":1,"n":5,"k":0,"l":2,"basis":"schur","bidegree":[0,5],"terms":[]}'
    (tmp_path / "E_5_0_2.json").write_text(payload)
    assert main(["compute", "--n", "5", "--cache", str(tmp_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "fails verification" in captured.err


def test_package_exports():
    """`__all__` is unique and sorted with `__version__` last, every name in
    it resolves, and it holds every name the README imports from the package."""
    names = equichar.__all__
    assert len(set(names)) == len(names)
    assert names[-1] == "__version__" and names[:-1] == sorted(names[:-1])
    assert [name for name in names if not hasattr(equichar, name)] == []
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    imported = {
        name.strip()
        for line in re.findall(r"^from equichar import (.+)$", readme, re.MULTILINE)
        for name in line.split(",")
    }
    assert imported and imported <= set(names), imported - set(names)
