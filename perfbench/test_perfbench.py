"""Fast self-tests of the benchmark (not part of the package's test suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import worker  # noqa: E402

worker._import_package()

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from equichar.bigraded import BiSymFunc  # noqa: E402
from equichar.moduli import CharacterCalculator  # noqa: E402
from equichar.qpoly import QPoly  # noqa: E402
from equichar.symfunc import SCHUR  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _perturbed(value: BiSymFunc) -> BiSymFunc:
    """Raise one Schur coefficient 1 to 2: still an effective character."""
    terms = dict(value.terms)
    key, coeff = next((k, c) for k, c in sorted(terms.items()) if 1 in dict(c.items()).values())
    exponent = next(e for e, v in coeff.items() if v == 1)
    terms[key] = coeff + QPoly.q(exponent)
    out = BiSymFunc(SCHUR, value.xdeg, value.ydeg, terms)
    assert all(c.is_effective() for c in out.terms.values())
    return out


def test_keel_and_eulerian_reference_values():
    assert gate.keel_poincare(5) == (1, 5, 1)
    assert gate.keel_poincare(6) == (1, 16, 16, 1)
    assert gate.eulerian(4) == (1, 11, 11, 1)
    assert sum(gate.eulerian(9)) == 362880


@pytest.mark.parametrize("workload,key", [("full-cold", (7, 0, 1)), ("chambers", (7, 2, 5))])
def test_gate_flags_a_perturbed_effective_character(workload, key):
    value = CharacterCalculator().character(*key)
    frozen = {workloads.key_label(key): gate.digest_of(value)}
    label = workloads.key_label(key)
    good = workloads.Op(label=label, key=key, value=value)
    bad = workloads.Op(label=label, key=key, value=_perturbed(value))
    gate.check_ops(workload, [good, bad], frozen)
    assert not good.failed
    assert bad.failed
    assert any("digest" in p for p in bad.problems)
    # Without the frozen digest, the structural checks still catch it.
    bad = workloads.Op(label=label, key=key, value=_perturbed(value))
    gate.check_ops(workload, [bad], {})
    assert any("Keel" in p or "Eulerian" in p for p in bad.problems)


def test_gate_flags_a_perturbed_certify_value():
    """Certify has no structural check of its own: the frozen digests are its
    gate, for eager values and for the lazy ones a verify suite leaves."""
    frozen = gate.load_frozen()
    lam, mu = (2,), (1, 1)
    (good,) = workloads.pair_ops(lam, mu)
    bad = workloads.Op(label=good.label, value=good.value + good.value)
    calc = CharacterCalculator()
    (lazy_good,) = [op for op in workloads.suite_ops(calc, "duality") if op.label == "duality n=6"]
    lazy_bad = workloads.Op(label=lazy_good.label,
                            value=lambda: _perturbed(calc.character(6, 0, 1)))
    ops = [good, bad, lazy_good, lazy_bad]
    gate.check_ops("certify", ops, frozen)
    assert not good.failed and not lazy_good.failed
    for op in (bad, lazy_bad):
        assert any("digest" in p for p in op.problems)


def test_frozen_digests_are_of_real_values():
    frozen = gate.load_frozen()
    assert gate.json_digest(None) not in frozen.values()
    assert len(set(frozen.values())) > len(frozen) * 3 // 4


def test_seed_changes_only_order_or_sample(tmp_path):
    chambers = workloads.chamber_requests()
    assert sorted(chambers) == sorted(workloads.chamber_keys())
    for key in chambers[:9]:
        (tmp_path / "E_{}_{}_{}.json".format(*key)).write_text("{}")
    warm_one, warm_two = (workloads.warm_requests(s, tmp_path) for s in (1, 2))
    assert warm_one != warm_two and workloads.warm_requests(1, tmp_path) == warm_one
    assert sorted(warm_one) == sorted(warm_two) == sorted(chambers[:9])
    samples = {tuple(workloads.degree8_sample(seed)) for seed in range(20)}
    assert len(samples) > 1
    for sample in samples:
        assert [p in stratum for p, stratum in zip(sample, workloads.DEGREE8_STRATA)] == [True] * 5
    assert workloads.certify_pairs(3)[:-5] == workloads.certify_pairs(4)[:-5]


def _cheap_passes(monkeypatch):
    """Run passes in this process on small inputs instead of in workers."""
    def small(seed, cache_dir):
        keys = [(6, 0, 1), (6, 2, 4), (6, 2, 1)]
        return workloads.serve(CharacterCalculator(cache_dir), keys)

    for name in workloads.PASSES:
        monkeypatch.setitem(workloads.PASSES, name, small)

    def fake_child(spec):
        result = worker.run(spec) if spec["mode"] != "probe" else {}
        result.update(setup_s=0.01, elapsed_s=0.02)
        return result

    monkeypatch.setattr(run, "run_child", fake_child)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(monkeypatch, tmp_path, capsys, trace, section):
    _cheap_passes(monkeypatch)
    monkeypatch.setattr(run, "WORK_ROOT", tmp_path / "work")
    monkeypatch.setattr(run, "TRACE_ROOT", tmp_path / "out")
    args = ["--workload", "warm", "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    assert run.main(args) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert list(last["metrics"]) == [m["name"] for m in BENCHMARK[section]]
    for m in BENCHMARK[section]:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS) == set(workloads.PASSES)


def _namespaces() -> dict:
    """Every binding in the package's modules and classes, and in `workloads`."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("equichar") or name == "workloads":
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__ == name:
                    out.update({(name, key, k): v for k, v in vars(value).items()})
    return out


def test_wrappers_are_removed_after_the_traced_run():
    before = _namespaces()
    tracer, counter = spans.Tracer(), spans.CallCounter()
    tracer.install()
    counter.install()
    try:
        during = _namespaces()
        changed = [k for k in before if during[k] is not before[k]]
        assert len(changed) >= len(spans.SPAN_POINTS) + len(spans.COUNT_POINTS)
        start = run.time.perf_counter()
        CharacterCalculator().character(7)
        end = run.time.perf_counter()
    finally:
        counter.uninstall()
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert counter.counts["qpoly.mul_calls"] > 0
    summary = spans.summarize({"wall": [start, end], "spans": tracer.spans, "counts": {}})
    layers = sum(summary[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + summary["trace.uncovered_s"] == pytest.approx(summary["trace.wall_s"])
    assert summary["moduli.git_base.spans"] > 0


def test_bare_directory_fails_without_a_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
