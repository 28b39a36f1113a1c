"""Benchmark of equichar.

    python3 perfbench/run.py --workload chambers --seed 1 --seconds 25 --trace 0

Runs one workload as a sequence of passes, each in a fresh single-threaded
process, one at a time, so that every pass starts without the package's
global memo tables.  It checks every output (see gate.py), prints a table of
the metrics, and ends with one JSON line.  `--trace 0` gives the end-to-end
metrics; `--trace 1` runs one untraced, one traced and one counting pass
and gives the per-layer metrics.  Run it from the root of a checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_ROOT = ROOT / ".perfbench_out"

WORKLOADS = ("full-cold", "chambers", "warm", "certify")
MIN_PASSES = 3
PROBES_PER_PASS = 3  # extra set-up samples, spread over the run like the passes
CHILD_TIMEOUT_S = 100.0
RUN_LIMIT_S = 150.0  # no pass starts that would end later than this


class BenchError(RuntimeError):
    """A pass could not be measured; the run prints no result."""


def run_child(spec: dict) -> dict:
    """Start one worker, time it to "ready", wait for its result line."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), json.dumps(spec)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{spec['mode']} pass of {spec['workload']} exited with {proc.returncode}")
    result = json.loads(rest.strip().splitlines()[-1]) if spec["mode"] != "probe" else {}
    result["setup_s"] = setup_s
    result["elapsed_s"] = time.perf_counter() - start
    if spec["mode"] == "plain" and result["tracing_loaded"]:
        raise BenchError("an untraced pass loaded the tracer")
    return result


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """One invocation: its work directory, passes, and op accounting."""

    def __init__(self, args):
        self.args = args
        self.started = time.perf_counter()
        self.workdir = WORK_ROOT / f"run-{os.getpid()}"
        self.attempted = 0
        self.failures: list[str] = []
        self.populated: dict[str, str] = {}
        self.setups: list[float] = []  # process start to "ready", in seconds
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        path = self.workdir / f"cache-{self._dirs}"
        path.mkdir(parents=True)
        return path

    def spec(self, mode: str, cache_dir: Path, trace_out=None) -> dict:
        return {"workload": self.args.workload, "mode": mode, "seed": self.args.seed,
                "cache_dir": str(cache_dir), "trace_out": trace_out}

    def account(self, result: dict, stored: dict | None = None) -> None:
        """Count a pass's ops and failures; on warm, also compare each loaded
        value with what the populate pass stored."""
        self.attempted += result["ops"]
        failed = dict(result["failures"])
        if stored is not None:
            for label, digest in result["digests"].items():
                if label not in failed and stored.get(label) != digest:
                    failed[label] = "differs from what the populate pass stored"
        self.failures.extend(f"{label}: {why}" for label, why in failed.items())

    def populate(self) -> tuple[Path, float]:
        """Fill the warm cache with a chambers pass; returns it and its time."""
        cache_dir = self.workdir / "warm-cache"
        cache_dir.mkdir(parents=True)
        result = run_child(self.spec("populate", cache_dir))
        self.account(result)
        self.populated = result["stored"]
        return cache_dir, result["elapsed_s"]

    def measured_pass(self, mode: str, cache_dir: Path | None, trace_out=None) -> dict:
        own = cache_dir is None
        cache_dir = cache_dir or self.fresh_dir()
        try:
            result = run_child(self.spec(mode, cache_dir, trace_out))
        finally:
            if own:
                shutil.rmtree(cache_dir, ignore_errors=True)
        self.account(result, self.populated if self.args.workload == "warm" else None)
        return result

    def passes(self, cache_dir: Path | None) -> list[dict]:
        """At least MIN_PASSES; more while the next one fits in --seconds.
        Each pass is followed by a few set-up probes."""
        results: list[dict] = []
        spent = 0.0
        while True:
            begin = time.perf_counter()
            result = self.measured_pass("plain", cache_dir)
            results.append(result)
            self.setups.append(result["setup_s"])
            for _ in range(PROBES_PER_PASS):
                self.setups.append(run_child(self.spec("probe", self.workdir))["setup_s"])
            spent += time.perf_counter() - begin
            typical = spent / len(results)
            since_start = time.perf_counter() - self.started
            if since_start + typical > RUN_LIMIT_S:
                break
            if len(results) >= MIN_PASSES and spent + typical > self.args.seconds:
                break
        return results


def end_to_end(run: Run) -> tuple[dict, list[str]]:
    cache_dir, populate_s = run.populate() if run.args.workload == "warm" else (None, 0.0)
    results = run.passes(cache_dir)
    walls = [r["wall_s"] for r in results]
    latencies = [x for r in results for x in r["latencies"]]
    metrics = {
        "setup_s": (statistics.median(run.setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
        "request_p50_ms": (percentile(latencies, 50) * 1000, "ms"),
        "request_p90_ms": (percentile(latencies, 90) * 1000, "ms"),
    }
    q1, _, q3 = statistics.quantiles(walls, n=4) if len(walls) > 1 else (walls[0],) * 3
    notes = [
        f"wall_s: median of {len(walls)} passes, quartiles {q1:.4f} .. {q3:.4f} s",
        f"setup_s: median of {len(run.setups)} process starts to 'ready'",
        f"request_p50_ms, request_p90_ms: over all {len(latencies)} requests of the run",
    ]
    if populate_s:
        # A single chambers pass: the chambers workload's wall_s bounds it.
        notes.append(f"populate_s: {populate_s:.4f} s filling the cache once, not in setup_s")
    return metrics, notes


def per_layer(run: Run) -> tuple[dict, list[str]]:
    import spans  # only traced runs load the tracer

    cache_dir = run.populate()[0] if run.args.workload == "warm" else None
    untraced = run.measured_pass("plain", cache_dir)
    TRACE_ROOT.mkdir(exist_ok=True)
    trace_file = TRACE_ROOT / f"trace-{run.args.workload}.json"
    traced = run.measured_pass("traced", cache_dir, str(trace_file))
    counted = run.measured_pass("count", cache_dir)
    s = spans.summarize(json.loads(trace_file.read_text()))
    st = traced["stats"]

    def incl(name):
        return s.get(f"{name}.incl_s", 0.0)

    computed = s.get("moduli.evaluate.spans", 0)
    loaded = s.get("moduli.keys_loaded", 0)
    lookups = st["character_value_hits"] + st["character_value_misses"]
    values = {
        "moduli.keys_computed": (computed, "count"),
        "moduli.keys_loaded": (loaded, "count"),
        "moduli.memory_hits": (s.get("moduli.compute.spans", 0) - computed - loaded, "count"),
        "moduli.store_s": (incl("moduli.store"), "s"),
        "moduli.load_s": (incl("moduli.load"), "s"),
        "moduli.git_base_s": (incl("moduli.git_base"), "s"),
        "moduli.correction_self_s": (s.get("moduli.correction.self_s", 0.0), "s"),
        "moduli.max_terms": (st["max_terms"], "count"),
        "moduli.max_coeff_bits": (st["max_coeff_bits"], "bits"),
        "moduli.cache_bytes_written": (st["cache_bytes_written"], "bytes"),
        "moduli.cache_bytes_read": (st["cache_bytes_read"], "bytes"),
        "bigraded.to_schur_s": (incl("bigraded.to_schur"), "s"),
        "bigraded.to_schur_calls": (s.get("bigraded.to_schur_calls", 0), "count"),
        "bigraded.to_schur_terms_in": (s.get("bigraded.to_schur_terms_in", 0), "count"),
        "bigraded.to_schur_terms_out": (s.get("bigraded.to_schur_terms_out", 0), "count"),
        "bigraded.to_powersum_s": (incl("bigraded.to_powersum"), "s"),
        "bigraded.to_powersum_calls": (s.get("bigraded.to_powersum_calls", 0), "count"),
        "bigraded.mul_s": (incl("bigraded.mul"), "s"),
        "bigraded.add_s": (incl("bigraded.add"), "s"),
        "bigraded.deriv_x_s": (incl("bigraded.deriv_x"), "s"),
        "bigraded.restrict_s": (incl("bigraded.restrict"), "s"),
        "bigraded.json_s": (incl("bigraded.json"), "s"),
        "symfunc.to_schur_s": (incl("symfunc.to_schur"), "s"),
        "symfunc.pleth_s": (incl("symfunc.pleth"), "s"),
        "symfunc.kron_s": (incl("symfunc.kron"), "s"),
        "symfunc.mul_s": (incl("symfunc.mul"), "s"),
        "symfunc.character_value_calls": (lookups, "count"),
        "symfunc.character_value_misses": (st["character_value_misses"], "count"),
        "symfunc.character_value_hit_ratio": (
            st["character_value_hits"] / lookups if lookups else 0.0, "ratio"),
        "qpoly.mul_calls": (counted["counts"].get("qpoly.mul_calls", 0), "count"),
        "qpoly.add_calls": (counted["counts"].get("qpoly.add_calls", 0), "count"),
        "qpoly.divexact_calls": (counted["counts"].get("qpoly.divexact_calls", 0), "count"),
        "oracles.expand_s": (incl("oracles.expand"), "s"),
        "oracles.pleth_s": (incl("oracles.pleth"), "s"),
        "oracles.jacobi_trudi_s": (incl("oracles.jacobi_trudi"), "s"),
        "verify.suite_s": (incl("verify.suite"), "s"),
        "lengths.report_s": (incl("lengths.report"), "s"),
        "render.json_s": (incl("render.json"), "s"),
        "render.bytes": (traced["rendered_bytes"], "bytes"),
    }
    for layer in spans.LAYERS:
        values[f"{layer}.self_s"] = (s[f"{layer}.self_s"], "s")
    values.update({
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.untraced_wall_s": (untraced["wall_s"], "s"),
        "trace.overhead_ratio": (traced["wall_s"] / untraced["wall_s"], "ratio"),
        "trace.uncovered_s": (s["trace.uncovered_s"], "s"),
        "trace.spans": (s["trace.spans"], "count"),
        "wait_s": (0.0, "s"),
    })
    notes = [
        f"spans written to {os.path.relpath(trace_file, ROOT)}",
        "self times of all layers plus trace.uncovered_s add up to trace.wall_s",
        "wait_s is 0: the package is single-threaded, no layer waits on another",
    ]
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "equichar" / "__init__.py").is_file():
        print(f"perfbench: no equichar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args)
    try:
        metrics, notes = (per_layer if args.trace else end_to_end)(run)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(run.workdir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # another run is still using it, or it was never made
            pass

    failed = len(run.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6g} {unit}")
    print(f"  {'fail_rate':36s} {failed / run.attempted:14.6g} (failed {failed} of {run.attempted} ops)")
    for note in notes:
        print(f"  # {note}")
    for failure in run.failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
