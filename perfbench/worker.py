"""One benchmark process: import equichar from the checkout, say "ready",
run one pass of a workload, check it, and print the result as one JSON line.

    python3 perfbench/worker.py '{"workload": "chambers", "mode": "plain",
                                  "seed": 1, "cache_dir": "...", "trace_out": null}'

Modes: `probe` stops after "ready" (set-up samples); `plain` is a timed pass;
`traced` adds spans; `count` counts QPoly arithmetic; `populate` is a
chambers pass that fills the warm cache and reports what it stored.
"""

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_package():
    sys.path.insert(0, str(SRC))
    import equichar

    if Path(equichar.__file__).resolve().parent != SRC / "equichar":
        raise SystemExit(f"equichar was imported from {equichar.__file__}, not from {SRC}")


def _stats(workload: str, out, cache_dir: Path) -> dict:
    """Sizes read after the pass from the calculator memo and the disk."""
    from equichar import symfunc

    values = list(out.calculator._powersum.values())
    bits = 0
    for value in values:
        for coeff in value.terms.values():
            for _, c in coeff.items():
                bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    files = list(cache_dir.glob("E_*.json")) if cache_dir.is_dir() else []
    size = sum(path.stat().st_size for path in files)
    info = symfunc.character_value.cache_info()
    return {
        "max_terms": max((len(v.terms) for v in values), default=0),
        "max_coeff_bits": bits,
        "cache_bytes_written": size if workload in ("chambers", "populate") else 0,
        "cache_bytes_read": size if workload == "warm" else 0,
        "character_value_hits": info.hits,
        "character_value_misses": info.misses,
    }


def run(spec: dict) -> dict:
    import gate
    import workloads

    mode = spec["mode"]
    kind = "populate" if mode == "populate" else spec["workload"]
    cache_dir = Path(spec["cache_dir"])
    body = workloads.PASSES["chambers" if kind == "populate" else kind]
    instrument = None
    if mode == "traced":
        import spans

        instrument = spans.Tracer()
    elif mode == "count":
        import spans

        instrument = spans.CallCounter()
    if instrument:
        instrument.install()
    try:
        start = time.perf_counter()
        out = body(spec["seed"], cache_dir)
        end = time.perf_counter()
    finally:
        if instrument:
            instrument.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if mode == "traced":
        instrument.dump(Path(spec["trace_out"]), (start, end))

    gate.check_ops(kind, out.ops, gate.load_frozen())
    result = {
        "wall_s": end - start,
        "rss_mb": rss_mb,
        "latencies": out.latencies,
        "ops": len(out.ops),
        "failures": {op.label: op.error or "; ".join(op.problems)
                     for op in out.ops if op.failed},
        "digests": {op.label: op.digest for op in out.ops},
        "rendered_bytes": out.rendered_bytes,
        "stats": _stats(kind, out, cache_dir),
        "tracing_loaded": "spans" in sys.modules,
    }
    if mode == "count":
        result["counts"] = dict(instrument.counts)
    if mode == "populate":
        result["stored"] = {
            workloads.key_label(key): gate.digest_of(value)
            for key, value in out.calculator._schur.items()
        }
    return result


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    _import_package()
    import gate  # noqa: F401  (the pass imports, as an `equichar compute` run does)
    import workloads  # noqa: F401
    print("ready", flush=True)
    if spec["mode"] == "probe":
        return 0
    print(json.dumps(run(spec)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
