"""Cold E(n, 0, 1) for several n, each in a fresh process: wall time and peak
RSS.  A one-off record kept in baseline.json, not a benchmark workload.

    python3 perfbench/baseline.py          # writes perfbench/baseline.json
"""

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "baseline.json"
SIZES = (10, 12, 13, 14, 15, 16)
REPEATS = {10: 3, 12: 3, 13: 3, 14: 3, 15: 1, 16: 1}


def child(n: int) -> None:
    from worker import _import_package

    _import_package()
    from equichar.moduli import CharacterCalculator

    start = time.perf_counter()
    CharacterCalculator().character(n, 0, 1)
    wall = time.perf_counter() - start
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"wall_s": wall, "peak_rss_mb": rss}))


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    rows = []
    for n in SIZES:
        samples = []
        for _ in range(REPEATS[n]):
            proc = subprocess.run([sys.executable, __file__, "--child", str(n)],
                                  capture_output=True, text=True, check=True, timeout=600)
            samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        walls = [s["wall_s"] for s in samples]
        rows.append({
            "n": n,
            "wall_s": statistics.median(walls),
            "wall_samples_s": walls,
            "peak_rss_mb": max(s["peak_rss_mb"] for s in samples),
        })
        print(f"n={n}: wall {rows[-1]['wall_s']:.3f} s, peak RSS {rows[-1]['peak_rss_mb']:.1f} MB")
    record = {
        "what": "cold CharacterCalculator().character(n, 0, 1), one fresh process per sample",
        "machine": f"{_cpu_model()}, {len(os.sched_getaffinity(0))} cores, "
                   f"Python {platform.python_version()}",
        "date": time.strftime("%Y-%m-%d"),
        "rows": rows,
    }
    OUT.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(int(sys.argv[2]))
    else:
        raise SystemExit(main())
