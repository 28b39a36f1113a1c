"""Recompute the digests the gate compares every op against.

    python3 perfbench/freeze_digests.py

Covers every label any workload can produce, for every seed: the full
space, each chamber request and each key the chambers write to the cache,
every verify check, the Jacobi-Trudi table and all plethysm pairs.  Run it
only on a commit whose output is known to be right.
"""

import json

from worker import _import_package


def main() -> int:
    _import_package()
    import gate
    import workloads
    from equichar import moduli

    full = workloads.run_full_cold(0, None)
    chambers = workloads.serve(moduli.CharacterCalculator(), workloads.chamber_keys())
    ops = full.ops + chambers.ops + workloads.run_certify(0, None).ops
    for stratum in workloads.DEGREE8_STRATA:
        for lam, mu in stratum:
            ops += workloads.pair_ops(lam, mu)
    digests = {}
    for op in ops:
        digests[op.label] = gate.digest_of(op.resolved())
    for key, value in chambers.calculator._schur.items():
        digests[workloads.key_label(key)] = gate.digest_of(value)
    # The structural checks must pass on what is frozen.
    gate.check_ops("full-cold", full.ops, digests)
    gate.check_ops("chambers", chambers.ops, digests)
    bad = [f"{op.label}: {op.error or op.problems}" for op in ops if op.failed]
    if bad:
        raise SystemExit("refusing to freeze failing ops:\n" + "\n".join(bad))
    gate.DIGESTS_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {gate.DIGESTS_FILE}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
