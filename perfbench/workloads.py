"""The four workloads: the inputs each one derives from the seed, and the code
one timed pass runs.

The seed shuffles the order of the warm requests and of the certify checks,
and picks the degree-8 plethysm sample; full-cold and chambers do not use it.  The
package sees nothing but the generated keys.  Every call into the
package goes through a module attribute, so `spans` can wrap it.
"""

import random
import time
from dataclasses import dataclass, field
from pathlib import Path

from equichar import cli, lengths, moduli, oracles, verify
from equichar.partitions import partitions_of
from equichar.symfunc import schur

FULL_N = 14
CHAMBER_N = 11
SUITES = ("paper-examples", "duality", "length-theorem")
SUITE_N_MAX = 10
JACOBI_TRUDI_MAX = 8
SMALL_PLETHYSM_DEGREE = 6
JACOBI_TRUDI_LABEL = f"jacobi-trudi |lam|<={JACOBI_TRUDI_MAX}"

# The 20 plethysm pairs s_lam o s_mu with |lam|, |mu| >= 2 and |lam||mu| = 8,
# grouped by their measured cost (0.2 s to 0.85 s each on a 2-core x86 box);
# a pass checks one pair from each group, so the sample changes with the
# seed while the pass cost barely does.
DEGREE8_STRATA = (
    (((2,), (1, 1, 1, 1)), ((1, 1), (1, 1, 1, 1)), ((2,), (2, 1, 1)), ((1, 1), (2, 1, 1))),
    (((2, 2), (1, 1)), ((1, 1), (2, 2)), ((2,), (2, 2)), ((1, 1, 1, 1), (1, 1))),
    (((4,), (1, 1)), ((2, 2), (2,)), ((2,), (3, 1)), ((3, 1), (1, 1))),
    (((1, 1), (3, 1)), ((2,), (4,)), ((2, 1, 1), (1, 1)), ((1, 1), (4,))),
    (((3, 1), (2,)), ((2, 1, 1), (2,)), ((1, 1, 1, 1), (2,)), ((4,), (2,))),
)


@dataclass(kw_only=True)
class Op:
    """One requested key or one certify check."""

    label: str
    key: tuple = ()  # the requested (n, k, l), for key requests
    value: object = None  # what the gate digests, or a callable returning it
    error: str = ""
    problems: list = field(default_factory=list)
    digest: str = ""

    @property
    def failed(self) -> bool:
        return bool(self.error or self.problems)

    def resolved(self):
        """The value to check: a callable is called, once, after the pass."""
        if callable(self.value):
            self.value = self.value()
        return self.value


@dataclass
class PassOutput:
    calculator: object
    ops: list = field(default_factory=list)
    latencies: list = field(default_factory=list)  # seconds, one per request
    rendered_bytes: int = 0


def key_label(key) -> str:
    return "E({},{},{})".format(*key)


def pair_label(lam, mu) -> str:
    return "pleth {}o{}".format(list(lam), list(mu))


# -- inputs ------------------------------------------------------------------


def chamber_keys() -> list[tuple[int, int, int]]:
    n = CHAMBER_N
    return [(n, k, l) for k in range(n + 1) for l in range(1, moduli.base_level(n, k) + 1)]


def chamber_requests() -> list[tuple[int, int, int]]:
    """Every chamber in the recursion's own order: k = 0 from its stable end
    down, then each k >= 1 upward from l = 1, so each request computes one
    step.  No seed: in a shuffled order the request that first needs a shared
    sub-key pays for it, and per-request latency would follow the seed."""
    keys = chamber_keys()
    return sorted(keys, key=lambda key: (key[1], -key[2] if key[1] == 0 else key[2]))


def warm_requests(seed: int, cache_dir: Path) -> list[tuple[int, int, int]]:
    """The key of every cache file `E_n_k_l.json`, in a seeded order."""
    keys = sorted(tuple(int(a) for a in path.stem.split("_")[1:])
                  for path in cache_dir.glob("E_*.json"))
    random.Random(seed).shuffle(keys)
    return keys


def small_pairs() -> list[tuple[tuple, tuple]]:
    d = SMALL_PLETHYSM_DEGREE
    return [
        (lam, mu)
        for a in range(1, d + 1)
        for b in range(1, d // a + 1)
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]


def degree8_sample(seed: int) -> list[tuple[tuple, tuple]]:
    rng = random.Random(seed)
    return [rng.choice(stratum) for stratum in DEGREE8_STRATA]


def certify_pairs(seed: int) -> list[tuple[tuple, tuple]]:
    return small_pairs() + degree8_sample(seed)


# -- one timed pass ----------------------------------------------------------


def render(key, value) -> str:
    """The JSON line `equichar compute --format json` prints for this key."""
    n, k, l = key
    payload = {"v": 1, "n": n, "k": k, "l": l}
    payload.update(value.to_json_dict())
    return cli._dumps(payload) + "\n"


def serve(calc, keys) -> PassOutput:
    """Request each key in turn and render it, as repeated CLI calls would."""
    out = PassOutput(calc)
    clock = time.perf_counter
    for key in keys:
        op = Op(label=key_label(key), key=key)
        start = clock()
        try:
            op.value = calc.character(*key)
            out.rendered_bytes += len(render(key, op.value))
        except Exception as exc:  # counted in fail_rate, the pass goes on
            op.error = repr(exc)
        out.latencies.append(clock() - start)
        out.ops.append(op)
    return out


def run_full_cold(seed: int, cache_dir: Path) -> PassOutput:
    return serve(moduli.CharacterCalculator(), [(FULL_N, 0, 1)])


def run_chambers(seed: int, cache_dir: Path) -> PassOutput:
    """Also the populate pass of warm: `cache_dir` starts empty."""
    return serve(moduli.CharacterCalculator(cache_dir), chamber_requests())


def run_warm(seed: int, cache_dir: Path) -> PassOutput:
    """`cache_dir` holds what a chambers pass wrote."""
    keys = warm_requests(seed, cache_dir)
    return serve(moduli.CharacterCalculator(cache_dir), keys)


def _timed(out: PassOutput, label: str, check) -> None:
    """Run one certify request; a raise fails it and the pass goes on."""
    start = time.perf_counter()
    try:
        ops = check()
    except Exception as exc:  # counted in fail_rate, the pass goes on
        ops = [Op(label=label, error=repr(exc))]
    out.latencies.append(time.perf_counter() - start)
    out.ops.extend(ops)


def suite_ops(calc, suite: str) -> list[Op]:
    """One op per check of a verify suite; the value to digest is read later."""
    result = verify.run_suite(suite, calc, SUITE_N_MAX)
    ops = []
    for check in result.checks:
        if suite == "length-theorem":
            n = int(check.name.split("=")[1])
            value = lambda n=n: lengths.length_theorem_report(n, calc).to_json_dict()
        elif suite == "duality":
            n = int(check.name.split("=")[1])
            value = lambda n=n: calc.character(n, 0, 1)
        else:
            key = tuple(int(a) for a in check.name[2:-1].split(","))
            value = lambda key=key: calc.character(*key)
        problems = [] if check.ok else [check.detail or "check failed"]
        ops.append(Op(label=f"{suite} {check.name}", value=value, problems=problems))
    return ops


def jacobi_trudi_ops() -> list[Op]:
    values, bad = [], []
    for n in range(JACOBI_TRUDI_MAX + 1):
        for lam in partitions_of(n):
            jt = oracles.jacobi_trudi_to_powersum(lam)
            if jt != schur(lam).to_powersum():
                bad.append(lam)
            values.append(jt)
    problems = [f"Jacobi-Trudi differs at {bad}"] if bad else []
    return [Op(label=JACOBI_TRUDI_LABEL, value=values, problems=problems)]


def pair_ops(lam, mu) -> list[Op]:
    nvars = sum(lam) * sum(mu)
    kernel = schur(lam).pleth(schur(mu))
    direct = oracles.oracle_plethysm(schur(lam), schur(mu), nvars)
    ok = oracles.expand(kernel, nvars) == direct
    problems = [] if ok else ["kernel differs from monomial substitution"]
    return [Op(label=pair_label(lam, mu), value=kernel, problems=problems)]


def run_certify(seed: int, cache_dir: Path) -> PassOutput:
    """The suites first, then the Jacobi-Trudi check and the plethysm pairs in
    an order shuffled by the seed, so the many small checks are spread over
    the whole pass instead of sharing one stretch of it."""
    calc = moduli.CharacterCalculator()
    out = PassOutput(calc)
    for suite in SUITES:
        _timed(out, f"suite {suite}", lambda suite=suite: suite_ops(calc, suite))
    checks = [(JACOBI_TRUDI_LABEL, jacobi_trudi_ops)] + [
        (pair_label(lam, mu), lambda lam=lam, mu=mu: pair_ops(lam, mu))
        for lam, mu in certify_pairs(seed)
    ]
    random.Random(seed).shuffle(checks)
    for label, check in checks:
        _timed(out, label, check)
    return out


PASSES = {
    "full-cold": run_full_cold,
    "chambers": run_chambers,
    "warm": run_warm,
    "certify": run_certify,
}
