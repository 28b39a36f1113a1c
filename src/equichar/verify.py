"""Self-verification suites: golden characters, duality, oracle agreement,
and the length analysis.

The golden table freezes hand-checked closed forms of the first interesting
spaces; every entry was verified coefficient by coefficient before being
written down here.  Suites return plain check records so both the test suite
and the command line can run them.
"""

import random
from dataclasses import dataclass, field

from .partitions import partitions_of, union
from .qpoly import QPoly
from .symfunc import SCHUR, SymFunc, schur
from .bigraded import BiSymFunc
from .lengths import leading_partition, length_theorem_report, plethysm_leading_partition
from .moduli import CharacterCalculator, _check_character
from .oracles import (
    eulerian_numbers,
    expand,
    jacobi_trudi_to_powersum,
    keel_betti,
    oracle_plethysm,
)

# Hand-checked closed forms, keyed (n, k, l); values map (x, y) partition
# pairs to {q-exponent: coefficient}.
KNOWN_CHARACTERS = {
    (5, 0, 1): {
        ((), (5,)): {0: 1, 1: 1, 2: 1},
        ((), (4, 1)): {1: 1},
    },
    (5, 1, 3): {
        ((1,), (4,)): {0: 1, 1: 1, 2: 1},
    },
    (6, 0, 1): {
        ((), (6,)): {0: 1, 1: 2, 2: 2, 3: 1},
        ((), (5, 1)): {1: 1, 2: 1},
        ((), (4, 2)): {1: 1, 2: 1},
    },
    (6, 1, 3): {
        ((1,), (5,)): {0: 1, 1: 2, 2: 2, 3: 1},
        ((1,), (4, 1)): {1: 1, 2: 1},
    },
    (4, 2, 3): {
        ((2,), (2,)): {0: 1, 1: 1},
    },
    (7, 0, 3): {
        ((), (7,)): {0: 1, 1: 1, 2: 2, 3: 1, 4: 1},
        ((), (6, 1)): {1: 1, 2: 1, 3: 1},
        ((), (5, 2)): {2: 1},
    },
    (7, 0, 1): {
        ((), (7,)): {0: 1, 1: 2, 2: 4, 3: 2, 4: 1},
        ((), (6, 1)): {1: 2, 2: 3, 3: 2},
        ((), (5, 2)): {1: 1, 2: 3, 3: 1},
        ((), (4, 3)): {1: 1, 2: 2, 3: 1},
        ((), (4, 2, 1)): {2: 1},
    },
    (8, 0, 3): {
        ((), (8,)): {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 1},
        ((), (7, 1)): {1: 1, 2: 2, 3: 2, 4: 1},
        ((), (6, 2)): {1: 1, 2: 2, 3: 2, 4: 1},
        ((), (5, 3)): {2: 1, 3: 1},
        ((), (4, 4)): {1: 1, 2: 1, 3: 1, 4: 1},
    },
    (8, 0, 1): {
        ((), (8,)): {0: 1, 1: 3, 2: 6, 3: 6, 4: 3, 5: 1},
        ((), (7, 1)): {1: 2, 2: 6, 3: 6, 4: 2},
        ((), (6, 2)): {1: 2, 2: 7, 3: 7, 4: 2},
        ((), (6, 1, 1)): {2: 1, 3: 1},
        ((), (5, 3)): {1: 1, 2: 5, 3: 5, 4: 1},
        ((), (5, 2, 1)): {2: 2, 3: 2},
        ((), (4, 4)): {1: 1, 2: 3, 3: 3, 4: 1},
        ((), (4, 3, 1)): {2: 2, 3: 2},
        ((), (4, 2, 2)): {2: 1, 3: 1},
    },
}


def known_character(n: int, k: int, l: int) -> BiSymFunc:
    """Build the frozen closed form for (n, k, l) as a Schur-basis value."""
    table = KNOWN_CHARACTERS[(n, k, l)]
    terms = {key: QPoly(coeffs) for key, coeffs in table.items()}
    return BiSymFunc(SCHUR, k, n - k, terms)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteResult:
    suite: str
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def record(self, name: str, failures: list) -> None:
        """Add the check `name`, which passes when `failures` is empty and
        otherwise lists them in its detail."""
        self.checks.append(Check(name, not failures, f"{failures}" if failures else ""))

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "passed": self.passed,
            "failed": self.failed,
            "checks": [
                {"name": c.name, "ok": c.ok, **({"detail": c.detail} if c.detail else {})}
                for c in self.checks
            ],
        }


def run_paper_examples(calc: CharacterCalculator | None = None) -> SuiteResult:
    """Recompute every frozen closed form through the recursion; an
    ArithmeticError of the recursion or its check fails the key."""
    calc = calc or CharacterCalculator()
    result = SuiteResult("paper-examples")
    for (n, k, l), _ in sorted(KNOWN_CHARACTERS.items()):
        try:
            computed = calc.character(n, k, l)
        except ArithmeticError as exc:
            result.checks.append(Check(f"E({n},{k},{l})", False, str(exc)))
            continue
        ok = computed == known_character(n, k, l)
        detail = "" if ok else f"computed {computed}"
        result.checks.append(Check(f"E({n},{k},{l})", ok, detail))
    return result


def run_duality(calc: CharacterCalculator | None = None, n_max: int = 10) -> SuiteResult:
    """The calculator's own check (`moduli._check_character`: effectivity,
    Poincare duality, hard Lefschetz, trivial q^0 and q^(n-3) parts, Keel's
    Betti numbers) of E(n,0,1); an ArithmeticError of the recursion or the
    check fails n."""
    calc = calc or CharacterCalculator()
    result = SuiteResult("duality")
    for n in range(3, n_max + 1):
        try:
            _check_character((n, 0, 1), calc.character(n, 0, 1))
        except ArithmeticError as exc:
            result.checks.append(Check(f"n={n}", False, str(exc)))
        else:
            result.checks.append(Check(f"n={n}", True))
    return result


# The seed of the random pairs of the oracles suite.
_ORACLE_SEED = 20250815


def _random_schur_positive(rng: random.Random, max_degree: int) -> SymFunc:
    degree = rng.randint(1, max_degree)
    parts = partitions_of(degree)
    terms = {}
    for lam in rng.sample(parts, k=min(len(parts), rng.randint(1, 3))):
        terms[lam] = rng.randint(1, 3)
    return SymFunc(SCHUR, degree, terms)


def _betti(poly: QPoly) -> tuple:
    return tuple(poly.coeff(i) for i in range(poly.degree + 1))


def _failing(ns, holds) -> list:
    """The n in ns for which holds(n) is false, and (n, "not compared: "
    message) for each n whose recursion or check raised ArithmeticError
    before the comparison ran."""
    bad = []
    for n in ns:
        try:
            if not holds(n):
                bad.append(n)
        except ArithmeticError as exc:
            bad.append((n, f"not compared: {exc}"))
    return bad


def run_oracles(calc: CharacterCalculator | None = None, n_max: int = 12) -> SuiteResult:
    """Kernel against the independent paths: Jacobi-Trudi conversions up to
    degree 8, plethysm against monomial substitution (every s_lam o s_mu with
    |lam|, |mu| <= 3, and every one of degree 8 or 10 with |lam|, |mu| >= 2),
    products against expanded polynomial multiplication; and the recursion's
    Betti numbers for n <= n_max against Keel's recursion (full space) and
    the Eulerian numbers (Losev-Manin chamber E(n, 2, n-2)); an
    ArithmeticError of the recursion or its check fails n in those two as
    "not compared"."""
    calc = calc or CharacterCalculator()
    rng = random.Random(_ORACLE_SEED)
    result = SuiteResult("oracles")

    ns = range(3, n_max + 1)
    bad = _failing(ns, lambda n: _betti(calc.poincare_polynomial(n)) == keel_betti(n))
    result.record(f"betti numbers of E(n,0,1) vs keel's recursion n<={n_max}", bad)
    bad = _failing(ns, lambda n: _betti(calc.character(n, 2, n - 2).dimension_poly())
                   == eulerian_numbers(n - 2))
    result.record(f"betti numbers of E(n,2,n-2) vs eulerian numbers n<={n_max}", bad)

    bad = [lam for n in range(9) for lam in partitions_of(n)
           if jacobi_trudi_to_powersum(lam) != schur(lam).to_powersum()]
    result.record("jacobi-trudi vs murnaghan-nakayama |lam|<=8", bad)

    pairs = [
        (lam, mu)
        for a in range(1, 4)
        for b in range(1, 4)
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]
    # every s_lam o s_mu with |lam|, |mu| >= 2 and |lam||mu| = 8 or 10, in as
    # many variables
    pairs += [
        (lam, mu)
        for a, b in ((2, 4), (4, 2), (2, 5), (5, 2))
        for lam in partitions_of(a)
        for mu in partitions_of(b)
    ]
    bad = []
    for lam, mu in pairs:
        nvars = max(sum(lam) * sum(mu), 1)
        kernel = expand(schur(lam).pleth(schur(mu)), nvars)
        if kernel != oracle_plethysm(schur(lam), schur(mu), nvars):
            bad.append((lam, mu))
    result.record("plethysm vs monomial substitution", bad)

    bad = []
    for _ in range(100):
        f, g = _random_schur_positive(rng, 4), _random_schur_positive(rng, 4)
        nvars = f.degree + g.degree
        if expand(f * g, nvars) != expand(f, nvars) * expand(g, nvars):
            bad.append((f, g))
    result.record("product vs expanded multiplication (100 random pairs)", bad)

    bad = []
    for _ in range(200):
        f, g = _random_schur_positive(rng, 8), _random_schur_positive(rng, 8)
        if leading_partition(f * g) != union(leading_partition(f), leading_partition(g)):
            bad.append((f, g))
    result.record("leading partition is multiplicative (200 random pairs)", bad)

    bad = []
    for size in range(1, 5):
        for mu in partitions_of(size):
            for m in range(1, 5):
                predicted = plethysm_leading_partition(mu, m)
                actual = leading_partition(schur(mu).pleth(schur((m,))))
                if predicted != actual:
                    bad.append((mu, m, predicted, actual))
    result.record("leading partition of s_mu o s_(m), closed form", bad)
    return result


def run_length_theorem(calc: CharacterCalculator | None = None, n_max: int = 8) -> SuiteResult:
    """The length analysis of E(n,0,1) for each n; an ArithmeticError of the
    recursion or its check fails n."""
    calc = calc or CharacterCalculator()
    result = SuiteResult("length-theorem")
    for n in range(3, n_max + 1):
        try:
            problems = length_theorem_report(n, calc).problems()
        except ArithmeticError as exc:
            problems = [str(exc)]
        result.checks.append(Check(f"n={n}", not problems, "; ".join(problems)))
    return result


_RUNNERS = {
    "paper-examples": run_paper_examples,
    "duality": run_duality,
    "oracles": run_oracles,
    "length-theorem": run_length_theorem,
}
SUITES = tuple(_RUNNERS)


def run_suite(name: str, calc: CharacterCalculator | None = None, n_max: int | None = None) -> SuiteResult:
    """Run the suite `name`; with `n_max` None it keeps its own default, and
    paper-examples, whose keys are fixed, takes none."""
    runner = _RUNNERS.get(name)
    if runner is None:
        raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)}")
    if n_max is None or runner is run_paper_examples:
        return runner(calc)
    return runner(calc, n_max)
