"""Correctness gate of the benchmark: checks that share no code with the
package's recursion.

* Keel's recursion for the Poincare polynomial of the full moduli space
  (Keel 1992, Trans. AMS 330):
      P_3 = 1,
      P_(n+1) = (1+q) P_n + (q/2) sum_(i=2..n-2) C(n,i) P_(i+1) P_(n-i+1).
* Eulerian numbers for the Losev-Manin chamber E(n, 2, n-2), whose Betti
  numbers count permutations of n-2 letters by descents (Losev-Manin 2000).
* Poincare duality: each Schur coefficient of E(n, 0, 1) is a palindrome of
  degree n-3.
* Digests of the exact Schur terms, frozen in ``digests.json`` from the
  package as first benchmarked; they catch a changed coefficient that every
  structural check above would accept.
"""

import hashlib
import json
from functools import cache
from math import comb
from pathlib import Path

DIGESTS_FILE = Path(__file__).resolve().parent / "digests.json"


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_add(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    return [x + (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


@cache
def keel_poincare(n: int) -> tuple[int, ...]:
    """Betti numbers of the moduli space of stable n-pointed rational curves."""
    if n < 3:
        raise ValueError("need n >= 3")
    if n == 3:
        return (1,)
    m = n - 1
    total = [0]
    for i in range(2, m - 1):
        term = _poly_mul(list(keel_poincare(i + 1)), list(keel_poincare(m - i + 1)))
        total = _poly_add(total, [comb(m, i) * c for c in term])
    if any(c % 2 for c in total):
        raise ArithmeticError(f"Keel's sum for n={n} is not divisible by 2")
    half = [0] + [c // 2 for c in total]
    out = _poly_add(_poly_mul(list(keel_poincare(m)), [1, 1]), half)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return tuple(out)


@cache
def eulerian(m: int) -> tuple[int, ...]:
    """Eulerian numbers A(m, j), j = 0..m-1: permutations of m letters with j descents."""
    if m < 1:
        raise ValueError("need m >= 1")
    if m == 1:
        return (1,)
    prev = eulerian(m - 1)
    return tuple(
        (j + 1) * (prev[j] if j < len(prev) else 0) + (m - j) * (prev[j - 1] if j else 0)
        for j in range(m)
    )


def coefficients(poly) -> tuple[int, ...]:
    """Coefficient list of a QPoly with integer values, constant term first."""
    values = [poly.coeff(i) for i in range(poly.degree + 1)]
    if any(v.denominator != 1 for v in values):
        raise ArithmeticError(f"non-integer coefficient in {poly}")
    return tuple(int(v) for v in values)


def palindrome_problems(value, top: int) -> list[str]:
    """Schur coefficients that are not palindromes of degree `top`."""
    out = []
    for key, c in value.terms.items():
        if c.degree > top or c.reflect(top) != c:
            out.append(f"coefficient of {key} is not a palindrome of degree {top}")
    return out


def terms_digest(f) -> str:
    """Digest of the exact terms of a (bi)symmetric function, independent of
    term order and of any output format."""
    rows = sorted(
        (str(key), [[e, str(v)] for e, v in c.items()]) for key, c in f.terms.items()
    )
    return json_digest([f.basis, rows])


def json_digest(data) -> str:
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_frozen() -> dict[str, str]:
    return json.loads(DIGESTS_FILE.read_text())


def full_space_problems(value, n: int) -> list[str]:
    """Checks of E(n, 0, 1) against Keel's recursion and Poincare duality."""
    out = []
    dims = coefficients(value.dimension_poly())
    if dims != keel_poincare(n):
        out.append(f"Betti numbers {dims} differ from Keel's {keel_poincare(n)}")
    return out + palindrome_problems(value, n - 3)


def chamber_problems(value, n: int, k: int, l: int) -> list[str]:
    """Dimension checks that apply to a chamber E(n, k, l)."""
    out = []
    if l <= 2:
        dims = coefficients(value.dimension_poly())
        if dims != keel_poincare(n):
            out.append(f"E({n},{k},{l}) Betti numbers {dims} differ from Keel's")
    if k == 2 and l == n - 2:
        dims = coefficients(value.dimension_poly())
        if dims != eulerian(n - 2):
            out.append(f"E({n},2,{l}) Betti numbers {dims} differ from the Eulerian numbers")
    return out


def digest_of(value) -> str:
    """Digest of what an op produced: exact Schur terms of a (bi)symmetric
    function, a list of them, or plain JSON data such as a length report."""
    if isinstance(value, list):
        return json_digest([digest_of(v) for v in value])
    if hasattr(value, "terms"):
        return terms_digest(value.to_schur())
    return json_digest(value)


def check_ops(workload: str, ops, frozen: dict[str, str]) -> None:
    """Fill in each op's digest and problems; `populate` is a chambers pass."""
    for op in ops:
        if op.error:
            continue
        try:
            value = op.resolved()
            op.digest = digest_of(value)
            if workload == "full-cold":
                op.problems.extend(full_space_problems(value, op.key[0]))
            elif workload in ("chambers", "populate"):
                op.problems.extend(chamber_problems(value, *op.key))
        except Exception as exc:  # a malformed value fails its op
            op.problems.append(f"check raised {exc!r}")
            continue
        expected = frozen.get(op.label)
        if expected is None:
            op.problems.append("no frozen digest for this label")
        elif op.digest != expected:
            op.problems.append(f"digest {op.digest} differs from the frozen {expected}")
