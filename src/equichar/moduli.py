"""Equivariant Poincare-Serre polynomials of two-block weighted moduli spaces
of pointed rational curves, by the blow-up recursion.

The spaces carry n marked points split into k heavy points (weight 1) and
n-k light points (weight 1/l); their rational cohomology is a bigraded
character E(n, k, l) of S_k x S_(n-k) with polynomial q-grading.  Walking l
between its extremes connects every E(n, k, l) to one of three explicit
bases:

* the GIT quotient at the stable end for k = 0 (an exact division of a
  product generating polynomial by q^3 - q),
* a projective space for k = 1 at the stable end,
* the full moduli space itself at l <= 2, reached by restriction from the
  k = 0 character.

Each blow-up step along the way adds correction terms assembled from a
smaller space, a Kronecker projection of the exceptional-fiber character,
and a plethysm with the character of the blown-up stratum.
"""

import json
import os
import threading
from pathlib import Path

from .partitions import partitions_of
from .qpoly import QPoly
from .symfunc import POWERSUM, SCHUR, SymFunc, one, powersum, schur
from .bigraded import BiSymFunc, restrict_full


class CacheError(RuntimeError):
    """The disk cache is unreadable or has an unexpected schema."""


CACHE_SCHEMA_VERSION = 1
_DIVISOR = QPoly({3: 1, 1: -1})  # q^3 - q


def base_level(n: int, k: int) -> int:
    """Largest weight level before the reduction morphisms become isomorphisms."""
    if n < 3:
        raise ValueError("need n >= 3")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    if k == 0:
        return (n - 1) // 2
    if k == n:
        return 1  # no light points; the level never matters
    if k == 1:
        return n - 2
    return n - k


def git_polynomial(n: int) -> SymFunc:
    """Generating numerator of the GIT base: sum of s_(n-i) s_(i) (q^(n-i) - q^(i+1))."""
    if n < 1:
        raise ValueError("need n >= 1")
    total = SymFunc.zero(n)
    for i in range(n // 2 + 1):
        weight = QPoly({n - i: 1}) - QPoly({i + 1: 1})
        if weight.is_zero():
            continue
        left = schur((n - i,)).to_powersum()
        right = schur((i,)).to_powersum() if i else one()
        total = total + (left * right).scale(weight)
    return total


def blowup_fiber_character(m: int, l: int) -> SymFunc:
    """Character of the m-fold product of the positive-degree cohomology of P^(l-1).

    Sum over tuples (m_1, ..., m_(l-1)) of non-negative multiplicities with
    total m, each contributing prod_j s_(m_j) in q-degree sum_j j*m_j.  The
    l = 1 fiber has no positive cohomology, so the character is zero.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if l < 1:
        raise ValueError("need l >= 1")
    total = SymFunc.zero(m)
    if l == 1:
        return total
    row_cache: dict[int, SymFunc] = {}

    def row(c):
        f = row_cache.get(c)
        if f is None:
            f = schur((c,)).to_powersum()
            row_cache[c] = f
        return f

    def compositions(remaining, slots):
        if slots == 0:
            if remaining == 0:
                yield ()
            return
        for first in range(remaining + 1):
            for rest in compositions(remaining - first, slots - 1):
                yield (first,) + rest

    for comp in compositions(m, l - 1):
        d = sum((j + 1) * c for j, c in enumerate(comp))
        prod = one()
        for c in comp:
            if c:
                prod = prod * row(c)
        total = total + prod.scale(QPoly.q(d))
    return total


def _divide_out(numerator: SymFunc) -> SymFunc:
    """Exact Schur-coefficientwise division by q^3 - q; remainder is fatal."""
    num = numerator.to_schur()
    out = {lam: c.divexact(_DIVISOR) for lam, c in num.terms.items()}
    return SymFunc(SCHUR, num.degree, out)


def git_base_odd(n: int) -> BiSymFunc:
    """Stable-end character for odd n with no heavy points."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need odd n >= 3")
    return BiSymFunc.embed_y(_divide_out(git_polynomial(n)))


def git_base_even(n: int) -> BiSymFunc:
    """Stable-end character for even n with no heavy points.

    The GIT quotient is singular at strictly semistable points, so the
    numerator is repaired by middle-weight terms before the exact division,
    and a final plethysm term restores the resolved locus:

        [P - s_(m)^2 q^m + (s_(2) o s_(m)) q + (s_(1,1) o s_(m)) q^2] / (q^3 - q)
          + s_(2) o (s_(m) (1 + q + ... + q^(m-2)))        with m = n/2.
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    m = n // 2
    s_m = schur((m,)).to_powersum()
    numerator = (
        git_polynomial(n)
        - (s_m * s_m).scale(QPoly.q(m))
        + schur((2,)).pleth(s_m).scale(QPoly.q(1))
        + schur((1, 1)).pleth(s_m).scale(QPoly.q(2))
    )
    head = _divide_out(numerator)
    tail = schur((2,)).pleth(s_m.scale(QPoly.geometric(m - 1))).to_schur()
    return BiSymFunc.embed_y(head + tail)


def projective_space_character(n: int) -> BiSymFunc:
    """Stable-end character for one heavy point: a projective space of dimension n-3."""
    if n < 3:
        raise ValueError("need n >= 3")
    return BiSymFunc.tensor(schur((1,)), schur((n - 1,))).scale(QPoly.geometric(n - 2))


class CharacterCalculator:
    """Memoized evaluator of the characters E(n, k, l).

    Results are kept in memory in both working (power-sum) and presentation
    (Schur) form; with a cache directory every computed key is also written
    to one JSON file, so a later process renders byte-identical output.
    """

    def __init__(self, cache_dir=None):
        self._powersum: dict[tuple[int, int, int], BiSymFunc] = {}
        self._schur: dict[tuple[int, int, int], BiSymFunc] = {}
        self.cache_dir = Path(cache_dir) if cache_dir else None

    # -- public surface ---------------------------------------------------

    def normalized_key(self, n: int, k: int, l: int) -> tuple[int, int, int]:
        """Clamp l into [1, base_level]; levels 1 and 2 carry the same space."""
        if l < 1:
            raise ValueError("need l >= 1")
        return (n, k, min(max(l, 2), base_level(n, k)))

    def character(self, n: int, k: int = 0, l: int = 1) -> BiSymFunc:
        """The bigraded character E(n, k, l), in the Schur basis."""
        key = self.normalized_key(n, k, l)
        self._compute(key)
        return self._schur[key]

    def poincare_polynomial(self, n: int) -> QPoly:
        """Graded dimension of the cohomology of the full space on n points."""
        return self.character(n, 0, 1).dimension_poly()

    def blowup_correction(self, n: int, k: int, m: int, l: int) -> BiSymFunc:
        """The level-l correction term of stratum size m, in the Schur basis."""
        if l < 2:
            raise ValueError("corrections only exist for l >= 2")
        if not 1 <= m <= (n - k) // (l + 1):
            raise ValueError(f"m must lie in [1, {(n - k) // (l + 1)}]")
        if n - l * m < 3:
            raise ValueError("the blown-up stratum has no underlying moduli space")
        return self._correction(n, k, m, l).to_schur()

    # -- the recursion -----------------------------------------------------

    def _compute(self, key) -> BiSymFunc:
        value = self._powersum.get(key)
        if value is not None:
            return value
        value = self._load(key)
        if value is None:
            value = self._evaluate(key)
            self._store(key, value, from_disk=False)
        return value

    def _evaluate(self, key) -> BiSymFunc:
        n, k, l = key
        if n == 3:
            fx = schur((k,)) if k else one()
            fy = schur((3 - k,)) if 3 - k else one()
            return BiSymFunc.tensor(fx, fy)
        if k == n:
            return self._full_character(n).swap_legs()
        if k == 0:
            r = base_level(n, 0)
            if l >= r:
                base = git_base_odd(n) if n % 2 else git_base_even(n)
                return base.to_powersum()
            total = self._compute(self.normalized_key(n, 0, l + 1))
            for m in range(1, n // (l + 1) + 1):
                assert n - l * m >= 3
                total = total + self._correction(n, 0, m, l)
            return total
        if l <= 2:
            return restrict_full(self._full_character(n).y_symfunc(), k)
        total = self._compute(self.normalized_key(n, k, l - 1))
        for m in range(1, (n - k) // l + 1):
            assert n - (l - 1) * m >= 3
            total = total - self._correction(n, k, m, l - 1)
        return total

    def _full_character(self, n: int) -> BiSymFunc:
        return self._compute(self.normalized_key(n, 0, 1))

    def _correction(self, n: int, k: int, m: int, l: int) -> BiSymFunc:
        """Correction added when the weight crosses 1/(l+1): strata of m light
        points colliding, glued along a smaller space with one extra heavy point."""
        sub = self._compute(self.normalized_key(n - l * m, k + m, l + 1))
        fiber = blowup_fiber_character(m, l)
        glue = schur((l + 1,))
        total = BiSymFunc.zero(k, n - k)
        for nu in partitions_of(m):
            projected = powersum(nu).kron(fiber)
            if projected.is_zero():
                continue
            total = total + sub.deriv_x(nu) * BiSymFunc.embed_y(projected.pleth(glue))
        return total

    # -- persistence ---------------------------------------------------------

    def _store(self, key, value: BiSymFunc, from_disk: bool) -> None:
        n, k, l = key
        in_schur = value.to_schur()
        for coeff in in_schur.terms.values():
            if not coeff.is_effective():
                raise ArithmeticError(
                    f"E{key} is not effective; the recursion produced a non-character"
                )
        self._powersum[key] = value.to_powersum()
        self._schur[key] = in_schur
        if self.cache_dir is not None and not from_disk:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            payload = {"v": CACHE_SCHEMA_VERSION, "n": n, "k": k, "l": l}
            payload.update(in_schur.to_json_dict())
            path = self.cache_dir / f"E_{n}_{k}_{l}.json"
            # Write a private temporary file and rename it over the target, so
            # a crash or a concurrent writer never leaves a truncated E_*.json.
            tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
            try:
                tmp.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
                os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)

    def _load(self, key):
        if self.cache_dir is None:
            return None
        n, k, l = key
        path = self.cache_dir / f"E_{n}_{k}_{l}.json"
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise CacheError(f"unreadable cache file {path}: {exc}") from exc
        if payload.get("v") != CACHE_SCHEMA_VERSION:
            raise CacheError(
                f"cache schema mismatch in {path}: "
                f"want v={CACHE_SCHEMA_VERSION}, found v={payload.get('v')!r}"
            )
        if (payload.get("n"), payload.get("k"), payload.get("l")) != key:
            raise CacheError(f"cache file {path} describes a different key")
        try:
            value = BiSymFunc.from_json_dict(payload)
        except (KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed cache file {path}: {exc}") from exc
        if value.bidegree != (k, n - k):
            raise CacheError(f"cache file {path} has bidegree {value.bidegree}")
        try:
            self._store(key, value, from_disk=True)
        except ArithmeticError as exc:
            raise CacheError(f"cache file {path} fails verification: {exc}") from exc
        return self._powersum[key]
