"""Equivariant Poincare-Serre polynomials of two-block weighted moduli spaces
of pointed rational curves, by the blow-up recursion.

The spaces carry n marked points split into k heavy points (weight 1) and
n-k light points of a weight w in (1/(l+1), 1/l], so that up to l light
points may meet; their rational cohomology is a bigraded character
E(n, k, l) of S_k x S_(n-k) with polynomial q-grading.  Walking l
between its extremes connects every E(n, k, l) to one of its bases:

* the point, n = 3: h_k (x) h_(3-k);
* the GIT quotient at the stable end for k = 0;
* the full moduli space itself at l <= 2, restricted from the k = 0
  character to S_k x S_(n-k).  This also gives k = n, where every point is
  heavy: the restriction to S_n x S_0 only swaps the legs.

Keys with k = 0 walk down from the stable end and keys with k >= 1 walk up
from l <= 2, adding or subtracting corrections.

Each blow-up step along the way adds correction terms assembled from a
smaller space, a Kronecker projection of the exceptional-fiber character,
and a plethysm with the character of the blown-up stratum.

The fixed inputs of the recursion are built in closed form from integers:
h_m = sum p_mu / z_mu (`symfunc.complete`) and the fiber character in power
sums, and the GIT bases in Schur form, one integer numerator per two-row
shape s_(n-j,j) divided by q^3 - q, converted to power sums once, on first
use.  The Kronecker projections and plethysms of a blow-up step depend only
on (m, l) and are built once per process (`_blowup_kernel`).

A level step, the operand plus or minus sum_m sum_nu sub.deriv_x(nu) *
glued, is summed on packed integers by `symfunc.pack_terms`, with the
corrections unevaluated (`_correction`), and goes straight into the Schur
conversion (`symfunc.convert_packed`).  It is decoded twice: from that
conversion to Schur form for the checks, and as it stands to power sums
for the next steps.

Every key, computed or loaded, is checked in Schur form
(`_check_character`); a cache file that fails the check raises CacheError.

A calculator keeps the Schur form of every key it served.  It keeps a
power-sum form only while the current request still consumes it, plus the
full-space forms E(n, 0, 1), which every restriction of a later request
reads, and each request's result until a later request consumes it.  A
request that must evaluate plans once: one walk through `consumed_keys`
(the one dependency rule), which stops at the keys in memory or on disk,
lists the keys to evaluate, each after those it consumes, and counts the
evaluations that consume each form.  A missing form is converted from
Schur form, so the counts move memory, never a result.
"""

import json
import os
import threading
from contextlib import suppress
from functools import cache
from operator import index
from pathlib import Path

from .partitions import partitions_of, split_factor, union
from .qpoly import ExactDivisionError, QPoly
from .oracles import eulerian_numbers, keel_betti
from .symfunc import (
    POWERSUM,
    SCHUR,
    Packed,
    SymFunc,
    common_denominator,
    complete,
    convert_packed,
    pack_terms,
    packed_norm,
    powersum,
)
from .bigraded import BiSymFunc, restrict_full


class CacheError(RuntimeError):
    """The disk cache is unreadable or has an unexpected schema."""


CACHE_SCHEMA_VERSION = 1


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


def _normalized(n: int, k: int, l: int) -> tuple[int, int, int]:
    """The key E(n, k, l) is kept under: l >= 1 clamped into [2, base_level];
    levels 1 and 2 carry the same space."""
    return (n, k, min(max(l, 2), base_level(n, k)))


def consumed_keys(key) -> list[tuple[int, int, int]]:
    """The normalized keys whose power-sum forms the evaluation of the
    normalized E(key) consumes, in the order it reads them: none for a base
    (the point, a GIT base); E(n, 0, 1) for a restriction (k >= 1, l <= 2);
    for a level step, the operand (the same space at the level it steps
    from), then the sub key (n - l*m, k + m, l + 1) of each correction
    m = 1.. of the step's level l."""
    n, k, l = key
    if n == 3 or (k == 0 and l >= base_level(n, 0)):
        return []
    if k and l <= 2:  # also k = n, whose only level is 1
        return [_normalized(n, 0, 1)]
    source, level = (l + 1, l) if k == 0 else (l - 1, l - 1)
    subs = range(1, (n - k) // (level + 1) + 1)
    return [_normalized(n, k, source)] + [
        _normalized(n - level * m, k + m, level + 1) for m in subs
    ]


def _git_numerators(n: int) -> dict[tuple[int, ...], dict[int, int]]:
    """{(n-j, j): {e: [q^e] c_j for e = 0..n}} for j = 0..n//2, new dicts:
    c_j = sum over a = j..n//2 of (q^(n-a) - q^(a+1)) is the coefficient of
    s_(n-j,j) in `git_polynomial(n)`, since h_a h_(n-a) = sum over j <= a of
    s_(n-j,j) for a <= n/2 (Pieri)."""
    h = n // 2
    return {
        (n - j, j) if j else (n,): {
            e: (n - h <= e <= n - j) - (j < e <= h + 1) for e in range(n + 1)
        }
        for j in range(h + 1)
    }


def _divide_q3_minus_q(numerator: dict[int, int]) -> dict[int, int]:
    """Exact quotient of an integer polynomial by q^3 - q, by synthetic
    division (q^e = q^(e-3) (q^3 - q) + q^(e-2)); a remainder raises
    ExactDivisionError.  The divisor is monic, so the quotient of an integer
    polynomial has integer coefficients whenever it is exact."""
    coeffs = [numerator.get(e, 0) for e in range(max(numerator, default=0) + 1)]
    quotient = {}
    for e in range(len(coeffs) - 1, 2, -1):
        if coeffs[e]:
            quotient[e - 3] = coeffs[e]
            coeffs[e - 2] += coeffs[e]
    if any(coeffs[:3]):
        raise ExactDivisionError(f"q^3 - q leaves the remainder {coeffs[:3]} (q^0, q^1, q^2)")
    return quotient


def git_polynomial(n: int) -> SymFunc:
    """Generating numerator of the GIT base, in Schur form:
    sum of s_(n-i) s_(i) (q^(n-i) - q^(i+1)) = sum_j c_j s_(n-j,j)."""
    if n < 1:
        raise ValueError("need n >= 1")
    return SymFunc(SCHUR, n, {lam: QPoly(c) for lam, c in _git_numerators(n).items()})


def blowup_fiber_character(m: int, l: int) -> SymFunc:
    """Character of the m-fold product of the positive-degree cohomology of P^(l-1).

    Sum over tuples (m_1, ..., m_(l-1)) of non-negative multiplicities with
    total m, each contributing prod_j s_(m_j) in q-degree sum_j j*m_j.  That
    sum is the plethysm h_m[X (q + ... + q^(l-1))], so the p_mu coefficient
    is that of h_m times prod_i (q^(mu_i) + q^(2 mu_i) + ... + q^((l-1) mu_i)).
    The l = 1 fiber has no positive cohomology, so the character is zero.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    if l < 1:
        raise ValueError("need l >= 1")
    if l == 1:
        return SymFunc(POWERSUM, m)
    strata = QPoly.q() * QPoly.geometric(l - 1)
    terms = {}
    for mu, coeff in complete(m).terms.items():
        for part in mu:
            coeff = coeff * strata.stretch(part)
        terms[mu] = coeff
    return SymFunc(POWERSUM, m, terms)


def git_base_odd(n: int) -> BiSymFunc:
    """Stable-end character for odd n with no heavy points, in Schur form:
    `git_polynomial(n)` divided by q^3 - q, c_j / (q^3 - q) on s_(n-j,j)."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need odd n >= 3")
    terms = _git_numerators(n).items()
    return BiSymFunc(SCHUR, 0, n, {((), lam): QPoly(_divide_q3_minus_q(c)) for lam, c in terms})


def git_base_even(n: int) -> BiSymFunc:
    """Stable-end character for even n with no heavy points, in Schur form.

    The GIT quotient is singular at strictly semistable points, so the
    numerator is repaired by middle-weight terms before the exact division,
    and a final plethysm term restores the resolved locus:

        [P - h_m^2 q^m + (s_(2) o h_m) q + (s_(1,1) o h_m) q^2] / (q^3 - q)
          + s_(2) o (h_m g)        with m = n/2, g = 1 + q + ... + q^(m-2).

    h_m^2 is the sum of all s_(n-j,j) (Pieri), s_(2) o h_m of those with j
    even and s_(1,1) o h_m of those with j odd.  So s_(n-j,j) carries
    [c_j - q^m + q^(1 + j mod 2)] / (q^3 - q) plus, from s_(2) o (h_m g), the
    count at q^e of the pairs a <= b (j even) or a < b (j odd) in 0..m-2
    with a + b = e.
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    m, terms = n // 2, {}
    for lam, numerator in _git_numerators(n).items():
        odd = (n - lam[0]) % 2  # j mod 2
        numerator[m] -= 1
        numerator[1 + odd] += 1
        out = _divide_q3_minus_q(numerator)
        for e in range(2 * m - 3):  # the pairs a <= b (j even) or a < b (j odd) with a + b = e
            out[e] = out.get(e, 0) + (min(e, 2 * m - 4 - e) + 2 - odd) // 2
        terms[(), lam] = QPoly(out)
    return BiSymFunc(SCHUR, 0, n, terms)


@cache
def _blowup_kernel(m: int, l: int):
    """The glued characters of a blow-up step, with the fiber of
    `blowup_fiber_character(m, l)`: a correction is the sum over nu of
    sub.deriv_x(nu) times (p_nu * fiber) o h_(l+1) on the y-leg.

    Returns (D, entries), D the lcm of all their denominators, and one entry
    (nu, norm, terms) per nu whose plethysm is not zero: its y-terms
    (partition, QPoly) and their `packed_norm` at D.  Shared; do not mutate.
    """
    fiber = blowup_fiber_character(m, l)
    glue = complete(l + 1)
    glued = []
    for nu in partitions_of(m):
        projected = powersum(nu).kron(fiber)
        if not projected.is_zero():
            glued.append((nu, tuple(projected.pleth(glue).terms.items())))
    scale = common_denominator(c for _, terms in glued for _, c in terms)
    return scale, tuple(
        (nu, sum(packed_norm(c, scale) for _, c in terms), terms) for nu, terms in glued
    )


def _check_character(key, value: BiSymFunc) -> None:
    """Raise ArithmeticError unless the Schur form `value` of E(key) is a
    character of the cohomology of a smooth projective (n-3)-fold: every
    coefficient is effective and a palindrome of degree n-3 (Poincare
    duality, which also keeps it in degrees 0..n-3) whose q^(e+1) part is
    at least its q^e part for 2e < n-3 (hard Lefschetz: an S_k x S_(n-k)
    invariant ample class maps H^2e into H^(2e+2) injectively and
    equivariantly), and the coefficient of q^0, hence also of q^(n-3), is
    exactly s_(k) (x) s_(n-k), since H^0 is the trivial representation.

    Where an independent count exists, the Betti numbers
    (`dimension_poly`: c times the leg dimensions, summed over the terms)
    must match it: Keel's recursion for l <= 2, the full space, and the
    Eulerian numbers for the Losev-Manin key (n, 2, n-2)."""
    n, k, l = key
    trivial = ((k,) if k else (), (n - k,) if n - k else ())
    top, rising = n - 3, (n - 2) // 2  # e < rising exactly when 2e < n-3
    for term, c in value.terms.items():
        if not c.is_effective():
            raise ArithmeticError(
                f"E{key} is not effective; the recursion produced a non-character"
            )
        # Effective: `_c` holds the positive integer coefficients.
        coeffs = c._c
        if coeffs.get(0, 0) != (1 if term == trivial else 0):
            raise ArithmeticError(f"E{key} has a nontrivial q^0 part at {term}")
        for e, v in coeffs.items():
            if coeffs.get(top - e) != v:
                if e > top:
                    raise ArithmeticError(f"E{key} has a q^{e} part above q^{top} at {term}")
                raise ArithmeticError(
                    f"E{key} breaks Poincare duality at {term}: q^{e} and q^{top - e} differ"
                )
            if e < rising and coeffs.get(e + 1, 0) < v:
                raise ArithmeticError(
                    f"E{key} breaks hard Lefschetz at {term}: q^{e + 1} is below q^{e}"
                )
    if trivial not in value.terms:
        raise ArithmeticError(f"E{key} lacks the trivial character in q^0 and q^{top}")
    if l > 2 and (k, l) != (2, n - 2):
        return  # no independent count of the Betti numbers
    dimensions = value.dimension_poly()._c  # integers: the value is effective
    betti = [dimensions.get(e, 0) for e in range(top + 1)]
    expected = keel_betti(n) if l <= 2 else eulerian_numbers(n - 2)
    if tuple(betti) != expected:
        raise ArithmeticError(f"E{key} has the Betti numbers {betti}, not {list(expected)}")


def character_json(key, value: BiSymFunc) -> str:
    """The cache document of E(key) with Schur form `value`, as one compact
    JSON line without its newline: the schema version and the key, then
    `value.to_json_dict()`."""
    n, k, l = key
    payload = {"v": CACHE_SCHEMA_VERSION, "n": n, "k": k, "l": l, **value.to_json_dict()}
    return json.dumps(payload, separators=(",", ":"))


def cache_files(directory: Path) -> tuple[list[Path], list[Path]]:
    """The cache files `E_{n}_{k}_{l}.json` in `directory`, and the temporary
    files that writers killed before their rename left behind."""
    if not directory.is_dir():
        return [], []
    return sorted(directory.glob("E_*.json")), sorted(directory.glob(".E_*.json.*.tmp"))


class CharacterCalculator:
    """Memoized evaluator of the characters E(n, k, l).

    `_schur` holds every key served so far in presentation (Schur) form, for
    the life of the calculator.  `_powersum` holds a working (power-sum)
    form only while the current request still consumes it, except the
    full-space forms E(n, 0, 1), which every restriction (n, k, 2) of a
    later request reads, and the result of a request, until a later request
    has consumed it.  A request that must evaluate plans once (`_plan`):
    the keys to evaluate, each after the keys it consumes, and how many of
    those evaluations consume each form; a form leaves `_powersum` after
    its last consumer.  A form that is missing when needed, such as that of a
    GIT base, a loaded key or a key an earlier request computed, is
    converted from its Schur form (`_operand`), so no result depends on the
    counts.  With a cache directory every computed key is also written to
    one JSON file, so a later process renders byte-identical output.
    """

    def __init__(self, cache_dir=None):
        self._powersum: dict[tuple[int, int, int], BiSymFunc] = {}
        self._schur: dict[tuple[int, int, int], BiSymFunc] = {}
        self.cache_dir = Path(cache_dir) if cache_dir else None

    # -- public surface ---------------------------------------------------

    def normalized_key(self, n: int, k: int, l: int) -> tuple[int, int, int]:
        """Clamp l into [2, base_level], or to 1 where base_level is 1; levels
        1 and 2 carry the same space.
        n, k and l must be ints (`operator.index`)."""
        n, k, l = index(n), index(k), index(l)
        if l < 1:
            raise ValueError("need l >= 1")
        return _normalized(n, k, l)

    def character(self, n: int, k: int = 0, l: int = 1) -> BiSymFunc:
        """The bigraded character E(n, k, l), in the Schur basis."""
        return self._compute(self.normalized_key(n, k, l))

    def poincare_polynomial(self, n: int) -> QPoly:
        """Graded dimension of the cohomology of the full space on n points."""
        return self.character(n, 0, 1).dimension_poly()

    # -- the recursion -----------------------------------------------------

    def _compute(self, key) -> BiSymFunc:
        """The Schur form of E(key): from memory, else from disk, else
        evaluated along its plan (`_plan`).  Each form whose last consumer
        has been evaluated leaves `_powersum` before that consumer is
        stored, except the full-space forms E(n, 0, 1)."""
        value = self._schur.get(key)
        if value is None:
            value = self._load(key)
        if value is None:
            order, uses = self._plan(key)
            for step in order:
                value = self._evaluate(step)
                for used in consumed_keys(step):
                    uses[used] -= 1
                    if not uses[used] and not (used[1] == 0 and used[2] <= 2):
                        self._powersum.pop(used, None)
                value = self._store(step, value)
        return value

    def _plan(self, key):
        """The keys a request for the missing E(key) must evaluate, each
        listed after the keys it consumes, and how many of these evaluations
        consume each power-sum form: one post-order walk from `key` through
        `consumed_keys`.  A key in `_schur`, or on disk (`_load` reads it
        here), ends the walk, so the counts are exact."""
        order, uses = [], {}
        stack, walked = [(key, iter(consumed_keys(key)))], {key}
        while stack:
            top, pending = stack[-1]
            for used in pending:
                uses[used] = uses.get(used, 0) + 1
                if used in walked or used in self._schur or self._load(used) is not None:
                    continue
                walked.add(used)
                stack.append((used, iter(consumed_keys(used))))
                break
            else:
                stack.pop()
                order.append(top)
        return order, uses

    def _operand(self, key) -> BiSymFunc:
        """The power-sum form of E(key), converted from Schur form if missing."""
        value = self._compute(key)
        if key not in self._powersum:
            self._powersum[key] = value.to_powersum()
        return self._powersum[key]

    def _evaluate(self, key):
        """E(key): a BiSymFunc, in Schur form for a GIT base and in power sums
        otherwise, or the `Packed` sum of a level step: the operand plus
        `sign` times every correction of `level`."""
        n, k, l = key
        operands = [self._operand(used) for used in consumed_keys(key)]
        if n == 3:
            return BiSymFunc.tensor(complete(k), complete(3 - k))
        if not operands:  # the stable end for k = 0
            return git_base_odd(n) if n % 2 else git_base_even(n)
        if k and l <= 2:
            return restrict_full(operands[0].y_symfunc(), k)
        level, sign = (l, 1) if k == 0 else (l - 1, -1)
        operand, *subs = operands
        corrections = [self._correction(sub, m, level) for m, sub in enumerate(subs, 1)]
        return pack_terms(operand.terms, SCHUR, (k, n - k), corrections, sign)

    def _correction(self, sub: BiSymFunc, m: int, l: int):
        """Correction added when the weight crosses 1/(l+1): strata of m light
        points colliding, glued along a smaller space with one extra heavy
        point, whose power-sum form E(n - l*m, k + m, l + 1) is `sub`.

        It is the sum of sub.deriv_x(nu) * glued over the entries of
        `_blowup_kernel(m, l)`, returned unevaluated as the addend
        (denominator, norm, add) that `pack_terms` sums; each product is
        one integer multiplication.
        """
        glue_scale, kernel = _blowup_kernel(m, l)
        sub_scale = common_denominator(sub.terms.values())
        by_x: dict[tuple, list] = {}  # x-partition: [sub terms, their packed norm]
        for term, c in sub.terms.items():
            entry = by_x.setdefault(term[0], [[], 0])
            entry[0].append(term)
            entry[1] += packed_norm(c, sub_scale)
        # sub.deriv_x(nu), term by term: {y: [(x rest, count, sub term)]} per nu
        derivatives = []
        norm = 0
        for nu, glue_norm, glued in kernel:
            found: dict[tuple, list] = {}
            for lx, (terms, weight) in by_x.items():
                hit = split_factor(lx, nu)
                if hit is None:
                    continue
                rest, count = hit
                for term in terms:
                    found.setdefault(term[1], []).append((rest, count, term))
                norm += count * weight * glue_norm
            derivatives.append((found, glued))

        def add(acc: dict, scale: int, bits: int, sign: int) -> None:
            packed = {term: c.pack(sub_scale, bits) for term, c in sub.terms.items()}
            get = acc.get
            for found, glued in derivatives:
                ys = [(gy, sign * g.pack(scale // sub_scale, bits)) for gy, g in glued]
                for ly, hits in found.items():
                    line = [(union(ly, gy), y) for gy, y in ys]
                    for rest, count, term in hits:
                        x = count * packed[term]
                        for joined, y in line:
                            key = (rest, joined)
                            acc[key] = get(key, 0) + x * y

        return sub_scale * glue_scale, norm, add

    # -- persistence ---------------------------------------------------------

    def _store(self, key, value) -> BiSymFunc:
        """Check the computed E(key) (`_check_character`), keep it in the
        forms at hand and write it to the cache; return its Schur form.
        `value` is a BiSymFunc in either basis or the `Packed` sum of a level
        step, decoded from its Schur conversion and, as it stands, to power sums."""
        n, k, _ = key
        if isinstance(value, Packed):
            in_schur = BiSymFunc._raw(SCHUR, k, n - k, convert_packed(value))
            value = BiSymFunc._raw(POWERSUM, k, n - k, value.decode())
        else:
            in_schur = value.to_schur()
        _check_character(key, in_schur)
        self._schur[key] = in_schur
        if value.basis == POWERSUM:
            self._powersum[key] = value
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            path = self._path(key)
            # Write a private temporary file and rename it over the target, so
            # a crash or a concurrent writer never leaves a truncated E_*.json.
            tmp = path.with_name(f".{path.name}.{os.getpid()}-{threading.get_ident()}.tmp")
            try:
                tmp.write_text(character_json(key, in_schur) + "\n")
                # `cache --clear` may remove the temporary file before its
                # rename; then this write is skipped: the value is still
                # served, and a later run computes the key again.
                with suppress(FileNotFoundError):
                    os.replace(tmp, path)
            finally:
                tmp.unlink(missing_ok=True)
        return in_schur

    def _path(self, key) -> Path:
        return self.cache_dir / "E_{}_{}_{}.json".format(*key)

    def _load(self, key):
        """The Schur form of E(key) from its cache file, checked
        (`_check_character`) and kept in `_schur`; None on a miss."""
        if self.cache_dir is None:
            return None
        n, k, _ = key
        path = self._path(key)
        try:
            text = path.read_text()
            payload = json.loads(text)
        except FileNotFoundError:
            return None  # a miss, also when `cache --clear` removed the file just now
        except (OSError, ValueError, RecursionError) as exc:  # also not UTF-8, or nested too deep
            raise CacheError(f"unreadable cache file {path}: {exc}") from exc
        if not isinstance(payload, dict):
            raise CacheError(f"cache file {path} does not hold a JSON object")
        if payload.get("v") != CACHE_SCHEMA_VERSION:
            raise CacheError(
                f"cache schema mismatch in {path}: "
                f"want v={CACHE_SCHEMA_VERSION}, found v={payload.get('v')!r}"
            )
        if (payload.get("n"), payload.get("k"), payload.get("l")) != key:
            raise CacheError(f"cache file {path} describes a different key")
        # Checked before parsing, which enumerates the partitions of each degree.
        if payload.get("bidegree") != [k, n - k]:
            raise CacheError(
                f"malformed cache file {path}: bidegree {payload.get('bidegree')!r}, "
                f"want {[k, n - k]}"
            )
        if payload.get("basis") != SCHUR:  # `character_json` writes Schur forms only
            raise CacheError(
                f"malformed cache file {path}: basis {payload.get('basis')!r}, want {SCHUR!r}"
            )
        try:
            value = BiSymFunc.from_json_dict(payload)
            # json.loads keeps the last of repeated keys.  In a file that
            # `character_json` writes every ':' ends a key: the 7 fields, 3
            # per term and one per exponent, so a repeated or unknown key
            # (or a ':' in a string) leaves more ':' than these.
            pairs = 7 + sum(3 + len(t["coeff"]) for t in payload["terms"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed cache file {path}: {exc}") from exc
        if text.count(":") != pairs:
            raise CacheError(
                f"malformed cache file {path}: {text.count(':')} ':' where its fields, "
                f"terms and exponents make {pairs} keys; a key is repeated or unknown"
            )
        try:
            _check_character(key, value)
        except ArithmeticError as exc:
            raise CacheError(f"cache file {path} fails verification: {exc}") from exc
        self._schur[key] = value
        return value
