"""Equivariant Poincare-Serre polynomials of two-block weighted moduli spaces
of pointed rational curves, by the blow-up recursion.

The spaces carry n marked points split into k heavy points (weight 1) and
n-k light points of a weight w in (1/(l+1), 1/l], so that up to l light
points may meet; their rational cohomology is a bigraded character
E(n, k, l) of S_k x S_(n-k) with polynomial q-grading.  Walking l
between its extremes connects every E(n, k, l) to one of its bases:

* the point, n = 3: h_k (x) h_(3-k);
* the GIT quotient at the stable end for k = 0 (an exact division of a
  product generating polynomial by q^3 - q);
* the full moduli space itself at l <= 2, restricted from the k = 0
  character to S_k x S_(n-k).  This also gives k = n, where every point is
  heavy: the restriction to S_n x S_0 only swaps the legs.

Keys with k = 0 walk down from the stable end and keys with k >= 1 walk up
from l <= 2, adding or subtracting corrections.

Each blow-up step along the way adds correction terms assembled from a
smaller space, a Kronecker projection of the exceptional-fiber character,
and a plethysm with the character of the blown-up stratum.

The fixed inputs of the recursion are built in closed form, from integers
and the centralizer orders z_mu alone, with no change of basis: the
one-row Schur functions h_m = sum p_mu / z_mu (`symfunc.complete`), the GIT
bases one integer numerator per power sum, divided by q^3 - q by integer
synthetic division, and the fiber character.  The Kronecker projections
and plethysms of a blow-up step depend only on (m, l) and are built once
per process (`_blowup_kernel`).

A level step, the operand plus or minus sum_m sum_nu sub.deriv_x(nu) *
glued, is summed on integers by `symfunc.pack_terms`, the one packer, which
takes the corrections unevaluated (`_correction`).  Every operand and
kernel coefficient is packed once at q = 2^bits over one common
denominator, so each product is one integer multiplication and each sum
one integer addition.  The bits come from a bound fixed before packing, so
the packed sum goes straight into the Schur conversion
(`symfunc.convert_packed`).  It is decoded twice: from that conversion to
Schur form for the checks, and as it stands to power sums for the next
steps.

Every stored key is checked (`_check_character`): all its Schur
coefficients are effective palindromes of degree n-3 (Poincare duality) that
do not decrease up to the middle degree (hard Lefschetz), and its q^0 and
q^(n-3) coefficients are each exactly the trivial character
s_(k) (x) s_(n-k).  The keys with an independent count of their Betti
numbers, the full space at l <= 2 (Keel's recursion) and the Losev-Manin
key (n, 2, n-2) (the Eulerian numbers), must also match it.  A cache file
that fails the check raises CacheError.
"""

import json
import os
import threading
from contextlib import suppress
from functools import cache
from operator import index
from pathlib import Path

from .partitions import centralizer_order, partitions_of, split_factor, union
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


def _subset_sums(mu) -> list[int]:
    """Coefficients of prod_j (1 + t^(mu_j)): entry a counts the ways to pick
    parts of mu, told apart, that add up to a."""
    sums = [1] + [0] * sum(mu)
    top = 0
    for part in mu:
        top += part
        for a in range(top, part - 1, -1):
            sums[a] += sums[a - part]
    return sums


def _git_numerator(n: int, sums: list[int]) -> dict[int, int]:
    """z_mu times the p_mu coefficient of `git_polynomial(n)`, from the
    subset sums of mu."""
    out: dict[int, int] = {}
    for a in range(n // 2 + 1):
        out[n - a] = out.get(n - a, 0) + sums[a]
        out[a + 1] = out.get(a + 1, 0) - sums[a]
    return out


def _divide_q3_minus_q(numerator: dict[int, int]) -> dict[int, int]:
    """Exact quotient of an integer polynomial by q^3 - q, by synthetic
    division (q^e = q^(e-3) (q^3 - q) + q^(e-2)); a remainder raises
    ExactDivisionError.  The divisor is monic, so the quotient of an integer
    polynomial has integer coefficients whenever it is exact."""
    coeffs = [0] * (max(numerator, default=0) + 1)
    for e, v in numerator.items():
        coeffs[e] += v
    quotient = {}
    for e in range(len(coeffs) - 1, 2, -1):
        if coeffs[e]:
            quotient[e - 3] = coeffs[e]
            coeffs[e - 2] += coeffs[e]
    if any(coeffs[:3]):
        raise ExactDivisionError(f"q^3 - q leaves the remainder {coeffs[:3]} (q^0, q^1, q^2)")
    return quotient


def _closed_form(n: int, numerator, denominator: int = 1) -> SymFunc:
    """The power-sum function with p_mu coefficient
    numerator(mu, _subset_sums(mu)) / (denominator z_mu) for each mu of n."""
    terms = {}
    for mu in partitions_of(n):
        coeff = QPoly.from_numerators(
            numerator(mu, _subset_sums(mu)), denominator * centralizer_order(mu)
        )
        if coeff:
            terms[mu] = coeff
    return SymFunc(POWERSUM, n, terms)


def git_polynomial(n: int) -> SymFunc:
    """Generating numerator of the GIT base: sum of s_(n-i) s_(i) (q^(n-i) - q^(i+1)).

    Built per power sum from sum_a t^a h_a h_(n-a) = sum_mu (p_mu / z_mu)
    prod_j (1 + t^(mu_j)) (Macdonald I.2): h_(n-i) h_i contributes
    [t^i] prod_j (1 + t^(mu_j)) / z_mu to the coefficient of p_mu.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return _closed_form(n, lambda mu, sums: _git_numerator(n, sums))


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
        return SymFunc.zero(m)
    strata = QPoly.q() * QPoly.geometric(l - 1)
    terms = {}
    for mu, coeff in complete(m).terms.items():
        for part in mu:
            coeff = coeff * strata.stretch(part)
        terms[mu] = coeff
    return SymFunc(POWERSUM, m, terms)


def git_base_odd(n: int) -> BiSymFunc:
    """Stable-end character for odd n with no heavy points: `git_polynomial(n)`
    divided by q^3 - q, one integer numerator per power sum."""
    if n < 3 or n % 2 == 0:
        raise ValueError("need odd n >= 3")
    return BiSymFunc.embed_y(
        _closed_form(n, lambda mu, sums: _divide_q3_minus_q(_git_numerator(n, sums)))
    )


def git_base_even(n: int) -> BiSymFunc:
    """Stable-end character for even n with no heavy points.

    The GIT quotient is singular at strictly semistable points, so the
    numerator is repaired by middle-weight terms before the exact division,
    and a final plethysm term restores the resolved locus:

        [P - h_m^2 q^m + (s_(2) o h_m) q + (s_(1,1) o h_m) q^2] / (q^3 - q)
          + s_(2) o (h_m g)        with m = n/2, g = 1 + q + ... + q^(m-2).

    Each p_mu coefficient is built over 2 z_mu from closed forms:
    s_(2) o h_m = (h_m^2 + p_2 o h_m)/2 and s_(1,1) o h_m = (h_m^2 - p_2 o h_m)/2;
    z_mu [p_mu] h_m^2 is the subset sum of mu at m; z_mu [p_mu] p_2 o h_m is
    2^len(mu) if every part of mu is even and 0 otherwise; and
    s_(2) o (h_m g) = (h_m^2 g(q)^2 + (p_2 o h_m) g(q^2))/2.
    """
    if n < 4 or n % 2:
        raise ValueError("need even n >= 4")
    m = n // 2
    g_squared = {e: min(e, 2 * m - 4 - e) + 1 for e in range(2 * m - 3)}

    def numerator(mu, sums):
        square = sums[m]  # z_mu [p_mu] h_m^2
        p2 = 2 ** len(mu) if all(a % 2 == 0 for a in mu) else 0  # z_mu [p_mu] p_2 o h_m
        head = {e: 2 * v for e, v in _git_numerator(n, sums).items()}
        head[m] = head.get(m, 0) - 2 * square
        head[1] = head.get(1, 0) + square + p2
        head[2] = head.get(2, 0) + square - p2
        out = _divide_q3_minus_q(head)
        for e, v in g_squared.items():
            out[e] = out.get(e, 0) + square * v
        for i in range(m - 1):
            out[2 * i] = out.get(2 * i, 0) + p2
        return out

    return BiSymFunc.embed_y(_closed_form(n, numerator, 2))


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

    `_schur` holds every key served so far in presentation (Schur) form;
    `_powersum` holds the working (power-sum) form of the keys the recursion
    has used as operands.  A computed key enters both at once.  A key loaded
    from the cache directory enters `_schur` only and is converted to power
    sums the first time the recursion needs it, so serving cached keys does
    no change of basis.  With a cache directory every computed key is also
    written to one JSON file, so a later process renders byte-identical
    output.
    """

    def __init__(self, cache_dir=None):
        self._powersum: dict[tuple[int, int, int], BiSymFunc] = {}
        self._schur: dict[tuple[int, int, int], BiSymFunc] = {}
        self.cache_dir = Path(cache_dir) if cache_dir else None

    # -- public surface ---------------------------------------------------

    def normalized_key(self, n: int, k: int, l: int) -> tuple[int, int, int]:
        """Clamp l into [1, base_level]; levels 1 and 2 carry the same space.
        n, k and l must be ints (`operator.index`)."""
        n, k, l = index(n), index(k), index(l)
        if l < 1:
            raise ValueError("need l >= 1")
        return (n, k, min(max(l, 2), base_level(n, k)))

    def character(self, n: int, k: int = 0, l: int = 1) -> BiSymFunc:
        """The bigraded character E(n, k, l), in the Schur basis."""
        return self._compute(self.normalized_key(n, k, l))

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
        packed = pack_terms({}, SCHUR, (k, n - k), [self._correction(n, k, m, l)])
        return BiSymFunc._raw(SCHUR, k, n - k, convert_packed(packed))

    # -- the recursion -----------------------------------------------------

    def _compute(self, key) -> BiSymFunc:
        """The Schur form of E(key): from memory, else from disk, else evaluated."""
        value = self._schur.get(key)
        if value is None:
            value = self._load(key)
        if value is None:
            value = self._store(key, self._evaluate(key))
        return value

    def _operand(self, key) -> BiSymFunc:
        """The power-sum form of E(key), converted from Schur form on first use."""
        value = self._compute(key)
        working = self._powersum.get(key)
        if working is None:
            working = value.to_powersum()
            self._powersum[key] = working
        return working

    def _evaluate(self, key):
        """E(key) in power sums: a BiSymFunc, or the `Packed` sum of a level step."""
        n, k, l = key
        if n == 3:
            return BiSymFunc.tensor(complete(k), complete(3 - k))
        if k == 0:
            if l >= base_level(n, 0):
                return git_base_odd(n) if n % 2 else git_base_even(n)
            return self._level_step(key, l + 1, l, 1)
        if l <= 2:  # also k = n, whose only level is 1
            full = self._operand(self.normalized_key(n, 0, 1))
            return restrict_full(full.y_symfunc(), k)
        return self._level_step(key, l - 1, l - 1, -1)

    def _level_step(self, key, source: int, level: int, sign: int) -> Packed:
        """E(key) from the same space at weight level `source`: that
        character plus `sign` times every correction of `level`, summed
        packed (`pack_terms`)."""
        n, k, _ = key
        operand = self._operand(self.normalized_key(n, k, source))
        corrections = [
            self._correction(n, k, m, level) for m in range(1, (n - k) // (level + 1) + 1)
        ]
        return pack_terms(operand.terms, SCHUR, (k, n - k), corrections, sign)

    def _correction(self, n: int, k: int, m: int, l: int):
        """Correction added when the weight crosses 1/(l+1): strata of m light
        points colliding, glued along a smaller space with one extra heavy point.

        It is the sum of sub.deriv_x(nu) * glued over the entries of
        `_blowup_kernel(m, l)`, returned unevaluated as the addend
        (denominator, norm, add) that `pack_terms` sums; each product is
        one integer multiplication.
        """
        assert n - l * m >= 3
        sub = self._operand(self.normalized_key(n - l * m, k + m, l + 1))
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
        """Check the computed E(key) (`_check_character`), keep it in both
        forms and write it to the cache; return its Schur form.  `value` is
        a BiSymFunc in power sums or the `Packed` sum of a level step, which
        is decoded twice, once from its Schur conversion and once as it
        stands, to power sums."""
        n, k, _ = key
        if isinstance(value, Packed):
            in_schur = BiSymFunc._raw(SCHUR, k, n - k, convert_packed(value))
            value = BiSymFunc._raw(POWERSUM, k, n - k, value.decode())
        else:
            in_schur = value.to_schur()
        _check_character(key, in_schur)
        self._schur[key] = in_schur
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
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None  # a miss, also when `cache --clear` removed the file just now
        except (OSError, json.JSONDecodeError) as exc:
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
        try:
            value = BiSymFunc.from_json_dict(payload)
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise CacheError(f"malformed cache file {path}: {exc}") from exc
        value = value.to_schur()
        try:
            _check_character(key, value)
        except ArithmeticError as exc:
            raise CacheError(f"cache file {path} fails verification: {exc}") from exc
        self._schur[key] = value
        return value
