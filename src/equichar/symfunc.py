"""Symmetric functions with QPoly coefficients in the power-sum or Schur basis.

The power-sum basis is the working basis: the ordinary product is a multiset
union of indices, the Kronecker product is diagonal, plethysm stretches
indices, and the normalized partial derivative acts monomial by monomial.
The Schur basis is the presentation basis.  The change of basis goes through
the characteristic map: `change_basis` treats one leg of a (multi-)symmetric
function at a time, as an integer product with the character values
chi^lam(mu) (power sums to Schur) or with the class sizes times character
values, (n!/z_mu) chi^lam(mu) (Schur to power sums), on coefficients scaled
to integers.  One exact division at the end restores the rationals.  The
character values come from `character_table(n)`, one table per degree built
by the Murnaghan-Nakayama rule on an abacus; the tables, the integer rows
read from them and the single values of `character_value` are memoized
globally.  The one-row Schur functions h_m have a closed form in power sums,
`complete(m)`, which needs no table.

Plethysm twists the grading variable: p_a composed with q^k p_mu gives
q^(a*k) p_(a*mu), while q-coefficients of the outer operand pass through
untouched (the same convention the Kronecker product uses).
"""

from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod

from .partitions import (
    centralizer_order,
    check_partition,
    irrep_dimension,
    partitions_of,
    split_factor,
    union,
)
from .qpoly import QPoly

POWERSUM = "powersum"
SCHUR = "schur"


@cache
def _partition_index(n: int) -> dict:
    """Position of each partition of n in `partitions_of(n)`."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


@cache
def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The character table of S_n: entry [i][j] is chi^lam(mu) for
    lam = partitions_of(n)[i] and mu = partitions_of(n)[j].

    Column mu is the Schur expansion of p_mu = p_(mu_1) p_(mu_2, ...), built
    by the Murnaghan-Nakayama rule on an n-bead abacus.  A partition of size
    at most n is the bitmask of its beta-numbers lam_i + n - 1 - i (i < n,
    lam padded with zeros); multiplying s_lam by p_a adds a border strip of a
    cells, which moves one bead from b up to an empty b + a, with sign
    (-1)^(beads passed).  The expansions of the suffixes (mu_2, ...) are
    shared between columns.
    """
    parts = partitions_of(n)
    position = {}
    for i, lam in enumerate(parts):
        padded = lam + (0,) * (n - len(lam))
        position[sum(1 << (a + n - 1 - j) for j, a in enumerate(padded))] = i
    expansions = {(): {(1 << n) - 1: 1}}

    def expansion(mu):
        out = expansions.get(mu)
        if out is not None:
            return out
        a = mu[0]
        between = (1 << (a - 1)) - 1
        out = {}
        for mask, c in expansion(mu[1:]).items():
            beads = mask & ~(mask >> a)  # the beads whose target b + a is empty
            while beads:
                bead = beads & -beads
                beads ^= bead
                moved = mask ^ bead ^ (bead << a)
                passed = (mask >> bead.bit_length() & between).bit_count()
                v = out.get(moved, 0) + (-c if passed & 1 else c)
                if v:
                    out[moved] = v
                else:
                    del out[moved]
        expansions[mu] = out
        return out

    table = [[0] * len(parts) for _ in parts]
    for j, mu in enumerate(parts):
        for mask, c in expansion(mu).items():
            table[position[mask]][j] = c
    return tuple(map(tuple, table))


@cache
def character_value(lam, mu) -> int:
    """Symmetric-group character chi^lam at cycle type mu, read off `character_table`."""
    n = sum(lam)
    if n != sum(mu):
        raise ValueError("character requires |lam| == |mu|")
    index = _partition_index(n)
    return character_table(n)[index[lam]][index[mu]]


@cache
def _schur_row(mu):
    """p_mu on the Schur basis: pairs (i, chi^lam(mu)) for lam = partitions_of(|mu|)[i]."""
    n = sum(mu)
    j = _partition_index(n)[mu]
    return tuple((i, row[j]) for i, row in enumerate(character_table(n)) if row[j])


@cache
def _powersum_row(lam):
    """n! s_lam on the power sums: pairs (i, (n!/z_mu) chi^lam(mu)) for mu = partitions_of(n)[i]."""
    n = sum(lam)
    row = character_table(n)[_partition_index(n)[lam]]
    return tuple(
        (i, factorial(n) // centralizer_order(mu) * chi)
        for i, (mu, chi) in enumerate(zip(partitions_of(n), row))
        if chi
    )


def change_basis(terms: dict, target: str, degrees: tuple[int, ...]) -> dict:
    """Rewrite {legs: QPoly} in the `target` basis, one leg at a time.

    Keys are tuples holding one partition per leg, of the sizes in `degrees`.
    The integer numerators are brought over the lcm of the QPoly denominators
    and packed into one integer per QPoly by substituting q = 2^bits.  Each
    leg is then one integer product with its row table; the Schur ->
    power-sum rows carry the class sizes n!/z_mu, so the only division, by
    the scale and by the product of the leg factorials, comes at the end, and
    a remainder there leaves a non-integer coefficient.
    """
    row = _schur_row if target == SCHUR else _powersum_row
    divisor = 1 if target == SCHUR else prod(factorial(d) for d in degrees)
    polys = [c for c in terms.values() if c]
    if not polys:
        return {}
    scale = lcm(*(c._d for c in polys))
    divisor *= scale
    height = max(max(map(abs, c._c.values())) * (scale // c._d) for c in polys)
    # |chi^lam(mu)| and n!/z_mu are at most n!, so every output coefficient is
    # below `bound` in absolute value and its base-2^bits digit cannot carry.
    bound = sum(len(c._c) for c in polys) * height * prod(factorial(d) ** 2 for d in degrees)
    bits = bound.bit_length() + 1
    packed = {key: c.pack(scale, bits) for key, c in terms.items()}
    for leg, degree in enumerate(degrees):
        if not degree:
            continue
        parts = partitions_of(degree)
        groups: dict[tuple, list] = {}
        for key, x in packed.items():
            groups.setdefault(key[:leg] + key[leg + 1 :], []).append((key[leg], x))
        packed = {}
        for rest, column in groups.items():
            acc = [0] * len(parts)
            for lam, x in column:
                for i, w in row(lam):
                    acc[i] += w * x
            for i, x in enumerate(acc):
                if x:
                    packed[rest[:leg] + (parts[i],) + rest[leg:]] = x
    return {key: QPoly.unpack(x, bits, divisor) for key, x in packed.items()}


def pleth_leg(terms: dict, leg: int, inner: "SymFunc") -> dict:
    """Plethysm with `inner` applied to position `leg` of every key of {legs: QPoly}.

    Indices of the inner operand are stretched along with its q-powers
    (p_a o q^k p_mu = q^(ak) p_(a mu)); the outer coefficients are inert.
    """
    g = inner.to_powersum()
    power_cache: dict[int, dict] = {}
    out: dict[tuple, QPoly] = {}
    for key, c in terms.items():
        running = None
        for a in key[leg]:
            pa = power_cache.get(a)
            if pa is None:
                pa = {
                    tuple(x * a for x in mu): qc.stretch(a)
                    for mu, qc in g.terms.items()
                }
                power_cache[a] = pa
            if running is None:
                running = pa
                continue
            nxt: dict[tuple[int, ...], QPoly] = {}
            for k1, c1 in running.items():
                for k2, c2 in pa.items():
                    _acc(nxt, union(k1, k2), c1 * c2)
            running = nxt
        if running is None:  # the empty leg: p_() o g = 1
            running = {(): QPoly(1)}
        head, tail = key[:leg], key[leg + 1 :]
        for nu, qc in running.items():
            _acc(out, head + (nu,) + tail, qc * c)
    return out


def _acc(terms: dict, key, value: QPoly) -> None:
    s = terms.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


class SymFunc:
    """A homogeneous symmetric function over Q[q] in a fixed basis."""

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: str, degree: int, terms=()):
        if basis not in (POWERSUM, SCHUR):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.degree = int(degree)
        clean: dict[tuple[int, ...], QPoly] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for lam, c in items:
            lam = tuple(lam)
            if sum(lam) != self.degree:
                raise ValueError(f"term {lam} breaks homogeneity of degree {self.degree}")
            qc = c if isinstance(c, QPoly) else QPoly(c)
            if qc.is_zero():
                continue
            _acc(clean, lam, qc)
        self.terms = clean

    @classmethod
    def zero(cls, degree: int, basis: str = POWERSUM) -> "SymFunc":
        return cls(basis, degree, {})

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, lam) -> QPoly:
        return self.terms.get(tuple(lam), QPoly(0))

    def support(self):
        """Partitions with nonzero coefficient, largest first under compare."""
        from .partitions import sort_key

        return sorted(self.terms, key=sort_key, reverse=True)

    # -- ring structure -------------------------------------------------

    def __add__(self, other: "SymFunc") -> "SymFunc":
        if not isinstance(other, SymFunc):
            return NotImplemented
        if other.basis != self.basis:
            raise ValueError("cannot add across bases; convert first")
        if other.degree != self.degree:
            raise ValueError("cannot add inhomogeneous degrees")
        out = dict(self.terms)
        for lam, c in other.terms.items():
            _acc(out, lam, c)
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree, res.terms = self.basis, self.degree, out
        return res

    def __neg__(self) -> "SymFunc":
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree = self.basis, self.degree
        res.terms = {lam: -c for lam, c in self.terms.items()}
        return res

    def __sub__(self, other: "SymFunc") -> "SymFunc":
        return self + (-other)

    def scale(self, c) -> "SymFunc":
        qc = c if isinstance(c, QPoly) else QPoly(c)
        out = {}
        for lam, v in self.terms.items():
            s = v * qc
            if not s.is_zero():
                out[lam] = s
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree, res.terms = self.basis, self.degree, out
        return res

    def __mul__(self, other):
        """Ordinary product in the ring of symmetric functions; scalars scale."""
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        if not isinstance(other, SymFunc):
            return NotImplemented
        f, g = self.to_powersum(), other.to_powersum()
        out: dict[tuple[int, ...], QPoly] = {}
        for lam, c in f.terms.items():
            for mu, d in g.terms.items():
                _acc(out, union(lam, mu), c * d)
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree, res.terms = POWERSUM, f.degree + g.degree, out
        return res

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymFunc):
            return NotImplemented
        if self.degree != other.degree:
            return False
        if self.basis == other.basis:
            return self.terms == other.terms
        return self.to_powersum().terms == other.to_powersum().terms

    def __hash__(self):
        p = self.to_powersum()
        return hash((p.degree, frozenset(p.terms.items())))

    # -- basis changes ---------------------------------------------------

    def _convert(self, target: str) -> "SymFunc":
        if self.basis == target:
            return self
        out = change_basis({(lam,): c for lam, c in self.terms.items()}, target, (self.degree,))
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree = target, self.degree
        res.terms = {key[0]: c for key, c in out.items()}
        return res

    def to_powersum(self) -> "SymFunc":
        return self._convert(POWERSUM)

    def to_schur(self) -> "SymFunc":
        return self._convert(SCHUR)

    # -- the three extra operations --------------------------------------

    def kron(self, other: "SymFunc") -> "SymFunc":
        """Kronecker (internal tensor) product; diagonal on power sums."""
        f, g = self.to_powersum(), other.to_powersum()
        if f.degree != g.degree:
            raise ValueError("Kronecker product needs equal degrees")
        out = {}
        for lam, c in f.terms.items():
            d = g.terms.get(lam)
            if d is not None:
                out[lam] = c * d * centralizer_order(lam)
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree, res.terms = POWERSUM, f.degree, out
        return res

    def pleth(self, inner: "SymFunc") -> "SymFunc":
        """Plethysm self o inner.

        Indices of the inner operand are stretched along with its q-powers
        (p_a o q^k p_mu = q^(ak) p_(a mu)); outer q-coefficients are inert.
        """
        f = self.to_powersum()
        out = pleth_leg({(lam,): c for lam, c in f.terms.items()}, 0, inner)
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree = POWERSUM, f.degree * inner.degree
        res.terms = {key[0]: c for key, c in out.items()}
        return res

    def pderiv(self, lam) -> "SymFunc":
        """Normalized partial derivative: (prod_i 1/m_i!) d/dp_lam, on monomials
        a marked removal of the sub-multiset lam.  Returns a power-sum result."""
        lam = check_partition(lam) if lam else ()
        f = self.to_powersum()
        out: dict[tuple[int, ...], QPoly] = {}
        for mu, c in f.terms.items():
            hit = split_factor(mu, lam)
            if hit is None:
                continue
            rest, count = hit
            _acc(out, rest, c * count)
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree, res.terms = POWERSUM, f.degree - sum(lam), out
        return res

    # -- specializations ---------------------------------------------------

    def q_coefficient(self, i: int) -> "SymFunc":
        """The coefficient of q^i, a symmetric function with constant coefficients."""
        out = {}
        for lam, c in self.terms.items():
            v = c.coeff(i)
            if v:
                out[lam] = QPoly(v)
        return SymFunc(self.basis, self.degree, out)

    def dimension_poly(self) -> QPoly:
        """Specialize each basis element to the dimension of its module.

        On the Schur side this is the hook-length dimension; on the power-sum
        side only p_(1^n) survives, with weight n!.  Both give the graded
        dimension of the underlying representation.
        """
        if self.degree == 0:
            return self.terms.get((), QPoly(0))
        if self.basis == SCHUR:
            total = QPoly(0)
            for lam, c in self.terms.items():
                total = total + c * irrep_dimension(lam)
            return total
        ones = self.terms.get((1,) * self.degree)
        if ones is None:
            return QPoly(0)
        return ones * factorial(self.degree)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        from .partitions import sort_key

        fs = self.to_schur()
        order = sorted(fs.terms, key=sort_key, reverse=True)
        return {
            "basis": SCHUR,
            "degree": fs.degree,
            "terms": [
                {"part": list(lam), "coeff": fs.terms[lam].to_json_dict()}
                for lam in order
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "SymFunc":
        terms = {
            check_partition(t["part"]): QPoly.from_json_dict(t["coeff"])
            for t in data["terms"]
        }
        return cls(data["basis"], data["degree"], terms)

    def __str__(self) -> str:
        from .render import symfunc_text

        return symfunc_text(self)

    def __repr__(self) -> str:
        return f"SymFunc({self.basis}, deg={self.degree}, {len(self.terms)} terms)"


def powersum(lam, coeff=1) -> SymFunc:
    lam = check_partition(lam)
    return SymFunc(POWERSUM, sum(lam), {lam: coeff})


def schur(lam, coeff=1) -> SymFunc:
    lam = check_partition(lam)
    return SymFunc(SCHUR, sum(lam), {lam: coeff})


def one() -> SymFunc:
    """The unit of the ring: the empty partition in degree 0."""
    return SymFunc(POWERSUM, 0, {(): 1})


@cache
def complete(m: int) -> SymFunc:
    """The one-row Schur function h_m = s_(m) in power sums, in closed form:
    h_m = sum over mu of m of p_mu / z_mu (Macdonald I.2), so no character
    table is built.  The value is shared; do not mutate its terms."""
    res = SymFunc.__new__(SymFunc)
    res.basis, res.degree = POWERSUM, m
    res.terms = {
        mu: QPoly.from_numerators({0: 1}, centralizer_order(mu)) for mu in partitions_of(m)
    }
    return res
