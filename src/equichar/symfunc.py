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
character values of S_n are held once per degree, in one flat `array('q')`
in column-major order (`_table`), memoized globally.  Column mu = (a, nu)
is built from column nu of the S_(n-a) table by adding border strips of a
cells on an abacus (the Murnaghan-Nakayama rule).  `change_basis` reads
the table in place: a column slice takes p_mu to Schur functions, a strided
row slice times the class sizes n!/z_mu takes s_lam to power sums.
`character_table` and `character_value` are views of the same store.  The
one-row Schur functions h_m have a closed form in power sums, `complete(m)`,
which needs no table.

Plethysm twists the grading variable: p_a composed with q^k p_mu gives
q^(a*k) p_(a*mu), while q-coefficients of the outer operand pass through
untouched (the same convention the Kronecker product uses).
"""

from array import array
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
def _table(n: int) -> array:
    """The character table of S_n, stored once: chi^lam_i(mu_j) at index
    j*P + i (column-major, P = p(n)), for lam_i and mu_j in `partitions_of(n)`.

    Column mu = (a, nu) is the Schur expansion of p_mu = p_a p_nu, built from
    column nu of the S_(n-a) table by the Murnaghan-Nakayama rule on an
    n-bead abacus.  A partition of size at most n is the bitmask of its
    beta-numbers lam_i + n - 1 - i (i < n, lam padded with zeros);
    multiplying s_kappa by p_a adds a border strip of a cells, which moves
    one bead from b up to an empty b + a, with sign (-1)^(beads passed).
    The strips added to one kappa of S_(n-a) are listed once per build.
    `array('q')` refuses a value outside 64-bit range with OverflowError
    instead of wrapping, so every stored character value is exact.
    """
    if not n:
        return array("q", [1])
    parts = partitions_of(n)
    position = {_beads(lam, n): i for i, lam in enumerate(parts)}
    strips: dict[tuple[int, int], tuple[list, list]] = {}

    def added(a, k):
        """Indices of the lam reached from partitions_of(n - a)[k] by one
        a-strip, split by sign."""
        out = strips.get((a, k))
        if out is None:
            mask = _beads(partitions_of(n - a)[k], n)
            between = (1 << (a - 1)) - 1
            out = ([], [])
            beads = mask & ~(mask >> a)  # the beads whose target b + a is empty
            while beads:
                bead = beads & -beads
                beads ^= bead
                passed = (mask >> bead.bit_length() & between).bit_count()
                out[passed & 1].append(position[mask ^ bead ^ (bead << a)])
            strips[a, k] = out
        return out

    table = array("q")
    for mu in parts:
        a, m = mu[0], n - mu[0]
        small, size = _table(m), len(partitions_of(m))
        j = _partition_index(m)[mu[1:]]
        column = [0] * len(parts)
        for k, c in enumerate(small[j * size : (j + 1) * size]):
            if c:
                plus, minus = added(a, k)
                for i in plus:
                    column[i] += c
                for i in minus:
                    column[i] -= c
        table.extend(column)
    return table


def _beads(lam, n: int) -> int:
    """The beta-numbers of lam on an n-bead abacus, as a bitmask."""
    return sum(1 << (a + n - 1 - i) for i, a in enumerate(lam + (0,) * (n - len(lam))))


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    """n!/z_mu for mu in `partitions_of(n)`."""
    return tuple(factorial(n) // centralizer_order(mu) for mu in partitions_of(n))


def character_table(n: int) -> tuple[tuple[int, ...], ...]:
    """The character table of S_n as rows: entry [i][j] is chi^lam(mu) for
    lam = partitions_of(n)[i] and mu = partitions_of(n)[j].  A copy, built
    on each call from the stored table."""
    table, size = _table(n), len(partitions_of(n))
    return tuple(tuple(table[i::size]) for i in range(size))


@cache
def character_value(lam, mu) -> int:
    """Symmetric-group character chi^lam at cycle type mu, read off the stored table."""
    n = sum(lam)
    if n != sum(mu):
        raise ValueError("character requires |lam| == |mu|")
    index = _partition_index(n)
    return _table(n)[index[mu] * len(index) + index[lam]]


def change_basis(terms: dict, target: str, degrees: tuple[int, ...]) -> dict:
    """Rewrite {legs: QPoly} in the `target` basis, one leg at a time.

    Keys are tuples holding one partition per leg, of the sizes in `degrees`.
    The integer numerators are brought over the lcm of the QPoly denominators
    and packed into one integer per QPoly by substituting q = 2^bits.  Each
    leg is then one integer product with the stored character table, read in
    place: p_mu to Schur is column mu, s_lam to power sums is row lam times
    the class sizes n!/z_mu.  The only division, by the scale and by the
    product of the leg factorials, comes at the end, and a remainder there
    leaves a non-integer coefficient.
    """
    to_schur = target == SCHUR
    divisor = 1 if to_schur else prod(factorial(d) for d in degrees)
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
        parts, index, table = partitions_of(degree), _partition_index(degree), _table(degree)
        size = len(parts)
        groups: dict[tuple, list] = {}
        for key, x in packed.items():
            groups.setdefault(key[:leg] + key[leg + 1 :], []).append((key[leg], x))
        packed = {}
        for rest, inputs in groups.items():
            acc = [0] * size
            for part, x in inputs:
                j = index[part]
                values = table[j * size : (j + 1) * size] if to_schur else table[j::size]
                for i, w in enumerate(values):
                    if w:
                        acc[i] += w * x
            if not to_schur:
                acc = [x * z for x, z in zip(acc, _class_sizes(degree))]
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
