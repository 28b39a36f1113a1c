"""Independent cross-checks for the symmetric-function kernel and the recursion.

Two deliberately different computation paths live here: expansion into an
honest polynomial in finitely many variables (faithful once the variable
count reaches the degree), and the Jacobi-Trudi determinant fed by Newton's
identities.  Neither shares code with the Murnaghan-Nakayama kernel,
`QPoly.pack` or `change_basis`: the exact integer arithmetic below is the
oracles' own.

A `MonomialPoly` packs each exponent vector into one int (Kronecker
substitution: variable i owns the bits from i * 16 up), so multiplying two
monomials is one integer addition and raising a monomial to the a-th power
is a multiplication of its key by a.  Its coefficients are int numerators
over one positive denominator, in lowest terms.  The constructor rejects an
exponent that does not fit a slot, and a product checks that the two total
degrees do, so an exponent never carries into the next variable.

`expand` and `oracle_plethysm` compute on dominant monomials: a symmetric
polynomial of degree d is one int numerator per partition gam of d (the
coefficient of x^gam) over one denominator.  A product reads
[x^gam](P Q) = sum P[sort b] Q[sort(gam - b)] over the vectors 0 <= b <= gam
with |b| = deg P, grouped once per (gam, deg P) into the structure constants
of m_alpha m_beta.  The table of gam is assembled from the tables of its
suffix gam[1:], with gam[0] split between alpha and beta, so no vector b is
walked.  p_a is m_(a), and p_a of the alphabet of g's monomials sends x^gam
to x^(a gam).  The products p_lam[g] are memoized once per inner operand
g, keyed by its degree and dominant numerators (`_products`), so every call
with the same g shares them; `expand` reads the entry of g = p_1.  The
results are compared on dominant coefficients and expanded when read: the
`MonomialPoly` they return holds the numerators per partition, and reading
`terms` or `_c`, or doing arithmetic other than a product, expands it to
all monomials in nvars variables, once.  Two such values are equal iff
their nvars, denominators and dominant numerators are: with nvars >= deg
every partition of deg is the sorted form of some monomial, the orbits are
disjoint, and each monomial carries its orbit's numerator, so the expansion
is injective.  For the same reason a product of two such values in
nvars >= deg variables multiplies their dominant numerators and stays
symmetric; any other product expands both.

The Jacobi-Trudi oracle takes the shorter of det(h_(lam_i - i + j)), with
len(lam) rows, and its dual det(e_(lam'_i - i + j)), with lam_1 rows, and
expands it row by row over integer numerators on the common denominator n!.

Two integer formulas check the recursion's Betti numbers at sizes the golden
table does not reach: Keel's recursion for the full space, and the Eulerian
numbers for the Losev-Manin chamber E(n, 2, n-2).
"""

from collections.abc import Mapping
from fractions import Fraction
from functools import cache
from math import comb, factorial, gcd, lcm, perm
from types import MappingProxyType

from .partitions import check_partition, conjugate, partitions_of
from .qpoly import QPoly
from .symfunc import POWERSUM, SymFunc

_BITS = 16
_MASK = (1 << _BITS) - 1


def _make(nvars: int, c: dict, d: int, deg: int) -> "MonomialPoly":
    """The MonomialPoly c / d for packed keys with int numerators c (no zeros)
    and d > 0, reduced; deg bounds the total degree of every monomial."""
    if not c:
        d, deg = 1, 0
    elif d != 1:
        g = gcd(d, *c.values())
        if g != 1:
            d //= g
            c = {k: v // g for k, v in c.items()}
    res = MonomialPoly.__new__(MonomialPoly)
    res.nvars, res.deg, res._monomials, res._d, res._dom = nvars, deg, c, d, None
    return res


class MonomialPoly:
    """Polynomial in a fixed number of variables with rational coefficients:
    packed exponent key -> int numerator, over one positive denominator.

    A symmetric value from `expand` or `oracle_plethysm` holds only its
    dominant numerators {partition: v} until `_c` is first read."""

    MAX_EXPONENT = _MASK
    __slots__ = ("nvars", "deg", "_monomials", "_d", "_dom")

    def __init__(self, nvars: int, terms=()):
        self.nvars = int(nvars)
        fracs: dict[int, Fraction] = {}
        deg = 0
        items = terms.items() if isinstance(terms, Mapping) else terms
        for vec, c in items:
            vec = tuple(vec)
            if len(vec) != self.nvars:
                raise ValueError("exponent vector length must equal nvars")
            key = 0
            for i, e in enumerate(vec):
                if not 0 <= e <= _MASK:
                    raise ValueError(f"exponent {e} is outside 0..{_MASK}")
                key |= e << (i * _BITS)
            c = Fraction(c)
            if c:
                fracs[key] = fracs.get(key, 0) + c
                deg = max(deg, sum(vec))
        fracs = {k: v for k, v in fracs.items() if v}
        # The lcm of reduced denominators leaves the numerators coprime to it.
        d = lcm(*(v.denominator for v in fracs.values()))
        self._monomials = {k: v.numerator * (d // v.denominator) for k, v in fracs.items()}
        self._d = d
        self.deg = deg if fracs else 0
        self._dom = None

    @classmethod
    def constant(cls, nvars: int, c) -> "MonomialPoly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def power_sum(cls, nvars: int, k: int) -> "MonomialPoly":
        out = {}
        for i in range(nvars):
            vec = [0] * nvars
            vec[i] = k
            out[tuple(vec)] = 1
        return cls(nvars, out)

    @property
    def _c(self) -> dict:
        """Packed exponent key -> int numerator; a symmetric value builds it
        on first read, each monomial carrying its dominant one's numerator."""
        if self._monomials is None:
            orbits = _orbits(self.nvars, self.deg)
            self._monomials = {key: v for gam, v in self._dom.items() for key in orbits[gam]}
        return self._monomials

    @property
    def terms(self) -> MappingProxyType:
        """Read-only view: exponent vector -> Fraction coefficient."""
        shifts = range(0, self.nvars * _BITS, _BITS)
        return MappingProxyType({
            tuple((k >> s) & _MASK for s in shifts): Fraction(v, self._d)
            for k, v in self._c.items()
        })

    def is_zero(self) -> bool:
        return not self._c

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialPoly):
            return NotImplemented
        if self.nvars != other.nvars or self._d != other._d:
            return False
        # Each orbit is non-empty (nvars >= deg) and the orbits are disjoint,
        # so two symmetric values are equal iff their dominant numerators are.
        if self._dom is not None and other._dom is not None:
            return self._dom == other._dom
        return self._c == other._c

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        d = lcm(self._d, other._d)
        s1, s2 = d // self._d, d // other._d
        out = {k: v * s1 for k, v in self._c.items()}
        for k, v in other._c.items():
            s = out.get(k, 0) + v * s2
            if s:
                out[k] = s
            else:
                del out[k]
        return _make(self.nvars, out, d, max(self.deg, other.deg))

    def scale(self, c) -> "MonomialPoly":
        c = Fraction(c)
        out = {k: v * c.numerator for k, v in self._c.items()} if c else {}
        return _make(self.nvars, out, self._d * c.denominator, self.deg)

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        deg = self.deg + other.deg
        if deg > _MASK:
            raise ValueError(f"total degree {deg} does not fit an exponent slot")
        if self._dom is not None and other._dom is not None and self.nvars >= deg:
            num = _mul(self._dom, self.deg, other._dom, other.deg)
            return _symmetric(self.nvars, deg, *_reduced(num, self._d * other._d))
        out: dict[int, int] = {}
        get = out.get
        right = other._c.items()
        for k1, c1 in self._c.items():
            for k2, c2 in right:
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
        return _make(self.nvars, {k: v for k, v in out.items() if v}, self._d * other._d, deg)

    def adams(self, a: int) -> "MonomialPoly":
        """Substitute x_i -> x_i^a.  On the expansion of a monomial-positive g,
        read as an alphabet of monomials, this is p_a of that alphabet."""
        deg = self.deg * a
        if deg > _MASK:
            raise ValueError(f"total degree {deg} does not fit an exponent slot")
        return _make(self.nvars, {k * a: v for k, v in self._c.items()}, self._d, deg)

    def __repr__(self) -> str:
        return f"MonomialPoly(nvars={self.nvars}, {len(self._c)} terms)"


def _check_room(nvars: int, deg: int) -> None:
    if nvars < deg:
        raise ValueError(f"need at least {deg} variables to stay faithful")
    if deg > _MASK:
        raise ValueError(f"total degree {deg} does not fit an exponent slot")


@cache
def _with(lam: tuple[int, ...], x: int) -> tuple[int, ...]:
    """The partition lam with the part x inserted; x = 0 leaves lam."""
    return tuple(sorted(lam + (x,), reverse=True)) if x else lam


@cache
def _splits(gam: tuple[int, ...], e: int) -> dict:
    """alpha -> ((beta, n), ...): n vectors 0 <= b <= gam with |b| = e sort
    to alpha while gam - b sorts to beta, so n = [m_gam](m_alpha m_beta).

    Built from the table of the suffix gam[1:]: a vector with b_0 = x is one
    of its vectors with x put into alpha and gam[0] - x into beta."""
    if not gam:
        return {(): (((), 1),)}
    g, rest = gam[0], gam[1:]
    found: dict = {}
    for x in range(max(0, e - sum(rest)), min(g, e) + 1):
        for alpha, pairs in _splits(rest, e - x).items():
            row = found.setdefault(_with(alpha, x), {})
            for beta, n in pairs:
                beta = _with(beta, g - x)
                row[beta] = row.get(beta, 0) + n
    return {alpha: tuple(row.items()) for alpha, row in found.items()}


def _mul(p: dict, dp: int, q: dict, dq: int) -> dict:
    """Product of symmetric polynomials of degrees dp and dq, on dominant monomials."""
    out = {}
    for gam in partitions_of(dp + dq):
        splits = _splits(gam, dp)
        s = sum(n * x * q.get(beta, 0)
                for alpha, x in p.items() for beta, n in splits.get(alpha, ()))
        if s:
            out[gam] = s
    return out


@cache
def _products(dg: int, gm: tuple):
    """The memoized map lam -> prod over a in lam of p_a[g], on dominant
    monomials, for g of degree dg with int numerators on dominant monomials,
    given as sorted (partition, v) pairs.  There is one map per inner
    operand, so its products are shared by suffix and across calls."""
    products = {(): {(): 1}}

    def product(lam):
        if lam not in products:
            a = lam[0]
            pa = {tuple(a * x for x in gam): v for gam, v in gm}
            products[lam] = _mul(pa, a * dg, product(lam[1:]), dg * (sum(lam) - a))
        return products[lam]

    return product


# p_lam on dominant monomials: the products of g = p_1.
_power_product = _products(1, (((1,), 1),))


def _dominant(fp: SymFunc, product) -> tuple[dict, int]:
    """The sum of c * product(lam) over the terms c p_lam of fp, as int
    numerators on dominant monomials over one denominator, in lowest terms.
    Each q-free c is its constant numerator over its denominator, and each
    product(lam) has int coefficients, so the lcm of the c's denominators is
    a common denominator."""
    terms = fp.terms
    if any(c.degree > 0 for c in terms.values()):
        raise ValueError("monomial expansion is defined for q-free input only")
    d = lcm(*(c._d for c in terms.values()))
    num: dict = {}
    for lam, c in terms.items():
        s = c._c.get(0, 0) * (d // c._d)
        for gam, v in product(lam).items():
            num[gam] = num.get(gam, 0) + s * v
    return _reduced(num, d)


def _reduced(num: dict, d: int) -> tuple[dict, int]:
    """The int numerators num over d > 0 in lowest terms, zeros dropped."""
    g = gcd(d, *num.values())
    return {gam: v // g for gam, v in num.items() if v}, d // g


@cache
def _orbits(nvars: int, deg: int) -> dict:
    """Every packed exponent vector of degree deg in nvars >= deg variables,
    grouped by the partition it sorts to.  The keys for variables i.. holding
    a given multiset of exponents are made once, for every partition."""
    memo: dict = {}

    def keys(i: int, counts: tuple) -> list:  # counts[v]: variables i.. holding v
        if i == nvars:
            return [0]
        if (i, counts) not in memo:
            got = []
            for v, m in enumerate(counts):
                if m:
                    rest = keys(i + 1, counts[:v] + (m - 1,) + counts[v + 1:])
                    got += [(v << i * _BITS) + k for k in rest]
            memo[i, counts] = got
        return memo[i, counts]

    out = {}
    for gam in partitions_of(deg):
        counts = [nvars - len(gam)] + [0] * deg
        for v in gam:
            counts[v] += 1
        out[gam] = tuple(keys(0, tuple(counts)))
    return out


def _symmetric(nvars: int, deg: int, num: dict, d: int) -> MonomialPoly:
    """The symmetric MonomialPoly with the dominant numerators num over d, in
    lowest terms, in nvars >= deg variables; its monomials wait for `_c`."""
    res = MonomialPoly.__new__(MonomialPoly)
    res.nvars, res.deg, res._monomials, res._d, res._dom = nvars, deg if num else 0, None, d, num
    return res


def expand(f: SymFunc, nvars: int) -> MonomialPoly:
    """Evaluate a q-free symmetric function in nvars variables via
    p_k -> sum x_i^k.  The result is compared on its dominant coefficients
    and expanded to all monomials when read."""
    fp = f.to_powersum()
    _check_room(nvars, fp.degree)
    return _symmetric(nvars, fp.degree, *_dominant(fp, _power_product))


def oracle_plethysm(f: SymFunc, g: SymFunc, nvars: int) -> MonomialPoly:
    """Plethysm by brute substitution: the monomials of g become the alphabet of f.

    g must expand with non-negative integer coefficients.  The result lives
    in nvars >= deg(f) * deg(g) variables, so it can be compared directly
    against expand(f.pleth(g), nvars); the two compare on their dominant
    coefficients, and each is expanded to all monomials only when read.
    """
    dg, deg = g.degree, f.degree * g.degree
    _check_room(nvars, max(dg, deg))
    gm, d = _dominant(g.to_powersum(), _power_product)
    if d != 1 or any(v < 0 for v in gm.values()):
        raise ValueError("the inner operand must be monomial-positive")
    product = _products(dg, tuple(sorted(gm.items())))
    return _symmetric(nvars, deg, *_dominant(f.to_powersum(), product))


@cache
def _newton(k: int, sign: int) -> dict[tuple[int, ...], int]:
    """k! h_k (sign 1) or k! e_k (sign -1) on the power sums, by Newton's
    identities k h_k = sum p_i h_(k-i) and k e_k = sum (-1)^(i-1) p_i e_(k-i),
    which over these integers read
    k! h_k = sum (k-1)!/(k-i)! p_i (k-i)! h_(k-i), and alike for e_k."""
    if k == 0:
        return {(): 1}
    out: dict[tuple[int, ...], int] = {}
    for i in range(1, k + 1):
        f = perm(k - 1, i - 1) * sign ** (i - 1)
        for mu, c in _newton(k - i, sign).items():
            key = tuple(sorted(mu + (i,), reverse=True))
            out[key] = out.get(key, 0) + f * c
    return out


@cache
def _times_newton(mu: tuple[int, ...], m: int, sign: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """p_mu times `_newton(m, sign)`, as pairs (partition, integer
    coefficient): each merged key is sorted once per (mu, m, sign), not once
    per determinant term."""
    return tuple((tuple(sorted(mu + nu, reverse=True)), c) for nu, c in _newton(m, sign).items())


def jacobi_trudi_to_powersum(lam) -> SymFunc:
    """s_lam as a Jacobi-Trudi determinant, expanded on power sums: the
    shorter of det(h_(lam_i - i + j)), with len(lam) rows, and its dual
    det(e_(lam'_i - i + j)) over the conjugate lam' (Macdonald I.(3.5)),
    with lam_1 rows.

    The determinant is expanded row by row from the bottom up, skipping each
    column whose entry has a negative index (a zero).  The rows above allow
    ever more columns, so in this order every partial choice extends to a
    full term of the determinant.  A product of m_i! h_(m_i) (or of
    m_i! e_(m_i)) with sum m_i = n is an integer combination of power sums,
    and prod m_i! divides n!, so the sum is kept as integer numerators over
    n!.
    """
    lam = check_partition(lam) if lam else ()
    n, sign = sum(lam), 1
    if lam and lam[0] < len(lam):
        lam, sign = conjugate(lam), -1
    ell, nf = len(lam), factorial(n)
    acc: dict[tuple[int, ...], int] = {}

    def rows(i: int, used: int, parity: int, den: int, prod: dict) -> None:
        if i < 0:
            scale = parity * (nf // den)
            for mu, c in prod.items():
                acc[mu] = acc.get(mu, 0) + scale * c
            return
        for j in range(max(0, i - lam[i]), ell):
            if used >> j & 1:
                continue
            m = lam[i] - i + j
            nxt: dict[tuple[int, ...], int] = {}
            for mu1, c1 in prod.items():
                for key, c2 in _times_newton(mu1, m, sign):
                    nxt[key] = nxt.get(key, 0) + c1 * c2
            # each used column left of j belongs to a lower row: one inversion
            flip = (used & ((1 << j) - 1)).bit_count() & 1
            rows(i - 1, used | 1 << j, -parity if flip else parity, den * factorial(m), nxt)

    rows(ell - 1, 0, 1, 1, {(): 1})
    # the keys come out of `sorted` as partitions of n
    return SymFunc._raw(POWERSUM, n, {
        mu: QPoly.from_numerators({0: c}, nf) for mu, c in acc.items() if c
    })


@cache
def keel_betti(n: int) -> tuple[int, ...]:
    """Betti numbers of the space of stable n-pointed rational curves, by
    Keel's recursion (Keel 1992, Trans. AMS 330):

        P_3 = 1,
        P_(m+1) = (1 + q) P_m + (q/2) sum_(i=2..m-2) C(m, i) P_(i+1) P_(m-i+1).
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if n == 3:
        return (1,)
    m = n - 1
    prev = keel_betti(m)
    out = [0] * (n - 2)
    for j, b in enumerate(prev):
        out[j] += b
        out[j + 1] += b
    twice = [0] * (n - 4)
    for i in range(2, m - 1):
        left, right = keel_betti(i + 1), keel_betti(m - i + 1)
        for a, x in enumerate(left):
            for b, y in enumerate(right):
                twice[a + b] += comb(m, i) * x * y
    # the sum is even: its terms pair up under i <-> m-i, and C(m, m/2) is even
    for j, t in enumerate(twice):
        out[j + 1] += t // 2
    return tuple(out)


def eulerian_numbers(m: int) -> tuple[int, ...]:
    """A(m, j) for j = 0..m-1, the permutations of m letters with j descents:
    A(m, j) = sum_(i=0..j) (-1)^i C(m+1, i) (j+1-i)^m.  They are the Betti
    numbers of the Losev-Manin space on m light points (Losev-Manin 2000)."""
    if m < 1:
        raise ValueError("need m >= 1")
    return tuple(
        sum((-1) ** i * comb(m + 1, i) * (j + 1 - i) ** m for i in range(j + 1))
        for j in range(m)
    )
