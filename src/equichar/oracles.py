"""Independent cross-checks for the symmetric-function kernel and the recursion.

Two deliberately different computation paths live here: expansion into an
honest polynomial in finitely many variables, and the Jacobi-Trudi
determinant fed by Newton's identities.  Neither shares code with the
Murnaghan-Nakayama kernel, `QPoly.pack` or `change_basis`: the exact integer
arithmetic below is the oracles' own.

`expand` and `oracle_plethysm` return a `SymmetricPoly`: a symmetric
polynomial of degree deg in nvars >= deg variables, held as one int
numerator per partition gam of deg (the coefficient of the dominant monomial
x^gam) over one positive denominator, in lowest terms.  No other monomial is
ever built.  Comparing these numerators is faithful: with nvars >= deg every
partition of deg is the sorted form of some monomial, the orbits of
different partitions are disjoint, and a symmetric polynomial carries its
orbit's coefficient on every monomial, so two values are equal iff their
nvars, denominators and dominant numerators are.

A product reads [x^gam](P Q) = sum P[sort b] Q[sort(gam - b)] over the
vectors 0 <= b <= gam with |b| = deg P, grouped once per (gam, deg P) into
the structure constants of m_alpha m_beta.  The table of gam is assembled
from the tables of its suffix gam[1:], with gam[0] split between alpha and
beta, so no vector b is walked.  A product needs as many variables as its
degree.  p_a is m_(a), and p_a of the alphabet of g's monomials sends x^gam
to x^(a gam).  The products p_lam[g] are memoized once per inner operand g,
keyed by its degree and dominant numerators (`_products`), so every call
with the same g shares them; `expand` reads the entry of g = p_1.

The Jacobi-Trudi oracle takes the shorter of det(h_(lam_i - i + j)), with
len(lam) rows, and its dual det(e_(lam'_i - i + j)), with lam_1 rows, and
expands it row by row over integer numerators on the common denominator n!.

Two integer formulas check the recursion's Betti numbers at sizes the golden
table does not reach: Keel's recursion for the full space, and the Eulerian
numbers for the Losev-Manin chamber E(n, 2, n-2).
"""

from functools import cache
from math import comb, factorial, gcd, lcm, perm

from .partitions import check_partition, conjugate, partitions_of
from .qpoly import QPoly
from .symfunc import POWERSUM, SymFunc


class SymmetricPoly:
    """A symmetric polynomial of degree deg in nvars >= deg variables with
    rational coefficients: the int numerators {partition of deg: v} of its
    dominant monomials over one positive denominator, in lowest terms."""

    __slots__ = ("nvars", "deg", "num", "den")

    def __init__(self, nvars: int, deg: int, num: dict, den: int):
        self.nvars, self.deg, self.num, self.den = nvars, deg if num else 0, num, den

    def __eq__(self, other) -> bool:
        if not isinstance(other, SymmetricPoly):
            return NotImplemented
        return (self.nvars, self.den, self.num) == (other.nvars, other.den, other.num)

    def __mul__(self, other: "SymmetricPoly") -> "SymmetricPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        deg = self.deg + other.deg
        _check_room(self.nvars, deg)
        num = _mul(self.num, self.deg, other.num, other.deg)
        return SymmetricPoly(self.nvars, deg, *_reduced(num, self.den * other.den))

    def __repr__(self) -> str:
        return f"SymmetricPoly(nvars={self.nvars}, deg={self.deg}, {len(self.num)} terms)"


def _check_room(nvars: int, deg: int) -> None:
    if nvars < deg:
        raise ValueError(f"need at least {deg} variables to stay faithful")


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
        return {(): (((), 1),)} if e == 0 else {}
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


def expand(f: SymFunc, nvars: int) -> SymmetricPoly:
    """Evaluate a q-free symmetric function in nvars >= deg f variables via
    p_k -> sum x_i^k."""
    fp = f.to_powersum()
    _check_room(nvars, fp.degree)
    return SymmetricPoly(nvars, fp.degree, *_dominant(fp, _power_product))


def oracle_plethysm(f: SymFunc, g: SymFunc, nvars: int) -> SymmetricPoly:
    """Plethysm by brute substitution: the monomials of g become the alphabet of f.

    g must expand with non-negative integer coefficients.  The result lives
    in nvars >= deg(f) * deg(g) variables, so it can be compared directly
    against expand(f.pleth(g), nvars).
    """
    dg, deg = g.degree, f.degree * g.degree
    _check_room(nvars, max(dg, deg))
    gm, d = _dominant(g.to_powersum(), _power_product)
    if d != 1 or any(v < 0 for v in gm.values()):
        raise ValueError("the inner operand must be monomial-positive")
    product = _products(dg, tuple(sorted(gm.items())))
    return SymmetricPoly(nvars, deg, *_dominant(f.to_powersum(), product))


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
