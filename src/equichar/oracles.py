"""Independent cross-checks for the symmetric-function kernel and the recursion.

Two deliberately different computation paths live here: expansion into an
honest polynomial in finitely many variables (faithful once the variable
count reaches the degree), and the Jacobi-Trudi determinant fed by Newton's
identities.  Neither shares code with the Murnaghan-Nakayama kernel.

Two integer formulas check the recursion's Betti numbers at sizes the golden
table does not reach: Keel's recursion for the full space, and the Eulerian
numbers for the Losev-Manin chamber E(n, 2, n-2).
"""

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import comb

from .partitions import check_partition
from .qpoly import QPoly
from .symfunc import POWERSUM, SymFunc


class MonomialPoly:
    """Polynomial in a fixed number of variables, exponent vector -> rational."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=()):
        self.nvars = int(nvars)
        clean: dict[tuple[int, ...], Fraction] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for vec, c in items:
            vec = tuple(vec)
            if len(vec) != self.nvars:
                raise ValueError("exponent vector length must equal nvars")
            c = Fraction(c)
            if not c:
                continue
            s = clean.get(vec, Fraction(0)) + c
            if s:
                clean[vec] = s
            else:
                clean.pop(vec, None)
        self.terms = clean

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

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __add__(self, other: "MonomialPoly") -> "MonomialPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out = dict(self.terms)
        for vec, c in other.terms.items():
            s = out.get(vec, Fraction(0)) + c
            if s:
                out[vec] = s
            else:
                out.pop(vec, None)
        res = MonomialPoly.__new__(MonomialPoly)
        res.nvars, res.terms = self.nvars, out
        return res

    def scale(self, c) -> "MonomialPoly":
        c = Fraction(c)
        res = MonomialPoly.__new__(MonomialPoly)
        res.nvars = self.nvars
        res.terms = {vec: v * c for vec, v in self.terms.items()} if c else {}
        return res

    def __mul__(self, other: "MonomialPoly") -> "MonomialPoly":
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")
        out: dict[tuple[int, ...], Fraction] = {}
        for v1, c1 in self.terms.items():
            for v2, c2 in other.terms.items():
                vec = tuple(a + b for a, b in zip(v1, v2))
                s = out.get(vec, Fraction(0)) + c1 * c2
                if s:
                    out[vec] = s
                else:
                    out.pop(vec, None)
        res = MonomialPoly.__new__(MonomialPoly)
        res.nvars, res.terms = self.nvars, out
        return res

    def __repr__(self) -> str:
        return f"MonomialPoly(nvars={self.nvars}, {len(self.terms)} terms)"


def _constant_coeff(c: QPoly) -> Fraction:
    if c.degree > 0:
        raise ValueError("monomial expansion is defined for q-free input only")
    return c.coeff(0)


@cache
def _power_product(nvars: int, lam: tuple[int, ...]) -> MonomialPoly:
    """Product of power sums over a fixed variable count, shared by suffix."""
    if not lam:
        return MonomialPoly.constant(nvars, 1)
    return MonomialPoly.power_sum(nvars, lam[0]) * _power_product(nvars, lam[1:])


def expand(f: SymFunc, nvars: int) -> MonomialPoly:
    """Evaluate a q-free symmetric function in nvars variables via p_k -> sum x_i^k."""
    fp = f.to_powersum()
    if nvars < fp.degree:
        raise ValueError(f"need at least {fp.degree} variables to stay faithful")
    total = MonomialPoly(nvars)
    for lam, c in fp.terms.items():
        total = total + _power_product(nvars, lam).scale(_constant_coeff(c))
    return total


def oracle_plethysm(f: SymFunc, g: SymFunc, nvars: int) -> MonomialPoly:
    """Plethysm by brute substitution: the monomials of g become the alphabet of f.

    g must expand with non-negative integer coefficients.  The result lives in
    the same nvars variables, so it can be compared directly against
    expand(f.pleth(g), nvars) whenever nvars >= deg(f) * deg(g).
    """
    gm = expand(g, nvars)
    alphabet: list[tuple[int, ...]] = []
    for vec, c in gm.terms.items():
        if c.denominator != 1 or c < 0:
            raise ValueError("the inner operand must be monomial-positive")
        alphabet.extend([vec] * int(c))
    fp = f.to_powersum()
    total = MonomialPoly(nvars)
    for lam, c in fp.terms.items():
        prod = MonomialPoly.constant(nvars, 1)
        for a in lam:
            counts: dict[tuple[int, ...], int] = {}
            for vec in alphabet:
                key = tuple(e * a for e in vec)
                counts[key] = counts.get(key, 0) + 1
            prod = prod * MonomialPoly(nvars, counts)
        total = total + prod.scale(_constant_coeff(c))
    return total


@cache
def _complete_homogeneous(k: int) -> dict[tuple[int, ...], Fraction]:
    """h_k on the power sums through Newton's identity k h_k = sum p_i h_(k-i)."""
    if k == 0:
        return {(): Fraction(1)}
    out: dict[tuple[int, ...], Fraction] = {}
    for i in range(1, k + 1):
        for mu, c in _complete_homogeneous(k - i).items():
            key = tuple(sorted(mu + (i,), reverse=True))
            s = out.get(key, Fraction(0)) + c / k
            if s:
                out[key] = s
            else:
                out.pop(key, None)
    return out


def jacobi_trudi_to_powersum(lam) -> SymFunc:
    """s_lam as the determinant det(h_(lam_i - i + j)), expanded on power sums."""
    lam = check_partition(lam) if lam else ()
    n = sum(lam)
    if not lam:
        return SymFunc(POWERSUM, 0, {(): 1})
    ell = len(lam)
    acc: dict[tuple[int, ...], Fraction] = {}
    for sigma in permutations(range(ell)):
        indices = []
        for i in range(ell):
            m = lam[i] - i + sigma[i]
            if m < 0:
                break
            indices.append(m)
        else:
            sign = 1
            for i in range(ell):
                for j in range(i + 1, ell):
                    if sigma[i] > sigma[j]:
                        sign = -sign
            prod: dict[tuple[int, ...], Fraction] = {(): Fraction(sign)}
            for m in indices:
                nxt: dict[tuple[int, ...], Fraction] = {}
                for mu1, c1 in prod.items():
                    for mu2, c2 in _complete_homogeneous(m).items():
                        key = tuple(sorted(mu1 + mu2, reverse=True))
                        s = nxt.get(key, Fraction(0)) + c1 * c2
                        if s:
                            nxt[key] = s
                        else:
                            nxt.pop(key, None)
                prod = nxt
            for mu, c in prod.items():
                s = acc.get(mu, Fraction(0)) + c
                if s:
                    acc[mu] = s
                else:
                    acc.pop(mu, None)
    return SymFunc(POWERSUM, n, {mu: QPoly(c) for mu, c in acc.items()})


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
