"""Bigraded symmetric functions: characters of products S_k x S_(n-k).

Keys are pairs (x-partition, y-partition); the two legs never mix.  All the
single-leg operations extend legwise, and restriction from the full group
lands here via the normalized power-sum derivative.
"""

from fractions import Fraction
from math import factorial

from .partitions import (
    check_partition,
    irrep_dimension,
    partitions_of,
    sort_key,
    split_factor,
    union,
)
from .qpoly import QPoly
from .symfunc import POWERSUM, SCHUR, SymFunc, _acc, change_basis, pleth_leg


class BiSymFunc:
    """Homogeneous element of (Lambda tensor Lambda)[q] of fixed bidegree."""

    __slots__ = ("basis", "xdeg", "ydeg", "terms")

    def __init__(self, basis: str, xdeg: int, ydeg: int, terms=()):
        if basis not in (POWERSUM, SCHUR):
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.xdeg = int(xdeg)
        self.ydeg = int(ydeg)
        clean: dict[tuple, QPoly] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for (lx, ly), c in items:
            lx, ly = tuple(lx), tuple(ly)
            if sum(lx) != self.xdeg or sum(ly) != self.ydeg:
                raise ValueError(f"term {(lx, ly)} breaks bidegree {(self.xdeg, self.ydeg)}")
            qc = c if isinstance(c, QPoly) else QPoly(c)
            if qc.is_zero():
                continue
            _acc(clean, (lx, ly), qc)
        self.terms = clean

    @classmethod
    def _raw(cls, basis, xdeg, ydeg, terms):
        res = cls.__new__(cls)
        res.basis, res.xdeg, res.ydeg, res.terms = basis, xdeg, ydeg, terms
        return res

    @classmethod
    def zero(cls, xdeg: int, ydeg: int, basis: str = POWERSUM) -> "BiSymFunc":
        return cls._raw(basis, xdeg, ydeg, {})

    @classmethod
    def tensor(cls, fx: SymFunc, fy: SymFunc) -> "BiSymFunc":
        """External product fx (x) fy."""
        a, b = fx.to_powersum(), fy.to_powersum()
        out = {}
        for lx, cx in a.terms.items():
            for ly, cy in b.terms.items():
                out[(lx, ly)] = cx * cy
        return cls._raw(POWERSUM, a.degree, b.degree, out)

    @classmethod
    def embed_x(cls, f: SymFunc) -> "BiSymFunc":
        from .symfunc import one

        return cls.tensor(f, one())

    @classmethod
    def embed_y(cls, f: SymFunc) -> "BiSymFunc":
        from .symfunc import one

        return cls.tensor(one(), f)

    def is_zero(self) -> bool:
        return not self.terms

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.xdeg, self.ydeg)

    def coeff(self, lx, ly) -> QPoly:
        return self.terms.get((tuple(lx), tuple(ly)), QPoly(0))

    # -- linear structure --------------------------------------------------

    def __add__(self, other: "BiSymFunc") -> "BiSymFunc":
        if not isinstance(other, BiSymFunc):
            return NotImplemented
        if other.basis != self.basis:
            raise ValueError("cannot add across bases; convert first")
        if other.bidegree != self.bidegree:
            raise ValueError("cannot add different bidegrees")
        out = dict(self.terms)
        for key, c in other.terms.items():
            _acc(out, key, c)
        return BiSymFunc._raw(self.basis, self.xdeg, self.ydeg, out)

    def __neg__(self) -> "BiSymFunc":
        return BiSymFunc._raw(
            self.basis, self.xdeg, self.ydeg, {k: -c for k, c in self.terms.items()}
        )

    def __sub__(self, other: "BiSymFunc") -> "BiSymFunc":
        return self + (-other)

    def scale(self, c) -> "BiSymFunc":
        qc = c if isinstance(c, QPoly) else QPoly(c)
        out = {}
        for key, v in self.terms.items():
            s = v * qc
            if not s.is_zero():
                out[key] = s
        return BiSymFunc._raw(self.basis, self.xdeg, self.ydeg, out)

    def __mul__(self, other):
        """Legwise product: x with x, y with y; scalars scale."""
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        if not isinstance(other, BiSymFunc):
            return NotImplemented
        f, g = self.to_powersum(), other.to_powersum()
        out: dict[tuple, QPoly] = {}
        for (ax, ay), c in f.terms.items():
            for (bx, by), d in g.terms.items():
                _acc(out, (union(ax, bx), union(ay, by)), c * d)
        return BiSymFunc._raw(POWERSUM, f.xdeg + g.xdeg, f.ydeg + g.ydeg, out)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiSymFunc):
            return NotImplemented
        if self.bidegree != other.bidegree:
            return False
        if self.basis == other.basis:
            return self.terms == other.terms
        return self.to_powersum().terms == other.to_powersum().terms

    def __hash__(self):
        p = self.to_powersum()
        return hash((p.bidegree, frozenset(p.terms.items())))

    # -- basis changes -------------------------------------------------------

    def _convert(self, target: str) -> "BiSymFunc":
        if self.basis == target:
            return self
        out = change_basis(self.terms, target, self.bidegree)
        return BiSymFunc._raw(target, self.xdeg, self.ydeg, out)

    def to_powersum(self) -> "BiSymFunc":
        return self._convert(POWERSUM)

    def to_schur(self) -> "BiSymFunc":
        return self._convert(SCHUR)

    # -- leg operations --------------------------------------------------------

    def deriv_x(self, nu) -> "BiSymFunc":
        """Normalized power-sum derivative applied to the x-leg only."""
        nu = check_partition(nu) if nu else ()
        f = self.to_powersum()
        out: dict[tuple, QPoly] = {}
        for (lx, ly), c in f.terms.items():
            hit = split_factor(lx, nu)
            if hit is None:
                continue
            rest, count = hit
            _acc(out, (rest, ly), c * count)
        return BiSymFunc._raw(POWERSUM, f.xdeg - sum(nu), f.ydeg, out)

    def pleth_y(self, inner: SymFunc) -> "BiSymFunc":
        """Plethysm with `inner` applied to the y-leg of every monomial."""
        f = self.to_powersum()
        out = pleth_leg(f.terms, 1, inner)
        return BiSymFunc._raw(POWERSUM, f.xdeg, f.ydeg * inner.degree, out)

    def swap_legs(self) -> "BiSymFunc":
        out = {(ly, lx): c for (lx, ly), c in self.terms.items()}
        return BiSymFunc._raw(self.basis, self.ydeg, self.xdeg, out)

    def induce(self) -> SymFunc:
        """Induction product of the two legs: characters multiply in Lambda."""
        f = self.to_powersum()
        out: dict[tuple[int, ...], QPoly] = {}
        for (lx, ly), c in f.terms.items():
            _acc(out, union(lx, ly), c)
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree, res.terms = POWERSUM, f.xdeg + f.ydeg, out
        return res

    def y_symfunc(self) -> SymFunc:
        if self.xdeg != 0:
            raise ValueError("x-leg is not trivial")
        out = {ly: c for (lx, ly), c in self.terms.items()}
        res = SymFunc.__new__(SymFunc)
        res.basis, res.degree, res.terms = self.basis, self.ydeg, out
        return res

    # -- specializations ----------------------------------------------------------

    def q_coefficient(self, i: int) -> "BiSymFunc":
        out = {}
        for key, c in self.terms.items():
            v = c.coeff(i)
            if v:
                out[key] = QPoly(v)
        return BiSymFunc._raw(self.basis, self.xdeg, self.ydeg, out)

    def dimension_poly(self) -> QPoly:
        f = self.to_schur()
        total = QPoly(0)
        for (lx, ly), c in f.terms.items():
            dim = (irrep_dimension(lx) if lx else 1) * (irrep_dimension(ly) if ly else 1)
            total = total + c * dim
        return total

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        fs = self.to_schur()
        order = sorted(fs.terms, key=lambda k: (sort_key(k[0]), sort_key(k[1])), reverse=True)
        return {
            "basis": SCHUR,
            "bidegree": [fs.xdeg, fs.ydeg],
            "terms": [
                {
                    "x": list(key[0]),
                    "y": list(key[1]),
                    "coeff": fs.terms[key].to_json_dict(),
                }
                for key in order
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "BiSymFunc":
        xdeg, ydeg = data["bidegree"]
        terms = {}
        for t in data["terms"]:
            lx = check_partition(t["x"]) if t["x"] else ()
            ly = check_partition(t["y"]) if t["y"] else ()
            terms[(lx, ly)] = QPoly.from_json_dict(t["coeff"])
        return cls(data["basis"], xdeg, ydeg, terms)

    def __str__(self) -> str:
        from .render import bisymfunc_text

        return bisymfunc_text(self)

    def __repr__(self) -> str:
        return (
            f"BiSymFunc({self.basis}, bidegree={self.bidegree}, {len(self.terms)} terms)"
        )


def restrict_full(f: SymFunc, k: int) -> BiSymFunc:
    """Character of the restriction of a degree-n character to S_k x S_(n-k).

    Equals sum over lam of (d/dp_lam f) (x) p_lam with lam running over
    partitions of n-k; the derivative is the normalized one, so no extra
    combinatorial factors appear.
    """
    n = f.degree
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    fp = f.to_powersum()
    out: dict[tuple, QPoly] = {}
    for lam in partitions_of(n - k):
        d = fp.pderiv(lam)
        for key, c in d.terms.items():
            out[(key, lam)] = c
    return BiSymFunc._raw(POWERSUM, k, n - k, out)
