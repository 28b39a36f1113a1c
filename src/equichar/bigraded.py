"""Bigraded symmetric functions: characters of products S_k x S_(n-k).

Keys are pairs (x-partition, y-partition); the two legs never mix.  All the
single-leg operations extend legwise, and restriction from the full group
lands here via the normalized power-sum derivative.
"""

from itertools import groupby
from math import comb
from operator import index

from .partitions import partitions_of
from .qpoly import QPoly
from .symfunc import POWERSUM, SCHUR, SymFunc, _partition_index, _Terms


class BiSymFunc(_Terms):
    """Homogeneous element of (Lambda tensor Lambda)[q] of fixed bidegree;
    a key is the pair of its legs (x-partition, y-partition)."""

    __slots__ = ("basis", "xdeg", "ydeg", "terms")

    def __init__(self, basis: str, xdeg: int, ydeg: int, terms=()):
        self.xdeg, self.ydeg = index(xdeg), index(ydeg)
        self._checked(basis, terms)

    @classmethod
    def _raw(cls, basis, xdeg, ydeg, terms):
        res = cls.__new__(cls)
        res.basis, res.xdeg, res.ydeg, res.terms = basis, xdeg, ydeg, terms
        return res

    _legs = _key = staticmethod(tuple)

    @classmethod
    def tensor(cls, fx: SymFunc, fy: SymFunc) -> "BiSymFunc":
        """External product fx (x) fy."""
        a, b = fx.to_powersum(), fy.to_powersum()
        out = {}
        for lx, cx in a.terms.items():
            for ly, cy in b.terms.items():
                out[(lx, ly)] = cx * cy
        return cls._raw(POWERSUM, a.degree, b.degree, out)

    @property
    def bidegree(self) -> tuple[int, int]:
        return (self.xdeg, self.ydeg)

    _degrees = bidegree

    # -- linear structure, bound in the class body, where perfbench/spans.py patches it

    __add__, __sub__ = _Terms._sum, _Terms._difference
    __mul__ = __rmul__ = _Terms._product
    to_powersum, to_schur = _Terms.to_powersum, _Terms.to_schur

    # -- leg operations --------------------------------------------------------

    def deriv_x(self, nu) -> "BiSymFunc":
        """Normalized power-sum derivative applied to the x-leg only."""
        return self._derivative(0, nu)

    def y_symfunc(self) -> SymFunc:
        if self.xdeg != 0:
            raise ValueError("x-leg is not trivial")
        out = {ly: c for (lx, ly), c in self.terms.items()}
        return SymFunc._raw(self.basis, self.ydeg, out)

    # -- serialization ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        """The Schur form as JSON: terms ordered by the x-partition, then the
        y-partition, each in the column order (conjugates compared
        lexicographically, largest first)."""
        fs = self.to_schur()
        xs, ys = _partition_index(fs.xdeg), _partition_index(fs.ydeg)
        order = sorted(fs.terms, key=lambda k: (xs[k[0]], ys[k[1]]))
        return {
            "basis": SCHUR,
            "bidegree": [fs.xdeg, fs.ydeg],
            "terms": [
                {"x": list(lx), "y": list(ly), "coeff": fs.terms[lx, ly].to_json_dict()}
                for lx, ly in order
            ],
        }

    @classmethod
    def from_json_dict(cls, data) -> "BiSymFunc":
        """Parse `to_json_dict` output, which is in Schur form; any other
        basis raises ValueError.  Each leg must be a partition of its degree,
        looked up among `partitions_of` (a part such as 4.9 matches none; 4.0
        reads as 4), and a repeated term raises ValueError; terms with a zero
        coefficient are dropped."""
        if data["basis"] != SCHUR:
            raise ValueError(f"basis {data['basis']!r}, want {SCHUR!r}")
        xdeg, ydeg = map(index, data["bidegree"])
        xs, ys = _partition_index(xdeg), _partition_index(ydeg)
        xparts, yparts = partitions_of(xdeg), partitions_of(ydeg)
        terms = {}
        for t in data["terms"]:
            lx, ly = t["x"], t["y"]
            try:
                key = (xparts[xs[tuple(lx)]], yparts[ys[tuple(ly)]])
            except KeyError:
                raise ValueError(
                    f"term {(lx, ly)} is no pair of partitions of {(xdeg, ydeg)}"
                ) from None
            if key in terms:
                raise ValueError(f"repeated term {key}")
            terms[key] = QPoly.from_json_dict(t["coeff"])
        return cls._raw(SCHUR, xdeg, ydeg, {key: c for key, c in terms.items() if c})

    def __repr__(self) -> str:
        return (
            f"BiSymFunc({self.basis}, bidegree={self.bidegree}, {len(self.terms)} terms)"
        )


def restrict_full(f: SymFunc, k: int) -> BiSymFunc:
    """Character of the restriction of a degree-n character to S_k x S_(n-k).

    Equals sum over lam of (d/dp_lam f) (x) p_lam with lam running over
    partitions of n-k; the derivative is the normalized one, so no extra
    combinatorial factors appear.  Each term p_mu is walked once: every
    sub-multiset lam of mu with |lam| = n-k gives the term p_(mu - lam) (x)
    p_lam with count prod_j C(m_j(mu), m_j(lam)).  Different mu never meet
    on one key, since mu is the union of the two legs.
    """
    n = f.degree
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}]")
    out: dict[tuple, QPoly] = {}
    for mu, c in f.to_powersum().terms.items():
        for lam, rest, count in _splits(mu, n - k):
            out[(rest, lam)] = c * count
    return BiSymFunc._raw(POWERSUM, k, n - k, out)


def _splits(mu, size):
    """Triples (lam, mu - lam, prod_j C(m_j(mu), m_j(lam))) over the
    sub-multisets lam of the partition mu with |lam| = size."""
    # Partial splits (lam, rest, count, size still to take), extended one
    # distinct part at a time; `left` is what the later parts can still give.
    found = [((), (), 1, size)]
    left = sum(mu)
    for j, group in groupby(mu):
        m = len(tuple(group))
        left -= j * m
        grown = []
        for lam, rest, count, need in found:
            for r in range(min(m, need // j) + 1):
                if need - j * r <= left:
                    grown.append(
                        (lam + (j,) * r, rest + (j,) * (m - r), count * comb(m, r), need - j * r)
                    )
        found = grown
    return [(lam, rest, count) for lam, rest, count, _ in found]
