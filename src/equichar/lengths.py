"""Length and leading-partition analysis of the graded characters.

For an effective symmetric function the leading partition is the largest
element of its Schur support under the column order, and the length is the
largest number of parts.  The column order compares conjugates, whose first
entry is the number of parts, so the length is that of the leading
partition.  Both are multiplicative: leading partitions of products combine
by multiset union, so the leading partition of each graded piece of the
moduli characters obeys a sharp bound checked here row by row.
"""

from dataclasses import dataclass

from .partitions import conjugate, part_sum, sort_key
from .symfunc import SymFunc


def leading_partition(f: SymFunc) -> tuple[int, ...]:
    """The largest partition of the Schur support under the column order."""
    fs = f.to_schur()
    if not fs.terms:
        raise ValueError("the zero function has no leading partition")
    return max(fs.terms, key=sort_key)


def length_bound(n: int, i: int) -> int:
    """The length min(i+1, n-i-2) of the graded piece in degree i on n points."""
    return min(i + 1, n - i - 2)


def star_property(lam: tuple[int, ...], n: int, i: int) -> bool:
    """Whether the first two column heights equal `length_bound(n, i)` and a
    third column exists."""
    if sum(lam) != n:
        raise ValueError("partition size must equal n")
    bound = length_bound(n, i)
    conj = conjugate(lam)
    first = conj[0] if conj else 0
    second = conj[1] if len(conj) > 1 else 0
    return first == bound and second == bound and len(conj) >= 3


def exceptional_degrees(n: int) -> frozenset[int]:
    """Cohomological degrees where the leading partition jumps to lambda(n)."""
    if n % 2 == 0:
        return frozenset({(n - 4) // 2, (n - 2) // 2})
    return frozenset({(n - 3) // 2})


def star_applicable(n: int, i: int) -> bool:
    """Whether the column test applies in degree i: the interior degrees
    1..n-4 that are not exceptional."""
    return 1 <= i <= n - 4 and i not in exceptional_degrees(n)


def exceptional_lambda(n: int, i: int):
    """The exceptional leading partition at degree i, or None off the special degrees."""
    if n < 4:
        raise ValueError("need n >= 4")
    if not 0 <= i <= n - 3:
        raise ValueError(f"i must lie in [0, {n - 3}]")
    if i not in exceptional_degrees(n):
        return None
    if n % 2 == 0:
        return (4,) + (2,) * ((n - 4) // 2)
    return (4,) + (2,) * ((n - 5) // 2) + (1,)


def plethysm_leading_partition(mu: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Closed form for the leading partition of s_mu o s_(m).

    With k = |mu| this is ((m-1)^k) + mu for odd m and ((m-1)^k) + mu' for
    even m, the parity deciding whether the inner alphabet behaves
    symmetrically or antisymmetrically.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    k = sum(mu)
    shape = mu if m % 2 else conjugate(mu)
    raw = part_sum((m - 1,) * k, shape)
    return tuple(a for a in raw if a)


@dataclass(frozen=True)
class LengthRow:
    i: int
    length: int
    w: tuple[int, ...]
    star_holds: bool
    lambda_mult: int | None


@dataclass
class LengthReport:
    """Row-by-row verdict on the graded pieces of one moduli character."""

    n: int
    rows: list[LengthRow]

    def problems(self) -> list[str]:
        out = []
        for row in self.rows:
            bound = length_bound(self.n, row.i)
            if row.length != bound:
                out.append(f"n={self.n} i={row.i}: length {row.length} != {bound}")
            if row.lambda_mult is not None:
                expected = exceptional_lambda(self.n, row.i)
                if row.w != expected:
                    out.append(f"n={self.n} i={row.i}: w={row.w} != {expected}")
                if row.lambda_mult != 1:
                    out.append(
                        f"n={self.n} i={row.i}: multiplicity {row.lambda_mult} != 1"
                    )
            if star_applicable(self.n, row.i) and not row.star_holds:
                out.append(f"n={self.n} i={row.i}: w={row.w} fails the column test")
        return out

    @property
    def ok(self) -> bool:
        return not self.problems()

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rows": [
                {
                    "i": row.i,
                    "length": row.length,
                    "w": list(row.w),
                    "star": row.star_holds,
                    "lambda_mult": row.lambda_mult,
                }
                for row in self.rows
            ],
        }


def length_theorem_report(n: int, calculator=None) -> LengthReport:
    """Analyze every graded piece of the full-space character on n points."""
    from .moduli import CharacterCalculator

    calc = calculator if calculator is not None else CharacterCalculator()
    full = calc.character(n, 0, 1).y_symfunc()
    special = exceptional_degrees(n) if n >= 4 else frozenset()
    rows = []
    for i in range(n - 2):
        piece = full.q_coefficient(i)
        w = leading_partition(piece)
        mult = None
        if i in special:
            lam = exceptional_lambda(n, i)
            value = piece.coeff(lam).coeff(0)
            if value.denominator != 1:
                raise ArithmeticError(f"non-integer multiplicity at n={n}, i={i}")
            mult = int(value)
        star = star_applicable(n, i) and star_property(w, n, i)
        rows.append(LengthRow(i=i, length=len(w), w=w, star_holds=star, lambda_mult=mult))
    return LengthReport(n=n, rows=rows)
