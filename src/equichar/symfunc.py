"""Symmetric functions with QPoly coefficients in the power-sum or Schur basis.

The power-sum basis is the working basis: the ordinary product is a multiset
union of indices, the Kronecker product is diagonal, plethysm stretches
indices, and the normalized partial derivative acts monomial by monomial.
The Schur basis is the presentation basis.  The change of basis goes through
the characteristic map, in two steps.  `pack_terms` brings the coefficients
over one common denominator D and packs each one into a single integer,
D p(2^bits) (`Packed`).  `convert_packed` then treats one leg of a
(multi-)symmetric function at a time, as an integer product with the
character values chi^lam(mu) (power sums to Schur) or with the class sizes
times character values, (n!/z_mu) chi^lam(mu) (Schur to power sums); one
exact division when the result is decoded restores the rationals.

`pack_terms` is the one packer.  The blow-up recursion also hands it the
sums of a level step unevaluated, so each of their products is one integer
multiplication, and the packed sum goes to `convert_packed`.  The digits of
the result must not carry, so `digit_bits` sizes them from a bound fixed
before packing: the sum of the absolute digits of the input times, per leg,
the largest absolute entry of the leg's matrix (max |chi| of S_n to Schur,
max (n!/z_mu) |chi^lam(mu)| to power sums).  Each digit of a leg's output
is a combination of input digits with weights from one row of that matrix,
so it cannot exceed the bound, and a single input term at the largest entry
reaches it.  For S_14 max |chi| is 69 498 (17 bits), where the older bound
(n!)^2 took 73 bits per leg.  A value with a single term skips the packer:
the conversion of its basis element with coefficient 1 is computed once
per process (`_unit`) and scaled by the coefficient.

The character values of S_n are held once per degree, in one flat
`array('q')` in column-major order (`_table`), memoized globally, and only
for the rows lam at or before their conjugate lam' in `partitions_of(n)`:
the other rows follow from chi^lam'(mu) = sign(mu) chi^lam(mu).  Column
(1^n) holds the dimensions f^lam, by hook lengths.  Column mu = (a, nu)
with a >= 2 is built from column nu of the S_(n-a) table by adding border
strips of a cells on an abacus (the Murnaghan-Nakayama rule), so a table
never reads S_(n-1), and a request that converts no leg of degree n-1
builds no S_(n-1).  A leg reads the table in place: a column slice takes
p_mu to Schur functions, a strided row slice times the class sizes n!/z_mu
takes s_lam to power sums, and lam' comes with lam in both.
`character_value` reads one entry of the same store.  The one-row Schur
functions h_m have a closed form in power sums, `complete(m)`, which needs
no table.

Plethysm twists the grading variable: p_a composed with q^k p_mu gives
q^(a*k) p_(a*mu), while q-coefficients of the outer operand pass through
untouched (the same convention the Kronecker product uses).  It runs on
packed integers as well: each coefficient of the outer operand, and of the
inner one stretched by a, is one integer at q = 2^bits, each step of a
running product is one integer multiplication, and each output term is
decoded once, with `bits` fixed before packing (`SymFunc.pleth`).
"""

from array import array
from fractions import Fraction
from functools import cache
from math import factorial, lcm, prod
from operator import add, getitem, index, itemgetter, mul

from .partitions import (
    centralizer_order,
    check_partition,
    conjugate,
    irrep_dimension,
    partitions_of,
    sub_multisets,
    union,
)
from .qpoly import QPoly
from .render import text

POWERSUM = "powersum"
SCHUR = "schur"


@cache
def _partition_index(n: int) -> dict:
    """Position of each partition of n in `partitions_of(n)`."""
    return {lam: i for i, lam in enumerate(partitions_of(n))}


@cache
def _table(n: int) -> array:
    """The character table of S_n, stored once and by half: chi^lam(mu) at
    index j*H + r (column-major), for mu = partitions_of(n)[j] and lam the
    r-th of the H rows that `_leg_layout(n)` keeps, those with lam <= lam'.
    The other rows follow from chi^lam'(mu) = sign(mu) chi^lam(mu).

    Column (1^n) holds the dimensions f^lam, by hook lengths.  Any other
    column mu = (a, nu) has a >= 2 and is the Schur expansion of
    p_mu = p_a p_nu, built from column nu of the S_(n-a) table by the
    Murnaghan-Nakayama rule on an n-bead abacus; so S_(n-1) is never read.
    Column nu is expanded to every kappa of S_(n-a) (`_full_column`).  A
    partition of size at most n is the bitmask of its beta-numbers
    lam_i + n - 1 - i (i < n, lam padded with zeros); multiplying s_kappa by
    p_a adds a border strip of a cells, which moves one bead from b up to an
    empty b + a, with sign (-1)^(beads passed).  The strips added to one
    kappa of S_(n-a) are listed once per build, as the positions of the kept
    rows they reach.
    `array('q')` refuses a value outside 64-bit range with OverflowError
    instead of wrapping, so every stored character value is exact.
    """
    if not n:
        return array("q", [1])
    parts, half, masks = partitions_of(n), _leg_layout(n)[1], _abacus(n)
    position = {masks[i]: r for r, i in enumerate(half)}
    strips: dict[tuple[int, int], tuple[list, list]] = {}

    def added(a, k):
        """Positions among the kept rows of the lam reached from
        partitions_of(n - a)[k] by one a-strip, split by sign."""
        out = strips.get((a, k))
        if out is None:
            # the n - a beads of kappa moved up by a, over a beads for its zero parts
            mask = _abacus(n - a)[k] << a | (1 << a) - 1
            between = (1 << (a - 1)) - 1
            out = ([], [])
            beads = mask & ~(mask >> a)  # the beads whose target b + a is empty
            while beads:
                bead = beads & -beads
                beads ^= bead
                r = position.get(mask ^ bead ^ (bead << a))
                if r is not None:
                    passed = (mask >> bead.bit_length() & between).bit_count()
                    out[passed & 1].append(r)
            strips[a, k] = out
        return out

    table = array("q")
    for mu in parts:
        a, m = mu[0], n - mu[0]
        if a == 1:
            table.extend(irrep_dimension(parts[i]) for i in half)
            continue
        column = [0] * len(half)
        for k, c in enumerate(_full_column(m, _partition_index(m)[mu[1:]])):
            if c:
                plus, minus = added(a, k)
                for r in plus:
                    column[r] += c
                for r in minus:
                    column[r] -= c
        table.extend(column)
    return table


def _beads(lam, n: int) -> int:
    """The beta-numbers of lam on an n-bead abacus, as a bitmask."""
    return sum(1 << (a + n - 1 - i) for i, a in enumerate(lam + (0,) * (n - len(lam))))


@cache
def _abacus(n: int) -> tuple[int, ...]:
    """`_beads(lam, n)` for lam in `partitions_of(n)`."""
    return tuple(_beads(lam, n) for lam in partitions_of(n))


@cache
def _class_sizes(n: int) -> tuple[int, ...]:
    """n!/z_mu for mu in `partitions_of(n)`."""
    return tuple(factorial(n) // centralizer_order(mu) for mu in partitions_of(n))


def _full_column(n: int, j: int) -> list:
    """Column j of the character table of S_n over every row, chi^lam(mu)
    for mu = partitions_of(n)[j] and lam in `partitions_of(n)`, expanded
    from the stored half by chi^lam'(mu) = sign(mu) chi^lam(mu)."""
    index, half, mirror, odd, _ = _leg_layout(n)
    size, sign = len(half), -1 if odd[j] else 1
    column = [0] * len(index)
    for i, i2, c in zip(half, mirror, _table(n)[j * size : (j + 1) * size]):
        column[i], column[i2] = c, sign * c  # c = 0 where i = i2 and sign = -1
    return column


@cache
def character_value(lam, mu) -> int:
    """Symmetric-group character chi^lam at cycle type mu, read off the
    stored half table (`_full_column`)."""
    n = sum(lam)
    if n != sum(mu):
        raise ValueError("character requires |lam| == |mu|")
    index = _partition_index(n)
    return _full_column(n, index[mu])[index[lam]]


class Packed:
    """{legs: QPoly} as integers: each coefficient p is held as the integer
    scale * p(2^bits), one base-2^bits digit per power of q.  Sums and
    integer multiples of packed values stay exact, and `decode` recovers
    the polynomials while every digit stays below 2^(bits-1) in absolute
    value (`QPoly.pack`, `QPoly.unpack`).  `bits` is sized for the
    conversion to `target` of legs of sizes `degrees` (`digit_bits`), the
    one `convert_packed` makes."""

    __slots__ = ("terms", "scale", "bits", "target", "degrees")

    def __init__(self, terms: dict, scale: int, bits: int, target: str, degrees: tuple[int, ...]):
        self.terms, self.scale, self.bits = terms, scale, bits
        self.target, self.degrees = target, degrees

    def decode(self) -> dict:
        """{legs: QPoly}, each packed value divided by the scale."""
        return {key: QPoly.unpack(x, self.bits, self.scale) for key, x in self.terms.items()}


@cache
def _largest_entry(n: int, to_schur: bool) -> int:
    """The largest absolute entry of the matrix a leg of degree n is
    multiplied by: max |chi^lam(mu)| to Schur functions, max of
    (n!/z_mu) |chi^lam(mu)| to power sums, the latter a scan of the stored
    half table, whose rows hold every |chi^lam(mu)|.

    To Schur functions it is the largest dimension f^lam, by hook lengths,
    with no scan of the table.  chi^lam(mu) is the trace of the matrix of a
    permutation of cycle type mu in the irreducible representation lam, of
    dimension f^lam.  That matrix has finite order, so the trace is a sum of
    f^lam roots of unity, and |chi^lam(mu)| <= f^lam = chi^lam(1^n)."""
    if to_schur:
        return max(map(irrep_dimension, partitions_of(n)))
    table, size = _table(n), len(_leg_layout(n)[1])
    columns = (table[j * size : (j + 1) * size] for j in range(len(partitions_of(n))))
    return max(max(max(c), -min(c)) * z for c, z in zip(columns, _class_sizes(n)))


def common_denominator(polys) -> int:
    """The lcm of the denominators of the QPolys in `polys` (1 for none)."""
    return lcm(*(c._d for c in polys))


def packed_norm(c: QPoly, scale: int) -> int:
    """The sum of the absolute digits of c.pack(scale, bits), for any bits."""
    return sum(map(abs, c._c.values())) * (scale // c._d)


def digit_bits(norm: int, target: str, degrees: tuple[int, ...]) -> int:
    """Bits per digit for packed values whose absolute digits, over every
    term and power of q, sum to at most `norm`, so that they and their
    conversion to `target` decode exactly.

    Converting one leg replaces each value by a combination of values with
    integer weights, the entries of one row of the leg's matrix (character
    values, times class sizes to power sums).  A digit of the result is
    therefore at most the largest absolute entry times the sum of the
    absolute digits it combines, and over all legs at most `norm` times the
    product of the largest entries.  That bound is reached: a single term
    p_mu (or s_lam) with one digit, at the column (row) holding the largest
    entry, gives exactly it.
    """
    to_schur = target == SCHUR
    growth = prod(_largest_entry(d, to_schur) for d in degrees if d)
    return (norm * growth).bit_length() + 1


def pack_terms(
    terms: dict, target: str, degrees: tuple[int, ...], addends=(), sign: int = 1
) -> Packed:
    """Pack {legs: QPoly}, plus `sign` times each addend, over the lcm of all
    denominators, for the conversion to `target`.

    An addend is a sum left unevaluated, a triple (denominator, norm, add):
    its coefficients are integer polynomials over `denominator` whose packed
    digits sum to at most `norm` in absolute value, and
    add(acc, scale, bits, sign) adds sign times it into the packed values
    `acc`, for `scale` a multiple of `denominator`.  `digit_bits` fixes the
    bits per digit before anything is packed, from the norms of all the
    terms and addends, so neither the sum nor its conversion carries
    between digits.
    """
    polys = terms.values()
    scale = lcm(common_denominator(polys), *(den for den, _, _ in addends))
    norm = sum(packed_norm(c, scale) for c in polys)
    norm += sum(bound * (scale // den) for den, bound, _ in addends)
    bits = digit_bits(norm, target, degrees)
    acc = {key: c.pack(scale, bits) for key, c in terms.items()}
    for _, _, add in addends:
        add(acc, scale, bits, sign)
    return Packed({key: x for key, x in acc.items() if x}, scale, bits, target, degrees)


def convert_packed(packed: Packed) -> dict:
    """{legs: QPoly} in the basis `packed.target` from packed values in the
    other, one leg at a time (`_convert_leg`).

    Keys are tuples holding one partition per leg, of the sizes in
    `packed.degrees`.  The only division, by the scale and, to power sums,
    by the product of the leg factorials, comes in the decoding at the end.
    """
    degrees, to_schur = packed.degrees, packed.target == SCHUR
    terms = packed.terms
    for leg, degree in enumerate(degrees):
        if not degree:
            continue
        parts = partitions_of(degree)
        groups: dict[tuple, list] = {}
        for key, x in terms.items():
            groups.setdefault(key[:leg] + key[leg + 1 :], []).append((key[leg], x))
        terms = {}
        for rest, out in zip(groups, _convert_leg(groups.values(), degree, to_schur)):
            for i, x in enumerate(out):
                if x:
                    terms[rest[:leg] + (parts[i],) + rest[leg:]] = x
    d = packed.scale * (1 if to_schur else prod(map(factorial, degrees)))
    return {key: QPoly.unpack(x, packed.bits, d) for key, x in terms.items()}


@cache
def _leg_layout(n: int):
    """The row layout of the S_n table: the position of each partition in
    `partitions_of(n)`; `half`, the positions i whose conjugate sits at
    i' >= i, the rows `_table(n)` keeps, in order; `mirror`, those i'; for
    every mu whether it is an odd class (n - len(mu) odd, sign(mu) = -1);
    and `row`, for every position i the place in `half` of i or of i'."""
    parts, index = partitions_of(n), _partition_index(n)
    conjugates = [index[conjugate(lam)] for lam in parts]
    half = tuple(i for i, i2 in enumerate(conjugates) if i <= i2)
    place = {i: r for r, i in enumerate(half)}
    return (
        index,
        half,
        tuple(conjugates[i] for i in half),
        tuple((n - len(mu)) % 2 == 1 for mu in parts),
        tuple(place[min(i, i2)] for i, i2 in enumerate(conjugates)),
    )


def _convert_leg(groups, n: int, to_schur: bool) -> list:
    """One leg of degree n: for each group [(partition, packed value)] of
    `groups`, the integer products of the stored character table with it,
    as a list over `partitions_of(n)`.  The layout and the table are looked
    up once for all the groups.

    The table holds the rows lam <= lam' (`_leg_layout`); the other rows
    follow from chi^lam'(mu) = sign(mu) chi^lam(mu).  p_mu to Schur is
    column mu, read in place: the even and the odd classes are summed apart
    and give lam as their sum and lam' as their difference.  s_lam to power
    sums is a strided row slice times the class sizes n!/z_mu, read only for
    the rows of the inputs: s_lam and s_lam' enter row lam as the sum and
    the difference of their values, on the even and the odd classes.
    """
    index, half, mirror, odd, row = _leg_layout(n)
    table, size, width, out = _table(n), len(half), len(index), []
    if to_schur:
        for inputs in groups:
            even_sum, odd_sum = [0] * size, [0] * size
            for part, x in inputs:
                j = index[part]
                into = odd_sum if odd[j] else even_sum
                for r, w in enumerate(table[j * size : (j + 1) * size]):
                    if w:
                        into[r] += w * x
            acc = [0] * width
            for i, i2, e, o in zip(half, mirror, even_sum, odd_sum):
                acc[i] = e + o
                if i2 != i:
                    acc[i2] = e - o
            out.append(acc)
        return out
    classes = _class_sizes(n)
    for inputs in groups:
        plus, minus = {}, {}  # by row: the even and the odd class weights
        for part, x in inputs:
            i = index[part]
            r = row[i]
            plus[r] = plus.get(r, 0) + x
            minus[r] = minus.get(r, 0) + (x if half[r] == i else -x)
        acc = [0] * width
        for r, p in plus.items():
            m = minus[r]
            for j, w in enumerate(table[r::size]):
                if w:
                    acc[j] += w * (m if odd[j] else p)
        out.append(list(map(mul, acc, classes)))
    return out


def change_basis(terms: dict, target: str, degrees: tuple[int, ...]) -> dict:
    """Rewrite {legs: QPoly} in the `target` basis: `pack_terms`, then
    `convert_packed`."""
    return convert_packed(pack_terms(terms, target, degrees))


_ONE = QPoly(1)


@cache
def _unit(target: str, legs: tuple) -> tuple:
    """The basis element with these legs (one partition each), coefficient
    1, in the `target` basis, as (legs, QPoly) pairs from `change_basis`.
    Shared; the QPolys are never mutated."""
    return tuple(change_basis({legs: _ONE}, target, tuple(map(sum, legs))).items())


def _acc(terms: dict, key, value: QPoly) -> None:
    s = terms.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        terms.pop(key, None)
    else:
        terms[key] = s


class _Terms:
    """The structure `SymFunc` and `BiSymFunc` share: `terms`, a dict
    {key: nonzero QPoly} in one `basis`, where a key holds one partition per
    leg, of the leg degrees `_degrees`.  A subclass gives the legs of a key
    as `_legs(key)`, the key of its legs as `_key(legs)`, and builds values
    unchecked with `_raw(basis, *degrees, terms)`."""

    __slots__ = ()

    def _checked(self, basis: str, terms) -> None:
        """Set `basis` and `terms` from {key: coefficient}, or from (key,
        coefficient) pairs.  Each leg is looked up among the partitions of
        its degree and replaced by the stored one (a part such as 2.0 reads
        as 2); repeated keys are summed and zero sums dropped.  A key that
        is no tuple of partitions of `_degrees` raises ValueError."""
        if basis not in (POWERSUM, SCHUR):
            raise ValueError(f"unknown basis {basis!r}")
        degrees = self._degrees
        indexes, parts = tuple(map(_partition_index, degrees)), tuple(map(partitions_of, degrees))
        legs_of, key_of, width = self._legs, self._key, len(degrees)
        clean: dict = {}
        for key, c in terms.items() if isinstance(terms, dict) else terms:
            try:
                legs = legs_of(key)
                if len(legs) != width:
                    raise ValueError
                positions = map(getitem, indexes, map(tuple, legs))
                key = key_of(tuple(map(getitem, parts, positions)))
            except (KeyError, TypeError, ValueError):
                raise ValueError(f"term {key!r}: its legs are no partitions of {degrees}") from None
            qc = c if isinstance(c, QPoly) else QPoly(c)
            if not qc.is_zero():
                _acc(clean, key, qc)
        self.basis, self.terms = basis, clean

    def _new(self, basis, terms):
        """A value of this class and (bi)degree, unchecked."""
        return self._raw(basis, *self._degrees, terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, *legs) -> QPoly:
        """The coefficient of the key with these legs, one partition each."""
        return self.terms.get(self._key(tuple(map(tuple, legs))), QPoly(0))

    def _sum(self, other):
        """self + other, for values of the same class, basis and (bi)degree."""
        if type(other) is not type(self):
            return NotImplemented
        if other.basis != self.basis:
            raise ValueError("cannot add across bases; convert first")
        if other._degrees != self._degrees:
            raise ValueError(f"cannot add degrees {self._degrees} and {other._degrees}")
        out = dict(self.terms)
        for key, c in other.terms.items():
            _acc(out, key, c)
        return self._new(self.basis, out)

    def _difference(self, other):
        return self + (-other)

    def _product(self, other):
        """The product in each leg (of symmetric functions, in power sums);
        scalars scale."""
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        f, g = self.to_powersum(), other.to_powersum()
        legs, key = self._legs, self._key
        right = [(legs(b), d) for b, d in g.terms.items()]
        out: dict = {}
        for a, c in f.terms.items():
            left = legs(a)
            for b, d in right:
                _acc(out, key(tuple(map(union, left, b))), c * d)
        return self._raw(POWERSUM, *map(add, f._degrees, g._degrees), out)

    def _derivative(self, leg: int, nu):
        """The normalized power-sum derivative (prod_i 1/m_i!) d/dp_nu on one
        leg: each term keeps the nu entry of the walk over the sub-multisets
        of size |nu| of that leg (`partitions.sub_multisets`, the walker that
        restriction and the blow-up corrections use too).  Returns a
        power-sum result whose leg degree is |nu| lower."""
        nu = check_partition(nu)
        size = sum(nu)
        f = self.to_powersum()
        legs_of, key_of = self._legs, self._key
        out: dict = {}
        for key, c in f.terms.items():
            legs = legs_of(key)
            for lam, rest, count in sub_multisets(legs[leg], size):
                if lam == nu:
                    _acc(out, key_of(legs[:leg] + (rest,) + legs[leg + 1 :]), c * count)
        degrees = list(f._degrees)
        degrees[leg] -= size
        return self._raw(POWERSUM, *degrees, out)

    def __neg__(self):
        return self._new(self.basis, {key: -c for key, c in self.terms.items()})

    def scale(self, c):
        qc = c if isinstance(c, QPoly) else QPoly(c)
        out = {}
        for key, v in self.terms.items():
            s = v * qc
            if not s.is_zero():
                out[key] = s
        return self._new(self.basis, out)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if self._degrees != other._degrees:
            return False
        if self.basis == other.basis:
            return self.terms == other.terms
        return self.to_powersum().terms == other.to_powersum().terms

    def __hash__(self):
        p = self.to_powersum()
        return hash((p._degrees, frozenset(p.terms.items())))

    def _convert(self, target: str):
        """This value in the `target` basis: a single term c times the
        cached conversion of its basis element (`_unit`), more terms through
        `change_basis`.  The terms are always a new dict."""
        if self.basis == target:
            return self
        legs, key = self._legs, self._key
        if len(self.terms) == 1:
            ((k, c),) = self.terms.items()
            pairs = _unit(target, legs(k))
            if c != _ONE:
                pairs = [(out, u * c) for out, u in pairs]
            return self._new(target, {key(out): u for out, u in pairs})
        out = change_basis({legs(k): c for k, c in self.terms.items()}, target, self._degrees)
        return self._new(target, {key(k): c for k, c in out.items()})

    def to_powersum(self):
        return self._convert(POWERSUM)

    def to_schur(self):
        return self._convert(SCHUR)

    def q_coefficient(self, i: int):
        """The coefficient of q^i, with constant coefficients."""
        out = {}
        for key, c in self.terms.items():
            v = c.coeff(i)
            if v:
                out[key] = QPoly(v)
        return self._new(self.basis, out)

    def __str__(self) -> str:
        return text(self)

    def dimension_poly(self) -> QPoly:
        """The graded dimension of the underlying representation: the sum of
        c times the product of the leg dimensions over the Schur terms, each
        leg lam of dimension f^lam (hook lengths), an empty leg of 1.  It is
        summed on integer numerators over the terms' common denominator."""
        terms = self.to_schur().terms
        d, num = common_denominator(terms.values()), {}
        for key, c in terms.items():
            f = prod(map(irrep_dimension, filter(None, self._legs(key)))) * (d // c._d)
            for e, v in c._c.items():
                num[e] = num.get(e, 0) + f * v
        return QPoly.from_numerators(num, d)


class SymFunc(_Terms):
    """A homogeneous symmetric function over Q[q] in a fixed basis; a key is
    a partition of `degree`."""

    __slots__ = ("basis", "degree", "terms")

    def __init__(self, basis: str, degree: int, terms=()):
        self.degree = index(degree)
        self._checked(basis, terms)

    @classmethod
    def _raw(cls, basis, degree, terms):
        res = cls.__new__(cls)
        res.basis, res.degree, res.terms = basis, degree, terms
        return res

    _legs, _key = staticmethod(lambda lam: (lam,)), staticmethod(itemgetter(0))

    @property
    def _degrees(self) -> tuple[int]:
        return (self.degree,)

    # -- ring structure, bound in the class body, where perfbench/spans.py patches it

    __add__, __sub__ = _Terms._sum, _Terms._difference
    __mul__ = __rmul__ = _Terms._product
    to_powersum, to_schur = _Terms.to_powersum, _Terms.to_schur

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
        return SymFunc._raw(POWERSUM, f.degree, out)

    def pleth(self, inner: "SymFunc") -> "SymFunc":
        """Plethysm self o inner.

        Indices of the inner operand are stretched along with its q-powers
        (p_a o q^k p_mu = q^(ak) p_(a mu)); outer q-coefficients are inert.

        The products run on packed integers.  Every outer coefficient c_lam
        is packed over the outer's common denominator D_f, and every inner
        coefficient g_mu, stretched by a, over the inner's D_g, at
        q = 2^bits: g_mu(q^a) packs as g_mu at 2^(a bits).  A running
        product over the parts of lam is then one int multiplication per
        pair of terms; it carries D_g^len(lam), so each lam is brought to
        D_g^L, L the longest lam, and every output term is decoded once,
        over D_f D_g^L.

        `bits` is fixed before packing.  The sum of the absolute digits of a
        packed value (its `packed_norm`) bounds each of its digits, is
        submultiplicative under products and subadditive under sums, and
        does not change when a value is stretched.  So the digits of all
        output terms together sum to at most
        B = sum over lam of |c_lam| D_g^(L - len(lam)) N_g^len(lam), with
        |c_lam| the norm of c_lam at D_f and N_g the sum of the inner's norms
        at D_g, and with 2^(bits-1) > B no digit carries.
        """
        f, g = self.to_powersum(), inner.to_powersum()
        df, dg = common_denominator(f.terms.values()), common_denominator(g.terms.values())
        longest = max(map(len, f.terms), default=0)
        inner_norm = sum(packed_norm(c, dg) for c in g.terms.values())
        bound = sum(
            packed_norm(c, df) * dg ** (longest - len(lam)) * inner_norm ** len(lam)
            for lam, c in f.terms.items()
        )
        bits = bound.bit_length() + 1
        stretched: dict[int, list] = {}  # a -> [(a mu, g_mu(q^a) packed)]
        out: dict[tuple[int, ...], int] = {}
        for lam, c in f.terms.items():
            running = {(): c.pack(df, bits) * dg ** (longest - len(lam))}
            for a in lam:
                pa = stretched.get(a)
                if pa is None:
                    pa = stretched[a] = [
                        (tuple(x * a for x in mu), qc.pack(dg, a * bits))
                        for mu, qc in g.terms.items()
                    ]
                nxt: dict[tuple[int, ...], int] = {}
                for k1, x1 in running.items():
                    for k2, x2 in pa:
                        k = union(k1, k2)
                        nxt[k] = nxt.get(k, 0) + x1 * x2
                running = nxt
            for nu, x in running.items():
                out[nu] = out.get(nu, 0) + x
        scale = df * dg**longest
        terms = {nu: QPoly.unpack(x, bits, scale) for nu, x in out.items() if x}
        return SymFunc._raw(POWERSUM, f.degree * inner.degree, terms)

    def pderiv(self, lam) -> "SymFunc":
        """Normalized partial derivative (prod_i 1/m_i!) d/dp_lam, in power sums."""
        return self._derivative(0, lam)

    def __repr__(self) -> str:
        return f"SymFunc({self.basis}, deg={self.degree}, {len(self.terms)} terms)"


def _single(basis: str, lam, coeff) -> SymFunc:
    """coeff times the basis element of lam, with lam validated once."""
    lam = check_partition(lam)
    c = coeff if isinstance(coeff, QPoly) else QPoly(coeff)
    return SymFunc._raw(basis, sum(lam), {lam: c} if c else {})


def powersum(lam, coeff=1) -> SymFunc:
    return _single(POWERSUM, lam, coeff)


def schur(lam, coeff=1) -> SymFunc:
    return _single(SCHUR, lam, coeff)


@cache
def complete(m: int) -> SymFunc:
    """The one-row Schur function h_m = s_(m) in power sums, in closed form:
    h_m = sum over mu of m of p_mu / z_mu (Macdonald I.2), so no character
    table is built.  The value is shared; do not mutate its terms."""
    terms = {mu: QPoly.from_numerators({0: 1}, centralizer_order(mu)) for mu in partitions_of(m)}
    return SymFunc._raw(POWERSUM, m, terms)
