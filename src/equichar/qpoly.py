"""Sparse polynomials in the grading variable q with exact rational coefficients.

A `QPoly` is stored as integer numerators over one common denominator: a dict
from exponent to nonzero int, plus one positive int `_d`, always in lowest
terms (gcd of `_d` and every numerator is 1; the zero polynomial has `_d` 1).
The form is canonical, so equality and hashing compare the stored fields;
a constant polynomial hashes as the int or `Fraction` it equals.
Products, sums and exact division run on the integer numerators and end in
one gcd normalisation; no `Fraction` arithmetic happens in them.  One
denominator per polynomial suffices for characters: in a power-sum term p_mu
every q-coefficient has a denominator dividing z_mu.

The public readers (`coeff`, `items`, JSON) give reduced
`Fraction` values; text and LaTeX are written by `render`.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index


class ExactDivisionError(ArithmeticError):
    """A polynomial division that must be exact left a remainder."""


def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=1024)
def _exponent(key) -> int:
    """The q-exponent a JSON key names, written as `to_json_dict` writes it:
    ASCII digits with no sign and no leading zero.  `int` alone would also
    read "01", " 1", "+1", "1_0" and non-ASCII digits, so two keys could name
    one power of q.  Memoized: a file repeats a few small exponents."""
    if not (
        isinstance(key, str) and key.isascii() and key.isdigit() and (key[0] != "0" or key == "0")
    ):
        raise ValueError(f"q-exponent {key!r} is not a decimal without sign or leading zero")
    return int(key)


def _coefficient(value) -> int | Fraction:
    """The coefficient a JSON string holds: an integer `-?D+` or a fraction
    `-?D+/D+` with a nonzero denominator, D an ASCII digit.  `Fraction` alone
    would also read " 1/2", "+1", "1_0", "0.5", non-ASCII digits and
    "1e999999999", which builds a number of a billion digits."""
    if isinstance(value, str):
        num, slash, den = value.partition("/")
        unsigned = num[1:] if num[:1] == "-" else num
        if unsigned.isascii() and unsigned.isdigit():
            if not slash:
                return int(num)
            if den.isascii() and den.isdigit() and int(den):
                return Fraction(int(num), int(den))
    raise ValueError(f"coefficient {value!r} is not an integer or a fraction of integers")


def _make(c: dict, d: int) -> "QPoly":
    """The QPoly c / d for int numerators c (no zeros) and d > 0, reduced."""
    if not c:
        d = 1
    elif d != 1:
        g = gcd(d, *c.values())
        if g != 1:
            d //= g
            c = {k: v // g for k, v in c.items()}
    res = QPoly.__new__(QPoly)
    res._c = c
    res._d = d
    return res


class QPoly:
    """Polynomial in q over the rationals: integer numerators over one denominator."""

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs=0):
        """From {exponent: coefficient}, or a scalar c, read as {0: c}; an
        exponent must be a non-negative int (1.5 raises TypeError).  An int
        coefficient is its own numerator; only other values go through
        `Fraction`, so integer polynomials are built without it."""
        if isinstance(coeffs, QPoly):
            self._c, self._d = dict(coeffs._c), coeffs._d
            return
        if not isinstance(coeffs, dict):
            coeffs = {0: coeffs}
        nums, d, plain = {}, 1, True
        for k, v in coeffs.items():
            k = index(k)
            if k < 0:
                raise ValueError("negative q-exponents are not supported")
            if type(v) is not int:
                v, plain = Fraction(v), False
                d = lcm(d, v.denominator)
            if v:
                nums[k] = v
        if not plain:
            # The lcm of reduced denominators leaves the numerators coprime to it.
            nums = {k: v.numerator * (d // v.denominator) for k, v in nums.items()}
        self._c, self._d = nums, d

    @classmethod
    def from_numerators(cls, numerators: dict, denominator: int = 1) -> "QPoly":
        """The polynomial sum of v q^k / denominator over {k: v} with int v,
        built without `Fraction`; zero numerators are dropped."""
        if denominator < 1:
            raise ValueError("the denominator must be positive")
        return _make({k: v for k, v in numerators.items() if v}, denominator)

    @classmethod
    def q(cls, exponent: int = 1, coeff=1) -> "QPoly":
        return cls({exponent: coeff})

    @classmethod
    def geometric(cls, count: int) -> "QPoly":
        """1 + q + ... + q^(count-1)."""
        return cls({i: 1 for i in range(count)})

    def coeff(self, k: int) -> Fraction:
        return Fraction(self._c.get(k, 0), self._d)

    def items(self):
        """Pairs (exponent, coefficient) in increasing exponent order."""
        d = self._d
        return [(k, Fraction(v, d)) for k, v in sorted(self._c.items())]

    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    @property
    def degree(self) -> int:
        """Largest exponent; -1 for the zero polynomial."""
        return max(self._c) if self._c else -1

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self._d == other._d and self._c == other._c

    def __hash__(self):
        if self._c.keys() <= {0}:  # a constant hashes as the int or Fraction it equals
            return hash(self.coeff(0))
        return hash((self._d, frozenset(self._c.items())))

    def __add__(self, other) -> "QPoly":
        if not isinstance(other, QPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = QPoly(other)
        d = self._d
        if d == other._d:
            out = dict(self._c)
            terms = other._c.items()
        else:
            d = lcm(d, other._d)
            s = d // self._d
            out = {k: v * s for k, v in self._c.items()}
            s = d // other._d
            terms = [(k, v * s) for k, v in other._c.items()]
        for k, v in terms:
            v += out.get(k, 0)
            if v:
                out[k] = v
            else:
                del out[k]
        return _make(out, d)

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return _make({k: -v for k, v in self._c.items()}, self._d)

    def __sub__(self, other):
        if not isinstance(other, (QPoly, int, Fraction)):
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other) -> "QPoly":
        if not isinstance(other, QPoly):
            if isinstance(other, int):
                if not other:
                    return QPoly(0)
                return _make({k: v * other for k, v in self._c.items()}, self._d)
            if not isinstance(other, Fraction):
                return NotImplemented
            other = QPoly(other)
        out: dict[int, int] = {}
        get = out.get
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                out[k] = get(k, 0) + v1 * v2
        if 0 in out.values():
            out = {k: v for k, v in out.items() if v}
        return _make(out, self._d * other._d)

    __rmul__ = __mul__

    def stretch(self, factor: int) -> "QPoly":
        """Substitute q -> q^factor."""
        if factor < 1:
            raise ValueError("stretch factor must be positive")
        return _make({k * factor: v for k, v in self._c.items()}, self._d)

    def reflect(self, top: int) -> "QPoly":
        """q^top * p(1/q); requires degree <= top."""
        if self.degree > top:
            raise ValueError("cannot reflect past the polynomial degree")
        return _make({top - k: v for k, v in self._c.items()}, self._d)

    def divexact(self, divisor: "QPoly") -> "QPoly":
        """Exact quotient by divisor; raises ExactDivisionError on remainder.

        Integer pseudo-division: with lead the divisor's leading numerator and
        e = deg self - deg divisor + 1, lead^e times our numerators divide by
        the divisor's numerators with integer steps.
        """
        if not isinstance(divisor, QPoly):
            divisor = QPoly(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        dd = divisor.degree
        lead = divisor._c[dd]
        scale = lead ** max(self.degree - dd + 1, 0)
        rem = {k: v * scale for k, v in self._c.items()}
        quot: dict[int, int] = {}
        while rem:
            rd = max(rem)
            if rd < dd:
                raise ExactDivisionError(f"remainder of degree {rd} survives division")
            f = rem[rd] // lead  # exact: pseudo-division keeps every step integral
            e = rd - dd
            quot[e] = f
            for k, v in divisor._c.items():
                nk = k + e
                s = rem.get(nk, 0) - f * v
                if s:
                    rem[nk] = s
                else:
                    rem.pop(nk, None)
        # self / divisor = quot * divisor._d / (scale * self._d)
        m = divisor._d if scale > 0 else -divisor._d
        return _make({k: v * m for k, v in quot.items()}, abs(scale) * self._d)

    def pack(self, scale: int, bits: int) -> int:
        """The integer scale * p(2^bits), one base-2^bits digit per coefficient.

        `scale` must be a multiple of the denominator.  `unpack` recovers the
        polynomial from any integer combination of packed values whose
        coefficients stay below 2^(bits-1) in absolute value.
        """
        x = 0
        for k, v in self._c.items():
            x += v << bits * k
        return x * (scale // self._d)

    @classmethod
    def unpack(cls, x: int, bits: int, divisor: int) -> "QPoly":
        """The polynomial whose coefficients are the balanced base-2^bits
        digits of x, each divided by `divisor`.  A nonzero x needs bits >= 2:
        the balanced base-2 digits 0 and -1 sum to no positive number."""
        if bits < 2 and x:
            raise ValueError(f"{bits} bits hold no balanced digits of a nonzero value")
        base = 1 << bits
        out: dict[int, int] = {}
        k = 0
        while x:
            d = x & (base - 1)
            if d >= base >> 1:
                d -= base
            if d:
                out[k] = d
            x = (x - d) >> bits
            k += 1
        return _make(out, divisor)

    def is_effective(self) -> bool:
        """True when every coefficient is a non-negative integer."""
        return self._d == 1 and (not self._c or min(self._c.values()) > 0)

    def to_json_dict(self) -> dict[str, str]:
        d = self._d
        return {
            str(k): str(v) if d == 1 else rat_str(Fraction(v, d))
            for k, v in sorted(self._c.items())
        }

    @classmethod
    def from_json_dict(cls, data) -> "QPoly":
        """Parse `to_json_dict` output.  Each exponent is read by `_exponent`,
        so each power of q has one key.  Integer strings (`-?[0-9]+`), the
        only kind a character's Schur coefficients take, are read with `int`
        directly; a polynomial with any other value is read by
        `_coefficient`, which accepts only integers and fractions of
        integers, so both paths accept the same input."""
        c = {}
        for k, v in data.items():
            e = _exponent(k)
            if not (
                isinstance(v, str)
                and v.isascii()
                and (v.isdigit() or v[:1] == "-" and v[1:].isdigit())
            ):
                return cls({_exponent(k): _coefficient(v) for k, v in data.items()})
            v = int(v)
            if v:
                c[e] = v
        return _make(c, 1)

    def __str__(self) -> str:
        from .render import text

        return text(self)

    def __repr__(self) -> str:
        return f"QPoly({self})"
