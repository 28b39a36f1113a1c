"""Sparse polynomials in the grading variable q with exact rational coefficients."""

from fractions import Fraction


class ExactDivisionError(ArithmeticError):
    """A polynomial division that must be exact left a remainder."""


def rat_str(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_rat(s: str) -> Fraction:
    return Fraction(s)


class QPoly:
    """Polynomial in q over the rationals, stored exponent -> coefficient."""

    __slots__ = ("_c",)

    def __init__(self, coeffs=0):
        if isinstance(coeffs, QPoly):
            self._c = dict(coeffs._c)
            return
        if isinstance(coeffs, (int, Fraction)):
            c = Fraction(coeffs)
            self._c = {0: c} if c else {}
            return
        out = {}
        for k, v in coeffs.items():
            k = int(k)
            if k < 0:
                raise ValueError("negative q-exponents are not supported")
            v = Fraction(v)
            if v:
                out[k] = v
        self._c = out

    @classmethod
    def q(cls, exponent: int = 1, coeff=1) -> "QPoly":
        return cls({exponent: coeff})

    @classmethod
    def geometric(cls, count: int) -> "QPoly":
        """1 + q + ... + q^(count-1)."""
        return cls({i: 1 for i in range(count)})

    def coeff(self, k: int) -> Fraction:
        return self._c.get(k, Fraction(0))

    def items(self):
        """Pairs (exponent, coefficient) in increasing exponent order."""
        return sorted(self._c.items())

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
        return self._c == other._c

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __add__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        out = dict(self._c)
        for k, v in other._c.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        res = QPoly.__new__(QPoly)
        res._c = out
        return res

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        res = QPoly.__new__(QPoly)
        res._c = {k: -v for k, v in self._c.items()}
        return res

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPoly(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return QPoly(other) - self

    def __mul__(self, other) -> "QPoly":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return QPoly(0)
            res = QPoly.__new__(QPoly)
            res._c = {k: v * c for k, v in self._c.items()}
            return res
        if not isinstance(other, QPoly):
            return NotImplemented
        out: dict[int, Fraction] = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = k1 + k2
                s = out.get(k, 0) + v1 * v2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        res = QPoly.__new__(QPoly)
        res._c = out
        return res

    __rmul__ = __mul__

    def stretch(self, factor: int) -> "QPoly":
        """Substitute q -> q^factor."""
        if factor < 1:
            raise ValueError("stretch factor must be positive")
        res = QPoly.__new__(QPoly)
        res._c = {k * factor: v for k, v in self._c.items()}
        return res

    def reflect(self, top: int) -> "QPoly":
        """q^top * p(1/q); requires degree <= top."""
        if self.degree > top:
            raise ValueError("cannot reflect past the polynomial degree")
        res = QPoly.__new__(QPoly)
        res._c = {top - k: v for k, v in self._c.items()}
        return res

    def divexact(self, divisor: "QPoly") -> "QPoly":
        """Exact quotient by divisor; raises ExactDivisionError on remainder."""
        if not isinstance(divisor, QPoly):
            divisor = QPoly(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        rem = dict(self._c)
        dd = divisor.degree
        lead = divisor._c[dd]
        quot: dict[int, Fraction] = {}
        while rem:
            rd = max(rem)
            if rd < dd:
                raise ExactDivisionError(f"remainder of degree {rd} survives division")
            f = rem[rd] / lead
            e = rd - dd
            quot[e] = f
            for k, v in divisor._c.items():
                nk = k + e
                s = rem.get(nk, Fraction(0)) - f * v
                if s:
                    rem[nk] = s
                else:
                    rem.pop(nk, None)
        return QPoly(quot)

    def pack(self, scale: int, bits: int) -> int:
        """The integer scale * p(2^bits), one base-2^bits digit per coefficient.

        `scale` must clear every denominator.  `unpack` recovers the
        polynomial from any integer combination of packed values whose
        coefficients stay below 2^(bits-1) in absolute value.
        """
        return sum(v.numerator * (scale // v.denominator) << (bits * k) for k, v in self._c.items())

    @classmethod
    def unpack(cls, x: int, bits: int, divisor: int) -> "QPoly":
        """The polynomial whose coefficients are the balanced base-2^bits
        digits of x, each divided by `divisor`."""
        base = 1 << bits
        out: dict[int, Fraction] = {}
        k = 0
        while x:
            d = x & (base - 1)
            if d >= base >> 1:
                d -= base
            if d:
                out[k] = Fraction(d, divisor)
            x = (x - d) >> bits
            k += 1
        res = cls.__new__(cls)
        res._c = out
        return res

    def evaluate(self, x) -> Fraction:
        x = Fraction(x)
        return sum((v * x**k for k, v in self._c.items()), Fraction(0))

    def is_effective(self) -> bool:
        """True when every coefficient is a non-negative integer."""
        return all(v.denominator == 1 and v >= 0 for v in self._c.values())

    def to_json_dict(self) -> dict[str, str]:
        return {str(k): rat_str(v) for k, v in sorted(self._c.items())}

    @classmethod
    def from_json_dict(cls, data) -> "QPoly":
        return cls({int(k): parse_rat(v) for k, v in data.items()})

    def __str__(self) -> str:
        if not self._c:
            return "0"
        pieces = []
        for k, v in sorted(self._c.items(), reverse=True):
            if k == 0:
                body = rat_str(v)
            else:
                var = "q" if k == 1 else f"q^{k}"
                if v == 1:
                    body = var
                elif v == -1:
                    body = f"-{var}"
                elif v.denominator == 1:
                    body = f"{v.numerator}{var}"
                else:
                    body = f"({rat_str(v)}){var}"
            pieces.append(body)
        text = pieces[0]
        for piece in pieces[1:]:
            text += piece if piece.startswith("-") else "+" + piece
        return text

    def __repr__(self) -> str:
        return f"QPoly({self})"
