"""Text and LaTeX formatting of q-polynomials and (bi)symmetric functions.

Human-facing output lists Schur terms in reverse-lexicographic partition
order (trivial representation first), with q-polynomials printed from the
top power down.  JSON serialization instead follows the column order of
`partitions`; both orders are deterministic.  One formatter, `_format`,
serves every value and both styles; `STYLES` holds everything in which the
styles differ.  `text` and `latex` read a (bi)symmetric function only
through its `to_schur`, `terms`, `_degrees` and `_legs`.
"""

from .qpoly import QPoly, rat_str

# Per style: q^k for k > 1; a non-integer coefficient num/den in front of a
# power of q (a constant term is always num or num/den); the mark between a
# coefficient and its Schur symbol; the separator between Schur terms; the
# Schur symbol of a one-leg function, of the x leg and of the y leg; and the
# glue between the two legs' symbols.
STYLES = {
    "text": {
        "power": "q^{k}", "frac": "({num}/{den})", "star": "*", "sep": " + ",
        "s": "s[{}]", "x": "sx[{}]", "y": "sy[{}]", "glue": "*",
    },
    "latex": {
        "power": "q^{{{k}}}", "frac": "\\tfrac{{{num}}}{{{den}}}", "star": "", "sep": "+",
        "s": "s_{{({})}}", "x": "s^{{x}}_{{({})}}", "y": "s^{{y}}_{{({})}}", "glue": "",
    },
}


def text(value) -> str:
    """A QPoly, SymFunc or BiSymFunc as plain text."""
    return _format(value, STYLES["text"])


def latex(value) -> str:
    """A QPoly, SymFunc or BiSymFunc as LaTeX."""
    return _format(value, STYLES["latex"])


def _qpoly(p: QPoly, style: dict) -> str:
    if p.is_zero():
        return "0"
    out = ""
    for k, v in reversed(p.items()):
        if k == 0:
            body = rat_str(v)
        else:
            var = "q" if k == 1 else style["power"].format(k=k)
            if v == 1:
                body = var
            elif v == -1:
                body = f"-{var}"
            elif v.denominator == 1:
                body = f"{v.numerator}{var}"
            else:
                body = style["frac"].format(num=v.numerator, den=v.denominator) + var
        out += body if not out or body.startswith("-") else "+" + body
    return out


def _coeff_prefix(c: QPoly, style: dict) -> str:
    """Format one coefficient in front of a basis symbol."""
    if c == QPoly(1):
        return ""
    items = c.items()
    negative = any(v < 0 for _, v in items)
    const_frac = len(items) == 1 and items[0][0] == 0 and items[0][1].denominator > 1
    body = _qpoly(c, style)
    if len(items) > 1 or negative or const_frac:
        body = f"({body})"
    return body + style["star"]


def _format(value, style: dict) -> str:
    """`value` in `style`: a QPoly as a polynomial, a (bi)symmetric function
    as its Schur terms.  One leg prints as s; two legs print as x and y,
    except that an empty x leg (x-degree 0) leaves the y leg printed as s."""
    if isinstance(value, QPoly):
        return _qpoly(value, style)
    fs = value.to_schur()
    if not fs.terms:
        return "0"
    degrees = fs._degrees
    names = ("x", "y") if len(degrees) == 2 and degrees[0] else ("s", "s")
    pieces = []
    for key in sorted(fs.terms, reverse=True):
        symbols = [
            style[name].format(",".join(map(str, lam)))
            for name, lam in zip(names, fs._legs(key))
            if lam
        ]
        pieces.append(_coeff_prefix(fs.terms[key], style) + (style["glue"].join(symbols) or "1"))
    return style["sep"].join(pieces)
