"""Text and LaTeX formatting of q-polynomials and (bi)symmetric functions.

Human-facing output lists Schur terms in reverse-lexicographic partition
order (trivial representation first), with q-polynomials printed from the
top power down.  JSON serialization instead follows the column order of
`partitions`; both orders are deterministic.  One formatter serves both
styles; `STYLES` holds everything in which they differ.
"""

from .qpoly import QPoly, rat_str
from .symfunc import SymFunc
from .bigraded import BiSymFunc

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


def _qpoly(p: QPoly, style: dict) -> str:
    if p.is_zero():
        return "0"
    text = ""
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
        text += body if not text or body.startswith("-") else "+" + body
    return text


def qpoly_text(p: QPoly) -> str:
    return _qpoly(p, STYLES["text"])


def qpoly_latex(p: QPoly) -> str:
    return _qpoly(p, STYLES["latex"])


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


def _schur_terms(terms: dict, legs: tuple[str, ...], style: dict) -> str:
    """Schur terms {partition per leg: QPoly}; `legs` names each leg's symbol."""
    if not terms:
        return "0"
    pieces = []
    for key in sorted(terms, reverse=True):
        symbols = [
            style[leg].format(",".join(map(str, lam))) for leg, lam in zip(legs, key) if lam
        ]
        body = style["glue"].join(symbols) or "1"
        pieces.append(_coeff_prefix(terms[key], style) + body)
    return style["sep"].join(pieces)


def _symfunc(f: SymFunc, style: dict) -> str:
    fs = f.to_schur()
    return _schur_terms({(lam,): c for lam, c in fs.terms.items()}, ("s",), style)


def _bisymfunc(f: BiSymFunc, style: dict) -> str:
    fs = f.to_schur()
    if fs.xdeg == 0:
        return _symfunc(fs.y_symfunc(), style)
    return _schur_terms(fs.terms, ("x", "y"), style)


def symfunc_text(f: SymFunc) -> str:
    return _symfunc(f, STYLES["text"])


def symfunc_latex(f: SymFunc) -> str:
    return _symfunc(f, STYLES["latex"])


def bisymfunc_text(f: BiSymFunc) -> str:
    return _bisymfunc(f, STYLES["text"])


def bisymfunc_latex(f: BiSymFunc) -> str:
    return _bisymfunc(f, STYLES["latex"])
