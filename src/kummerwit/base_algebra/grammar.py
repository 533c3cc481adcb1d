"""Bit-exact literal grammar for polynomials, rational functions and places.

Polynomials: terms ``c*s^k`` joined by ``+``, coefficients as decimal
integers over a prime field or ``[c0,c1,...]`` over an extension field.
Canonical output is highest degree first, zero terms skipped, ``c*s`` for
degree one, a bare coefficient for degree zero, and ``0`` for the zero
polynomial.  Rational functions are ``num/den`` (den omitted when 1);
places are ``inf`` or a polynomial literal; points are ``(x; y)``.
"""

from __future__ import annotations

import re

from ..errors import WorkBound
from .fields import FF, FieldCtx
from .poly import DEGREE_MAX, Poly
from .ratfunc import RatFunc


def format_coeff(ctx: FieldCtx, c: int) -> str:
    """Literal of the coefficient with code c."""
    if ctx.a == 1:
        return str(c)
    return "[" + ",".join(str(v) for v in ctx._vec(c)) + "]"


def format_poly(f: Poly) -> str:
    if f.is_zero():
        return "0"
    terms = []
    for k in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[k]
        if not c:
            continue
        cs = format_coeff(f.ctx, c)
        if k == 0:
            terms.append(cs)
        elif k == 1:
            terms.append(f"{cs}*s")
        else:
            terms.append(f"{cs}*s^{k}")
    return "+".join(terms)


def format_ratfunc(x: RatFunc) -> str:
    if x.den.is_one():
        return format_poly(x.num)
    return f"{format_poly(x.num)}/{format_poly(x.den)}"


def format_place(place) -> str:
    return "inf" if place.is_infinite else format_poly(place.poly)


def format_point(pt) -> str:
    if pt.is_infinity:
        return "O"
    return f"({format_ratfunc(pt.x)}; {format_ratfunc(pt.y)})"


_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\[[0-9,\s]+\]|\d+)\s*\*\s*)?"
    r"(?:(?P<coeff2>\[[0-9,\s]+\]|\d+)|s(?:\^(?P<exp>\d+))?)$"
)


def parse_coeff(text: str, ctx: FieldCtx) -> FF:
    text = text.strip()
    if text.startswith("["):
        inner = text[1:-1]
        return ctx.elem([int(v) for v in inner.split(",")])
    return ctx.elem(int(text))


def parse_poly(text: str, ctx: FieldCtx) -> Poly:
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial literal")
    terms: dict[int, FF] = {}
    for raw in text.split("+"):
        term = raw.strip()
        m = _TERM_RE.match(term)
        if m is None:
            raise ValueError(f"bad polynomial term {term!r}")
        if m.group("coeff2") is not None:
            if m.group("coeff") is not None:
                raise ValueError(f"bad polynomial term {term!r}")
            coeff, exp = parse_coeff(m.group("coeff2"), ctx), 0
        else:
            coeff = ctx.one() if m.group("coeff") is None else parse_coeff(m.group("coeff"), ctx)
            exp = 1 if m.group("exp") is None else int(m.group("exp"))
            if exp > DEGREE_MAX:
                raise WorkBound(f"exponent {exp} in {term!r} exceeds the degree cap {DEGREE_MAX}")
        terms[exp] = terms[exp] + coeff if exp in terms else coeff
    return Poly(ctx, [terms[k].code if k in terms else 0 for k in range(max(terms) + 1)])


def parse_ratfunc(text: str, ctx: FieldCtx) -> RatFunc:
    text = text.strip()
    if "/" in text:
        num_s, den_s = text.split("/", 1)
        den = parse_poly(den_s, ctx)
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return RatFunc(parse_poly(num_s, ctx), den)
    return RatFunc.from_poly(parse_poly(text, ctx))


def parse_place(text: str, ctx: FieldCtx):
    from .places import Place
    text = text.strip()
    if text == "inf":
        return Place.infinity()
    return Place.finite(parse_poly(text, ctx))


def parse_point(text: str, ctx: FieldCtx):
    from ..curve_ff import ECPoint
    text = text.strip()
    if text in ("O", "inf"):
        return ECPoint.infinity()
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError(f"bad point literal {text!r}")
    x_s, y_s = text[1:-1].split(";", 1)
    return ECPoint.affine(parse_ratfunc(x_s, ctx), parse_ratfunc(y_s, ctx))
