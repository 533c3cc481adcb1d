"""Rational functions over F_q(s), always kept in canonical reduced form.

Canonical form: denominator monic and nonzero, gcd(num, den) = 1, and the
zero element is 0/1.  n-th power membership is decided by squarefree
decomposition of numerator and denominator (all exponents must be divisible)
together with an n-th power test on the leading unit in F_q.  Square roots
skip the decomposition: a monic square has one monic square root, which
poly._sqrt_monic reads off the top half of its coefficients and checks
against the bottom half.
"""

from __future__ import annotations

from ..errors import ZeroInput
from .fields import FF, FieldCtx
from .poly import Poly, _sqrt_monic, poly_gcd, squarefree_decomposition


class RatFunc:
    """Element of F_q(s) as a reduced fraction num/den."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, reduce: bool = True):
        if den is None:
            den = Poly.one(num.ctx)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            num, den = num, Poly.one(num.ctx)
        elif reduce:
            g = poly_gcd(num, den)
            if not g.is_one():
                num, den = num // g, den // g
            if not den.is_monic():
                scale = den.lc().inv()
                num, den = num.scale(scale), den.scale(scale)
        self.num = num
        self.den = den

    @property
    def ctx(self) -> FieldCtx:
        return self.num.ctx

    @classmethod
    def from_poly(cls, f: Poly) -> "RatFunc":
        return cls(f, Poly.one(f.ctx), reduce=False)

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "RatFunc":
        return cls(Poly.zero(ctx), Poly.one(ctx), reduce=False)

    @classmethod
    def one(cls, ctx: FieldCtx) -> "RatFunc":
        return cls(Poly.one(ctx), Poly.one(ctx), reduce=False)

    @classmethod
    def gen(cls, ctx: FieldCtx) -> "RatFunc":
        return cls(Poly.gen(ctx), Poly.one(ctx), reduce=False)

    @classmethod
    def const(cls, ctx: FieldCtx, c) -> "RatFunc":
        return cls(Poly.const(ctx, c), Poly.one(ctx), reduce=False)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        return isinstance(other, RatFunc) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def sort_key(self):
        return (self.num.sort_key(), self.den.sort_key())

    def __repr__(self):
        from .grammar import format_ratfunc
        return format_ratfunc(self)

    # -- field operations -------------------------------------------------------

    def __add__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.den - other.num * self.den, self.den * other.den)

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den, reduce=False)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inv(self) -> "RatFunc":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inv() ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def scale(self, c: FF) -> "RatFunc":
        return RatFunc(self.num.scale(c), self.den)

    def v_infinity(self) -> int:
        """Valuation at the degree place: deg(den) - deg(num)."""
        if self.is_zero():
            raise ZeroInput("valuation of zero is undefined")
        return self.den.degree() - self.num.degree()

    def leading_unit(self) -> FF:
        """lc(num)/lc(den); den is monic so this is lc(num)."""
        if self.is_zero():
            raise ZeroInput("leading unit of zero")
        return self.num.lc()


def is_nth_power(f: RatFunc, n: int) -> bool:
    """Exact membership of f in (F_q(s))^n (zero counts): n divides every
    finite place valuation and the leading unit is an n-th power."""
    if f.is_zero():
        return True
    for part in (f.num, f.den):
        if not part.is_constant() and any(e % n for _, e in squarefree_decomposition(part)):
            return False
    return f.leading_unit().is_nth_power(n)


def ratfunc_sqrt(f: RatFunc):
    """g with g*g = f if f is a square in F_q(s), else None.

    The leading unit must have a square root (FF.sqrt, None otherwise); then
    the monic parts of num and den must have monic square roots
    (poly._sqrt_monic, which stops at the first coefficient that rules one
    out).  The root is root_c * h/k with h and k monic, so its leading
    coefficient is root_c; of the two roots, the one returned has the
    leading coefficient of least code (monic over a prime field).
    """
    ctx = f.ctx
    if f.is_zero():
        return RatFunc.zero(ctx)
    root_c = f.leading_unit().sqrt()
    if root_c is None:
        return None
    half_num = _sqrt_monic(ctx, f.num.monic().coeffs)
    if half_num is None:
        return None
    half_den = _sqrt_monic(ctx, f.den.coeffs)
    if half_den is None:
        return None
    return RatFunc(Poly(ctx, half_num).scale(min(root_c, -root_c)), Poly(ctx, half_den),
                   reduce=False)


def poly_subs_monomial(f: RatFunc, k: int) -> RatFunc:
    """Substitute s -> s^k in a rational function."""
    return RatFunc(f.num.compose_monomial(k), f.den.compose_monomial(k))
