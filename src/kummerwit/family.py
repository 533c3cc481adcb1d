"""The definable family C_lambda and its cardinality growth, plus the
polynomial-in-powers complement.

C_lambda collects the ring elements x for which some polynomial y satisfies
y^2 * lambda = x * (x + lambda) * (x + lambda * s^N); scaling a curve point
(x0, y0) by lambda lands (lambda*x0, lambda*y0) in that equation, so enough
multiples of a non-torsion point force the family beyond any target size.

polynomial_in_powers(f, n) returns a monic complement fbar with
f * fbar in F_q[s^n], built from the minimal polynomials of the n-th powers
of the roots of f: for each irreducible factor h of multiplicity m, the
factor q_h(s^n) (q_h the minimal polynomial of alpha^n for a root alpha of
h) is included with the least exponent k such that h^m divides q_h(s^n)^k.
q_h is the product of X - beta over the Frobenius orbit beta, beta^q, ...
of alpha^n, computed in F_q[s]/(h).
"""

from __future__ import annotations

from dataclasses import dataclass

from .base_algebra.poly import (Poly, _barrett, _powmod, all_polys, factor,
                                poly_lcm, poly_valuation)
from .base_algebra.ratfunc import RatFunc, ratfunc_sqrt
from .curve_ff import CurveParams, ECPoint, _add_step, is_torsion
from .errors import DistinctnessFailure, TorsionPoint, ZeroInput


@dataclass
class FamilyResult:
    lam: Poly
    N: int
    deg_bound: int
    members: list[Poly]
    exhaustive: bool
    witnesses: dict  # member -> the recovered polynomial y

    def as_record(self) -> dict:
        from .base_algebra.grammar import format_poly
        return {
            "lambda": format_poly(self.lam),
            "curve_exponent": self.N,
            "deg_bound": self.deg_bound,
            "members": [format_poly(m) for m in self.members],
            "witnesses": {format_poly(m): format_poly(y) for m, y in self.witnesses.items()},
            "exhaustive": self.exhaustive,
        }


def membership_witness(x: Poly, lam: Poly, curve: CurveParams):
    """The polynomial y with y^2*lam = x(x+lam)(x+lam*s^N), or None."""
    ctx = curve.ctx
    if lam.is_zero():
        # y^2 * 0 = x^3 forces x = 0, witnessed by y = 0
        return Poly.zero(ctx) if x.is_zero() else None
    sN = Poly.monomial(ctx, curve.N)
    rhs_poly = x * (x + lam) * (x + lam * sN)
    val = RatFunc(rhs_poly, lam)
    if val.is_zero():
        return Poly.zero(ctx)
    y = ratfunc_sqrt(val)
    if y is None or not y.is_polynomial():
        return None
    return y.num


def family_members(lam: Poly, curve: CurveParams, deg_bound: int) -> FamilyResult:
    """All ring elements of degree <= deg_bound in C_lambda, with witnesses."""
    ctx = curve.ctx
    if lam.is_zero():
        zero = Poly.zero(ctx)
        return FamilyResult(lam, curve.N, deg_bound, [zero], True, {zero: zero})
    members: list[Poly] = []
    witnesses: dict = {}
    for x in all_polys(ctx, deg_bound):
        y = membership_witness(x, lam, curve)
        if y is not None:
            members.append(x)
            witnesses[x] = y
    members.sort(key=Poly.sort_key)
    return FamilyResult(lam, curve.N, deg_bound, members, True, witnesses)


def family_grow(pt: ECPoint, curve: CurveParams, n_target: int) -> tuple[Poly, FamilyResult]:
    """Scale the multiples of a non-torsion point into the family until it
    holds at least n_target members.

    lambda is the least common multiple of the coordinate denominators of
    P, 2P, ..., n_target*P; the member bound is the largest degree of the
    scaled x-coordinates.
    """
    if n_target < 1:
        raise ValueError("n_target must be >= 1")
    # the one on-curve check of P: is_torsion raises OffCurve
    if is_torsion(pt, curve):
        raise TorsionPoint("family growth needs a point outside the torsion set")
    ctx = curve.ctx
    multiples: list[ECPoint] = []
    acc = ECPoint.infinity()
    for i in range(1, n_target + 1):
        acc = _add_step(acc, pt, curve)
        if acc.is_infinity or acc in multiples:
            raise DistinctnessFailure(f"multiple {i}P collided; the point is torsion")
        multiples.append(acc)
    lam = Poly.one(ctx)
    for mp in multiples:
        lam = poly_lcm(lam, mp.x.den)
        lam = poly_lcm(lam, mp.y.den)
    scaled: list[Poly] = []
    for mp in multiples:
        sx = RatFunc.from_poly(lam) * mp.x
        assert sx.is_polynomial()
        scaled.append(sx.num)
    bound = max(max((sx.degree() for sx in scaled if not sx.is_zero()), default=0),
                0)
    result = family_members(lam, curve, bound)
    for sx in scaled:
        assert sx in result.witnesses, "scaled multiple missing from the family"
    assert len(result.members) >= n_target, "family smaller than the target size"
    return lam, result


def polynomial_in_powers(f: Poly, n: int) -> Poly:
    """Monic fbar != 0 with f * fbar in F_q[s^n]."""
    if f.is_zero():
        raise ZeroInput("f must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = f.ctx
    if f.is_constant():
        return Poly.one(ctx)
    multiple = Poly.one(ctx)
    for h, mult in factor(f):
        qh = _minimal_poly_of_root_power(h, n)
        qh_n = qh.compose_monomial(n)
        # least k with h^mult dividing qh(s^n)^k
        w = poly_valuation(qh_n, h)
        k = -(-mult // w)
        multiple = multiple * qh_n ** k
    quot, rem = divmod(multiple, f)
    assert rem.is_zero(), "complement construction must divide exactly"
    return quot.monic()


def _minimal_poly_of_root_power(h: Poly, n: int) -> Poly:
    """Minimal polynomial over F_q of beta = alpha^n, alpha a root of
    irreducible h: the product of X - beta^(q^i) over the Frobenius orbit of
    beta, multiplied out in F_q[s]/(h).  Frobenius fixes the product, so its
    coefficients are constants."""
    ctx, m = h.ctx, h.coeffs
    minv = _barrett(ctx, m)  # one inverse series of h for every power
    beta = _powmod(ctx, (Poly.gen(ctx) % h).coeffs, n, m, minv)
    orbit = [beta]
    while (conj := _powmod(ctx, orbit[-1], ctx.q, m, minv)) != beta:
        orbit.append(conj)
    orbit = [Poly(ctx, b) for b in orbit]
    zero = Poly.zero(ctx)
    coeffs = [Poly.one(ctx)]  # low to high, each reduced mod h
    for b in orbit:  # times X - b
        coeffs = [lo - (b * c) % h for lo, c in zip([zero] + coeffs, coeffs + [zero])]
    assert all(c.is_constant() for c in coeffs), "orbit product must lie in F_q[X]"
    return Poly(ctx, [c.coeffs[0] if c else 0 for c in coeffs])
