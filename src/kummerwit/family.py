"""The definable family C_lambda and its cardinality growth, plus the
polynomial-in-powers complement.

C_lambda collects the ring elements x for which some polynomial y satisfies
y^2 * lambda = x * (x + lambda) * (x + lambda * s^N); scaling a curve point
(x0, y0) by lambda lands (lambda*x0, lambda*y0) in that equation, so enough
multiples of a non-torsion point force the family beyond any target size.

Conversely, family_members reads the members off the point search.  For
lambda != 0 of degree d, x = lambda*X and y = lambda*Y show that x is a
member exactly when (X, Y) is a point on y^2 = x(x+1)(x+s^N) with lambda*X
and lambda*Y polynomials.  The search's points have X = u/b^2 and Y = z/b^3
in lowest terms (curve_ff), so both are polynomials exactly when Y.den =
b^3 divides lambda.  Then deg b^2 <= 2*floor(d/3) and deg u <= deg_bound -
d + 2*floor(d/3), the bounds of the search; for a negative numerator bound
only x = 0 is left.  The witness is y = lambda*Y, up to sign: y^2*lambda =
lambda^3*Y^2 = lambda^3*X(X+1)(X+s^N) = x(x+lambda)(x+lambda*s^N), so no
second square root is taken.

polynomial_in_powers(f, n) returns a monic complement fbar with
f * fbar in F_q[s^n], built from the minimal polynomials of the n-th powers
of the roots of f: for each irreducible factor h of multiplicity m, the
factor q_h(s^n) (q_h the minimal polynomial of alpha^n for a root alpha of
h) is included with the least exponent k such that h^m divides q_h(s^n)^k.
q_h is the product of X - beta over the Frobenius orbit beta, beta^q, ...
of alpha^n, computed in F_q[s]/(h).  h divides q_h(s^n) n times when h = s
(q_h = X), else p^v times for n = p^v*n', p !| n': q_h(s^n) = g(s^n')^(p^v),
g the separable p^v-th root of q_h, with alpha a simple root of g(s^n') (n',
alpha, g'(alpha^n') != 0).  deg f*fbar <= n deg f (deg q_h <= deg h, k <= m),
held to DEGREE_MAX (WorkBound).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .base_algebra.grammar import format_poly
from .base_algebra.poly import DEGREE_MAX, Poly, _barrett, _powmod, factor, poly_lcm
from .base_algebra.ratfunc import RatFunc, ratfunc_sqrt
from .curve_ff import CurveParams, ECPoint, _add_step, is_torsion, point_search
from .errors import DistinctnessFailure, TorsionPoint, WorkBound, ZeroInput


@dataclass
class FamilyResult:
    lam: Poly
    N: int
    deg_bound: int
    members: list[Poly]
    witnesses: dict  # member -> the recovered polynomial y
    exhaustive = True  # every member within the bound is listed

    def as_record(self) -> dict:
        return {
            "lambda": format_poly(self.lam),
            "curve_exponent": self.N,
            "deg_bound": self.deg_bound,
            "members": [format_poly(m) for m in self.members],
            "witnesses": {format_poly(m): format_poly(y) for m, y in self.witnesses.items()},
            "exhaustive": self.exhaustive,
        }


def membership_witness(x: Poly, lam: Poly, curve: CurveParams):
    """The polynomial y with y^2*lam = x(x+lam)(x+lam*s^N), or None: the
    root of the exact quotient by lam."""
    ctx = curve.ctx
    if lam.is_zero():
        # y^2 * 0 = x^3 forces x = 0, witnessed by y = 0
        return Poly.zero(ctx) if x.is_zero() else None
    quo, rem = divmod(x * (x + lam) * (x + lam.shift(curve.N)), lam)
    if rem:
        return None
    y = ratfunc_sqrt(RatFunc.from_poly(quo))
    return None if y is None else y.num


def family_members(lam: Poly, curve: CurveParams, deg_bound: int) -> FamilyResult:
    """All ring elements of degree <= deg_bound in C_lambda, with witnesses:
    each member is x = lambda*X for a point (X, Y) that point_search finds
    within the bounds of the module docstring, with Y.den dividing lambda,
    and its witness is y = +-lambda*Y (module docstring), of the sign that
    ratfunc_sqrt, and so membership_witness, would return: the leading
    coefficient of least code.  WorkBound above the search cap."""
    if deg_bound < 0:
        raise ValueError("deg_bound must be >= 0")
    d = lam.degree()
    if lam.is_zero() or deg_bound < d - 2 * (d // 3):  # x = 0 alone, witnessed by y = 0
        zero = Poly.zero(curve.ctx)
        return FamilyResult(lam, curve.N, deg_bound, [zero], {zero: zero})
    den_deg = 2 * (d // 3)
    found: dict = {}
    for pt in point_search(curve, deg_bound - d + den_deg, den_deg):
        if lam % pt.y.den:
            continue
        x = lam // pt.x.den * pt.x.num
        if x.degree() <= deg_bound and x not in found:
            y = lam // pt.y.den * pt.y.num
            found[x] = min(y, -y, key=lambda f: f.coeffs[-1:])
    return FamilyResult(lam, curve.N, deg_bound, sorted(found, key=Poly.sort_key), found)


def family_grow(pt: ECPoint, curve: CurveParams, n_target: int) -> tuple[Poly, FamilyResult]:
    """Scale the multiples of a non-torsion point into the family until it
    holds at least n_target members.

    lambda is the lcm of the denominators of P, 2P, ..., n_target*P, that
    is of the y-denominators: at a pole of x, v(x + 1) = v(x + s^N) = v(x)
    < 0, so 2v(y) = 3v(x) < 2v(x) and x.den divides y.den.  The member bound
    is the largest degree of the scaled x-coordinates.  So each kP is a
    point whose y.den divides lambda, and lambda*x(kP) is a member
    (family_members).  kP = +-jP for j < k <= n_target would make P torsion,
    so the x(kP) are distinct and a family of fewer than n_target members
    means P is torsion (is_torsion certifies only two-torsion for even N):
    DistinctnessFailure.
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
        lam = poly_lcm(lam, mp.y.den)
    bound = max((lam // mp.x.den * mp.x.num).degree() for mp in multiples)
    result = family_members(lam, curve, bound)
    if len(result.members) < n_target:
        raise DistinctnessFailure(f"the family holds {len(result.members)} members, "
                                  f"fewer than {n_target}; the point is torsion")
    return lam, result


def polynomial_in_powers(f: Poly, n: int) -> Poly:
    """Monic fbar != 0 with f * fbar in F_q[s^n]; 1 for a constant f (no
    factor).  f divides the multiple: its factors h^mult are pairwise
    coprime, and h^mult divides qh(s^n)^k, as h divides qh(s^n) n times
    for h = s and p^v times else (module docstring)."""
    if f.is_zero():
        raise ZeroInput("f must be nonzero")
    if n < 1:
        raise ValueError("n must be >= 1")
    if f.degree() * n > DEGREE_MAX:
        raise WorkBound(f"deg f * n = {f.degree() * n} exceeds the degree cap {DEGREE_MAX}")
    p_part = gcd(n, f.ctx.p ** n.bit_length())  # p^v for n = p^v * n', p !| n'
    multiple = Poly.one(f.ctx)
    for h, mult in factor(f):
        qh_n = _minimal_poly_of_root_power(h, n).compose_monomial(n)
        # least k with h^mult dividing qh(s^n)^k; h = s has multiplicity n
        k = -(-mult // (p_part if h.coeffs[0] else n))
        multiple = multiple * qh_n ** k
    return (multiple // f).monic()


def _minimal_poly_of_root_power(h: Poly, n: int) -> Poly:
    """Minimal polynomial over F_q of beta = alpha^n, alpha a root of
    irreducible h: the product of X - beta^(q^i) over the Frobenius orbit of
    beta, multiplied out in F_q[s]/(h).  Frobenius x -> x^q permutes the
    orbit, so it fixes each coefficient, and the elements of the field
    F_q[s]/(h) that it fixes are F_q: each reduced coefficient is a constant."""
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
    return Poly(ctx, [c.coeffs[0] if c else 0 for c in coeffs])
