"""The curves y^2 = x(x+1)(x+s^N) over F_q(s): exact group law, torsion,
bounded point search, and a tower-stabilization probe.

Points live in projective closure: Infinity or Affine(x, y) with rational
function coordinates satisfying the equation exactly.  Torsion
certification tests membership in the two-torsion set
{O, (0,0), (-1,0), (-s^N,0)} directly; for the odd prime exponents the
rank machinery produces, that set is the full torsion subgroup.  Even
exponents can carry four-torsion (on N = 2 over F_3(s) the point
(s, s(s+1)) doubles to (0,0)), so there is_torsion certifies only
two-torsion membership.

point_search enumerates x = u/w over coprime pairs with w monic within the
degree bounds and keeps the x for which x(x+1)(x+s^N) is a square; cheap
exact necessary tests (sample-point squareness, degree parity, leading
coefficient squareness) run before the full square-root decision.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from .base_algebra.fields import FF, FieldCtx, field_ctx
from .base_algebra.poly import Poly, all_polys, poly_gcd, polys_of_degree
from .base_algebra.ratfunc import RatFunc, ratfunc_sqrt
from .errors import BadN, OffCurve


@dataclass(frozen=True)
class CurveParams:
    ctx: FieldCtx
    N: int

    def __post_init__(self):
        if self.N < 1 or self.N % self.ctx.p == 0:
            raise BadN(f"N = {self.N} must be positive and coprime to p = {self.ctx.p}")

    def a2(self) -> RatFunc:
        return RatFunc.from_poly(Poly.one(self.ctx) + Poly.monomial(self.ctx, self.N))

    def a4(self) -> RatFunc:
        return RatFunc.from_poly(Poly.monomial(self.ctx, self.N))

    def rhs(self, x: RatFunc) -> RatFunc:
        one = RatFunc.one(self.ctx)
        sN = RatFunc.from_poly(Poly.monomial(self.ctx, self.N))
        return x * (x + one) * (x + sN)

    def __eq__(self, other):
        return (isinstance(other, CurveParams) and self.N == other.N
                and self.ctx.p == other.ctx.p and self.ctx.modulus == other.ctx.modulus)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.modulus, self.N))


def curve_make(ctx: FieldCtx, N: int) -> CurveParams:
    return CurveParams(ctx, N)


def j_invariant(curve: CurveParams) -> RatFunc:
    """j = c4^3 / Delta computed from the standard quantities of the cubic
    model y^2 = x^3 + a2 x^2 + a4 x; reduced as a rational function."""
    ctx = curve.ctx
    a2 = curve.a2()
    a4 = curve.a4()
    four = RatFunc.const(ctx, 4)
    two = RatFunc.const(ctx, 2)
    b2 = four * a2
    b4 = two * a4
    b8 = -(a4 * a4)
    c4 = b2 * b2 - RatFunc.const(ctx, 24) * b4
    disc = -(b2 * b2 * b8) - RatFunc.const(ctx, 8) * b4 ** 3
    return c4 ** 3 / disc


class ECPoint:
    """Infinity or an affine point with rational-function coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: RatFunc | None, y: RatFunc | None):
        self.x = x
        self.y = y

    @classmethod
    def infinity(cls) -> "ECPoint":
        return cls(None, None)

    @classmethod
    def affine(cls, x: RatFunc, y: RatFunc) -> "ECPoint":
        return cls(x, y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other):
        return isinstance(other, ECPoint) and self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        from .base_algebra.grammar import format_point
        return format_point(self)

    def sort_key(self):
        if self.is_infinity:
            return (0, (), ())
        return (1, self.x.sort_key(), self.y.sort_key())


def is_on_curve(pt: ECPoint, curve: CurveParams) -> bool:
    if pt.is_infinity:
        return True
    return pt.y * pt.y == curve.rhs(pt.x)


def _require_on_curve(pt: ECPoint, curve: CurveParams):
    if not is_on_curve(pt, curve):
        raise OffCurve(f"{pt!r} is not on the curve with N = {curve.N}")


def ec_neg(pt: ECPoint) -> ECPoint:
    if pt.is_infinity:
        return pt
    return ECPoint.affine(pt.x, -pt.y)


def ec_add(p1: ECPoint, p2: ECPoint, curve: CurveParams) -> ECPoint:
    """Chord-tangent law on y^2 = x^3 + a2 x^2 + a4 x with identity at infinity."""
    _require_on_curve(p1, curve)
    _require_on_curve(p2, curve)
    if p1.is_infinity:
        return p2
    if p2.is_infinity:
        return p1
    ctx = curve.ctx
    if p1.x == p2.x:
        if p1.y == -p2.y:
            return ECPoint.infinity()
        # tangent: m = (3x^2 + 2 a2 x + a4) / (2y)
        three = RatFunc.const(ctx, 3)
        two = RatFunc.const(ctx, 2)
        m = (three * p1.x * p1.x + two * curve.a2() * p1.x + curve.a4()) / (two * p1.y)
    else:
        m = (p2.y - p1.y) / (p2.x - p1.x)
    x3 = m * m - curve.a2() - p1.x - p2.x
    y3 = m * (p1.x - x3) - p1.y
    return ECPoint.affine(x3, y3)


def ec_mul(k: int, pt: ECPoint, curve: CurveParams) -> ECPoint:
    _require_on_curve(pt, curve)
    if k < 0:
        return ec_mul(-k, ec_neg(pt), curve)
    acc = ECPoint.infinity()
    base = pt
    while k:
        if k & 1:
            acc = ec_add(acc, base, curve)
        base = ec_add(base, base, curve)
        k >>= 1
    return acc


def two_torsion(curve: CurveParams) -> list[ECPoint]:
    """The full torsion: infinity and the three roots of the cubic."""
    ctx = curve.ctx
    zero = RatFunc.zero(ctx)
    return [
        ECPoint.infinity(),
        ECPoint.affine(zero, zero),
        ECPoint.affine(-RatFunc.one(ctx), zero),
        ECPoint.affine(-RatFunc.from_poly(Poly.monomial(ctx, curve.N)), zero),
    ]


def is_torsion(pt: ECPoint, curve: CurveParams) -> bool:
    _require_on_curve(pt, curve)
    return pt in two_torsion(curve)


# -- bounded point search ------------------------------------------------------------


def _search_candidates(ctx: FieldCtx, num_deg: int, den_deg: int):
    """Coprime (u, w) pairs, w monic, in deterministic order."""
    for dw in range(den_deg + 1):
        for w in polys_of_degree(ctx, dw, monic=True):
            for u in all_polys(ctx, num_deg):
                if u.is_zero():
                    if w.is_one():
                        yield u, w
                    continue
                if w.is_one() or poly_gcd(u, w).is_one():
                    yield u, w


def _points_from_x(curve: CurveParams, u: Poly, w: Poly,
                   sample: list[tuple[FF, FF]]) -> list[ECPoint]:
    ctx = curve.ctx
    # sample-point filter: a square function takes square values off its
    # poles; where w(c) != 0, w*u*(u+w)*(u+w*c^N) = g(c)*w(c)^4 has the square
    # class of g(c) and needs no field division
    for c, cN in sample:
        wc = w.evaluate(c)
        if not wc:
            continue
        uc = u.evaluate(c)
        if not (wc * uc * (uc + wc) * (uc + wc * cN)).is_square():
            return []
    num = u * (u + w) * (u + w.shift(curve.N))
    den = w ** 3
    if num.is_zero():
        x = RatFunc(u, w, reduce=False)
        return [ECPoint.affine(x, RatFunc.zero(ctx))]
    # degree parity at infinity and leading-unit squareness
    if (num.degree() + den.degree()) % 2 != 0 or not num.lc().is_square():
        return []
    y = ratfunc_sqrt(RatFunc(num, den, reduce=False))
    if y is None:
        return []
    x = RatFunc(u, w, reduce=False)
    if y.is_zero():
        return [ECPoint.affine(x, y)]
    return [ECPoint.affine(x, y), ECPoint.affine(x, -y)]


def point_search(curve: CurveParams, num_deg: int, den_deg: int,
                 workers: int = 1) -> list[ECPoint]:
    """All affine points with x = u/w, deg u <= num_deg, deg w <= den_deg,
    u, w coprime and w monic; exhaustive within bounds, deterministic order."""
    if num_deg < 0 or den_deg < 0:
        raise ValueError("bounds must be >= 0")
    ctx = curve.ctx
    if workers > 1:
        return _point_search_parallel(curve, num_deg, den_deg, workers)
    sample = _sample_points(ctx, curve.N)
    out: list[ECPoint] = []
    for u, w in _search_candidates(ctx, num_deg, den_deg):
        out.extend(_points_from_x(curve, u, w, sample))
    out.sort(key=ECPoint.sort_key)
    return out


def _sample_points(ctx: FieldCtx, N: int) -> list[tuple[FF, FF]]:
    elems = list(ctx.elements()) if ctx.q <= 16 else list(itertools.islice(ctx.elements(), 8))
    return [(c, c ** N) for c in elems]


def _parallel_shard(args) -> list[tuple]:
    p, a, modulus, N, num_deg, den_deg, shard, stride = args
    ctx = field_ctx(p, a, modulus if a > 1 else None)
    curve = CurveParams(ctx, N)
    sample = _sample_points(ctx, N)
    out = []
    for i, (u, w) in enumerate(_search_candidates(ctx, num_deg, den_deg)):
        if i % stride != shard:
            continue
        for pt in _points_from_x(curve, u, w, sample):
            out.append((pt.x.num.coeff_vectors(), pt.x.den.coeff_vectors(),
                        pt.y.num.coeff_vectors(), pt.y.den.coeff_vectors()))
    return out


def _point_search_parallel(curve: CurveParams, num_deg: int, den_deg: int,
                           workers: int) -> list[ECPoint]:
    ctx = curve.ctx
    args = [(ctx.p, ctx.a, ctx.modulus, curve.N, num_deg, den_deg, shard, workers)
            for shard in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        shards = list(pool.map(_parallel_shard, args))
    pts = []
    for shard in shards:
        for xn, xd, yn, yd in shard:
            x = RatFunc(_poly_from_vectors(ctx, xn), _poly_from_vectors(ctx, xd), reduce=False)
            y = RatFunc(_poly_from_vectors(ctx, yn), _poly_from_vectors(ctx, yd), reduce=False)
            pts.append(ECPoint.affine(x, y))
    pts.sort(key=ECPoint.sort_key)
    return pts


def _poly_from_vectors(ctx: FieldCtx, vectors) -> Poly:
    return Poly(ctx, [ctx.encode(ctx.elem(v)) for v in vectors])


# -- tower stabilization probe ----------------------------------------------------


@dataclass
class StabilizationReport:
    """Empirical estimate only: the probe reports the last level at which the
    bounded search produced points not lifted from below; it never claims
    this equals the true stabilization level."""

    n_est: int
    heuristic: bool
    levels: list[dict] = field(default_factory=list)

    def as_record(self) -> dict:
        return {"n_est": self.n_est, "heuristic": self.heuristic, "levels": self.levels}


def stabilization_probe(p: int, a: int, q: int, r: int, n_max: int,
                        bounds: tuple[int, int], workers: int = 1) -> StabilizationReport:
    """Search the curves with exponent q*r^n for n = 0..n_max, with degree
    bounds scaled by r^n, identify points down the tower via s -> s^(r^k),
    and report the last level contributing new points.

    q and r must be primes distinct from each other and from p; r = 2 is
    accepted here (the tower identification is generic in r) even though
    the rank statements need r = 3 mod 4.
    """
    from .base_algebra.grammar import format_point
    from .base_algebra.intarith import is_prime
    from .errors import BadModulus
    if not (is_prime(q) and is_prime(r)) or len({p, q, r}) != 3:
        raise BadModulus(f"q = {q}, r = {r} must be primes distinct from p = {p}")
    if n_max < 0 or bounds[0] < 0 or bounds[1] < 0:
        raise ValueError("n_max and bounds must be >= 0")
    ctx = field_ctx(p, a)
    num_deg, den_deg = bounds
    seen: set[ECPoint] = set()
    report = StabilizationReport(0, True)
    prev_levels: list[list[ECPoint]] = []
    for n in range(n_max + 1):
        scale = r ** n
        curve = CurveParams(ctx, q * scale)
        pts = point_search(curve, num_deg * scale, den_deg * scale, workers=workers)
        lifted: set[ECPoint] = set()
        for k, level_pts in enumerate(prev_levels):
            factor = r ** (n - k)
            for pt in level_pts:
                lifted.add(_lift_point(pt, factor))
        new = [pt for pt in pts if pt not in lifted]
        if n > 0 and new:
            report.n_est = n
        report.levels.append({
            "n": n, "curve_exponent": q * scale,
            "bounds": [num_deg * scale, den_deg * scale],
            "points": [format_point(pt) for pt in sorted(pts, key=ECPoint.sort_key)],
            "new_count": len(new) if n > 0 else len(pts),
        })
        prev_levels.append(pts)
    return report


def _lift_point(pt: ECPoint, factor: int) -> ECPoint:
    if pt.is_infinity or factor == 1:
        return pt
    from .base_algebra.ratfunc import poly_subs_monomial
    return ECPoint.affine(poly_subs_monomial(pt.x, factor), poly_subs_monomial(pt.y, factor))
