"""The curves y^2 = x(x+1)(x+s^N) over F_q(s): exact group law, torsion,
bounded point search, and a tower-stabilization probe.

Points live in projective closure: Infinity or Affine(x, y) with rational
function coordinates satisfying the equation exactly.  Torsion
certification tests membership in the two-torsion set
{O, (0,0), (-1,0), (-s^N,0)}, which on the curve is O or y = 0; for the
odd prime exponents the rank machinery produces, that set is the full
torsion subgroup.  Even exponents can carry four-torsion (on N = 2 over
F_3(s) the point (s, s(s+1)) doubles to (0,0)), so there is_torsion
certifies only two-torsion membership.

point_search finds every x = u/w, u and w coprime, w monic, within the
degree bounds, for which x(x+1)(x+s^N) = u(u+w)(u+w*s^N)/w^3 is a square,
that is, for which F = w*u*(u+w)*(u+w*s^N) is a square in F_q[s].  Only
pairs of a forced shape can qualify (Silverman, AEC X.1).  Take N >= 1 and
F nonzero.
- A prime dividing w divides none of u, u + w and u + w*s^N, since each
  shares with w exactly the factors of gcd(u, w) = 1.  So every valuation
  of w is even, and w = b^2 with b monic.
- A prime pi dividing u does not divide u + w.  If v_pi(u) is odd, then
  v_pi(u + w*s^N) is odd too, so pi divides gcd(u, u + w*s^N), which
  divides w*s^N.  As pi does not divide w, pi = s.  So u = c*s^e*a^2 with c
  the leading unit, e in {0, 1} and a monic.
- A zero factor makes u = 0, -w or -w*s^N, coprime to w only for w = 1:
  x = 0, -1 or -s^N, which have that shape as well.
So the search walks u = 0 and u = c*s^e*a^2 against w = b^2, about the
square root of the raw pair count.

A square in F_q[s] has even degree and a square leading coefficient, and
in a block of candidates with deg b, e and deg a fixed both are known
before any candidate is built.  Put du = e + 2*deg a and dw = 2*deg b: u
has degree du and lead c, w*s^k degree dw + k and lead 1.  For k in
{0, N}, u + w*s^k has
- degree du and lead c when du > dw + k,
- degree dw + k and lead 1 when du < dw + k,
- degree du and lead c + 1 when du = dw + k and c != -1.
As N >= 1, at most one k ties.  So F, whose factor w = b^2 has even degree
and lead 1, has the parity of du + max(du, dw) + max(du, dw + N) and the
square class of c^(1 + n) * (c + 1)^t, n the number of k with du > dw + k
and t = 1 when some k ties.  The search keeps the leads c for which that
degree is even and that lead a square, and builds no a^2 in a block with
none (_search_leads).  At c = -1 with du in {dw, dw + N} the lead of
u + w*s^k cancels and the rule decides nothing, so those leads are kept;
the two-torsion x = -1 and x = -s^N are among them, and x = 0 is the
candidate u = 0.

The sieve then drops a lead c of a pair (b, a) before its candidate is
built.  The search takes the root of P = u(u+w)(u+w*s^N), and a square in
F_q[s] is a square or zero at every place s = alpha, so a candidate with
P(alpha) a nonzero non-square has no point.  With t = u(alpha) =
c*alpha^e*a(alpha)^2 and W = b(alpha)^2, P(alpha) = t(t+W)(t+W*alpha^N).
W is taken once per b, alpha^e*a(alpha)^2 once per field and block (e,
deg a), and a row per (b, alpha) marks the t with P(alpha) a nonzero
non-square, so a lead costs one table read per place (_search_sieve).
Evaluating u and w inside the candidate test instead was measured slower
than no test, because nothing was shared between candidates.  At most
SIEVE_PLACES places are tried, in code order; fields above poly._TABLE_MAX
with a > 1 are not sieved.  Every kept candidate is decided exactly: degree
parity of F, then gcd(u, b) = 1 (lowest terms), then ratfunc_sqrt of
u(u+w)(u+w*s^N), which is prime to w, so y is that root over b^3.
"""

from __future__ import annotations

import itertools
import operator
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache, partial

from .base_algebra.fields import FieldCtx, field_ctx
from .base_algebra.grammar import format_point
from .base_algebra.intarith import is_prime
from .base_algebra.poly import (DEGREE_MAX, Poly, _add, _times, _zech, poly_gcd,
                                polys_of_degree)
from .base_algebra.ratfunc import RatFunc, ratfunc_sqrt
from .errors import BadModulus, BadN, OffCurve, WorkBound


@dataclass(frozen=True)
class CurveParams:
    ctx: FieldCtx
    N: int

    def __post_init__(self):
        if self.N < 1 or self.N % self.ctx.p == 0:
            raise BadN(f"N = {self.N} must be positive and coprime to p = {self.ctx.p}")
        if self.N > DEGREE_MAX:
            raise WorkBound(f"N = {self.N} exceeds the degree cap {DEGREE_MAX}")

    def a2(self) -> RatFunc:
        return RatFunc.from_poly(Poly.one(self.ctx) + Poly.monomial(self.ctx, self.N))

    def a4(self) -> RatFunc:
        return RatFunc.from_poly(Poly.monomial(self.ctx, self.N))

    def rhs(self, x: RatFunc) -> RatFunc:
        one = RatFunc.one(self.ctx)
        sN = RatFunc.from_poly(Poly.monomial(self.ctx, self.N))
        return x * (x + one) * (x + sN)


def curve_make(ctx: FieldCtx, N: int) -> CurveParams:
    return CurveParams(ctx, N)


def j_invariant(curve: CurveParams) -> RatFunc:
    """Legendre's formula j = 256 (t^2 - t + 1)^3 / (t^2 (t - 1)^2), t = s^N:
    x -> -x takes the curve to y^2 = -x(x - 1)(x - t), the -1 twist of
    Legendre's curve with lambda = t, and twists keep j (Silverman, AEC III.1.7)."""
    ctx = curve.ctx
    t = Poly.monomial(ctx, curve.N)
    one = Poly.one(ctx)
    return RatFunc(Poly.const(ctx, 256) * (t * t - t + one) ** 3, (t * (t - one)) ** 2)


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
    """Chord-tangent law on y^2 = x^3 + a2 x^2 + a4 x, inputs checked."""
    _require_on_curve(p1, curve)
    _require_on_curve(p2, curve)
    return _add_step(p1, p2, curve)


def _add_step(p1: ECPoint, p2: ECPoint, curve: CurveParams) -> ECPoint:
    """ec_add for points known to lie on the curve."""
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
    """k*P by double-and-add; P is checked once, the steps are not."""
    _require_on_curve(pt, curve)
    if k < 0:
        k, pt = -k, ec_neg(pt)
    acc = ECPoint.infinity()
    while k:
        if k & 1:
            acc = _add_step(acc, pt, curve)
        k >>= 1
        if k:  # no doubling past the top bit
            pt = _add_step(pt, pt, curve)
    return acc


def two_torsion(curve: CurveParams) -> list[ECPoint]:
    """The two-torsion points: infinity and the three roots of the cubic
    (the full torsion for odd N, see the module docstring)."""
    ctx = curve.ctx
    zero = RatFunc.zero(ctx)
    return [
        ECPoint.infinity(),
        ECPoint.affine(zero, zero),
        ECPoint.affine(-RatFunc.one(ctx), zero),
        ECPoint.affine(-RatFunc.from_poly(Poly.monomial(ctx, curve.N)), zero),
    ]


def is_torsion(pt: ECPoint, curve: CurveParams) -> bool:
    """Membership in two_torsion(curve), that is O or y = 0."""
    _require_on_curve(pt, curve)
    return pt.is_infinity or not pt.y


# -- bounded point search ------------------------------------------------------------

# The most candidates a search tries, counted before its leads rule and
# sieve; the time grows with N and with the share they keep: 37,883 (p = 3,
# bounds (12, 4)) took 0.58 / 2.3 / 2.6 s at N = 5 / 22 / 44 (an even N above
# num_deg keeps 37,675 past the leads rule, and F_3 has three places to sieve
# at), and 33,097 (F_13, (4, 2)) 4 ms at N = 3 and 30 ms at N = 2 (min of 3,
# Python 3.11, one core of a 2-CPU machine).
SEARCH_CANDIDATES_MAX = 40_000


def point_search(curve: CurveParams, num_deg: int, den_deg: int,
                 workers: int = 1) -> list[ECPoint]:
    """All affine points with x = u/w, deg u <= num_deg, deg w <= den_deg,
    u, w coprime and w monic; exhaustive within bounds, deterministic order.

    Only the candidates of the forced shape are tried (module docstring).
    Only the bounds, the candidate cap (WorkBound) and workers, in
    [1, os.cpu_count()], are checked; found points are on the curve by
    construction.  Shard i of `workers` processes builds the candidates of
    the (b, a) pairs i, i + workers, ... (see _candidates); the merged
    points are sorted.
    """
    if num_deg < 0 or den_deg < 0:
        raise ValueError("bounds must be >= 0")
    cpus = os.cpu_count() or 1
    if not 1 <= workers <= cpus:
        raise ValueError(f"workers = {workers} must lie in [1, {cpus}]")
    _check_search_work(curve.ctx, num_deg, den_deg)
    if workers > 1:
        shard_search = partial(_search_shard, curve, num_deg, den_deg, stride=workers)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shards = list(pool.map(shard_search, range(workers)))
    else:
        shards = [_search_shard(curve, num_deg, den_deg, 0, 1)]
    return sorted((pt for shard in shards for pt in shard), key=ECPoint.sort_key)


def _search_shard(curve: CurveParams, num_deg: int, den_deg: int,
                  shard: int, stride: int) -> list[ECPoint]:
    """The points over the candidates of the (b, a) pairs shard,
    shard + stride, ... of the walk that _search_leads and _search_sieve keep."""
    walk = _candidates(curve.ctx, num_deg, den_deg, _search_leads(curve),
                       _search_sieve(curve), shard, stride)
    return [pt for u, w, b in walk for pt in _points_from_x(curve, u, w, b)]


def _search_leads(curve: CurveParams):
    """leads(deg b, e, deg a): the units c of that block for which F can be a
    square, F of even degree with a square leading coefficient, and c = -1
    where the lead of u + w*s^k may cancel (module docstring)."""
    N, square_leads, minus_one = curve.N, _square_leads(curve.ctx), [-curve.ctx.one()]

    def leads(db: int, e: int, da: int) -> list:
        du, dw = e + 2 * da, 2 * db
        cancels = du in (dw, dw + N)
        if (du + max(du, dw) + max(du, dw + N)) % 2:
            return minus_one if cancels else []
        return square_leads[(1 + (du > dw) + (du > dw + N)) % 2, cancels]
    return leads


@lru_cache(maxsize=32)
def _square_leads(ctx: FieldCtx) -> dict:
    """(i, j) -> the units c, in element order, with c^i * (c + 1)^j a square
    or zero (c = -1 at j = 1, where the lead cancels)."""
    one = ctx.one()
    return {(i, j): [c for c in ctx.elements() if c and (c ** i * (c + one) ** j).is_square()]
            for i in (0, 1) for j in (0, 1)}


# The most places s = alpha, alpha in code order, at which _search_sieve tests
# a candidate.  Each place keeps about half of what reaches it, and a place
# costs a row of q entries per b: near the cap 4 / 8 / 12 / 16 / 24 places took
# 157 / 31 / 16 / 17 / 17 ms over F_13 (N = 2, bounds (4, 2)), 41 / 9.8 / 6.4 /
# 7.3 / 8.6 ms over F_27 and 45 / 8.6 / 8.2 / 8.9 / 9.5 ms over F_31 (N = 2,
# (2, 2)) (min of 3, Python 3.11, one core of a 2-CPU machine).
SIEVE_PLACES = 12


def _search_sieve(curve: CurveParams):
    """sieve(b) -> keep(e, da, cs): for each monic a of degree da, in
    polys_of_degree order, the leads c in cs for which P = u(u+w)(u+w*s^N),
    u = c*s^e*a^2 and w = b^2, is zero or a square at each of the first
    SIEVE_PLACES places s = alpha (module docstring); None for a field above
    poly._TABLE_MAX, which is not sieved.  w's values are taken once per b
    and the a's once per field and block (_sieve_lifts), so a lead costs one
    row read per place."""
    ctx = curve.ctx
    if ctx.a > 1 and _zech(ctx) is None:
        return None
    key, n, combine = _sieve_keys(ctx)
    alphas = list(itertools.islice(ctx.elements(), SIEVE_PLACES))
    alpha_n = [(x ** curve.N).code for x in alphas]

    def sieve(b: Poly):
        rows = []
        for x, xn in zip(alphas, alpha_n):
            bx = b.evaluate(x).code
            w = _times(ctx, bx, bx)
            rows.append(_sieve_row(ctx, w, _times(ctx, w, xn)))

        def keep(e: int, da: int, cs: list):
            for lifts in _sieve_lifts(ctx, e, da):
                kept = cs
                for i, k in lifts:
                    r = rows[i]
                    kept = [c for c in kept if not r[combine(key[c.code], k) % n]]
                    if not kept:
                        break
                yield kept
        return keep
    return sieve


def _sieve_keys(ctx: FieldCtx):
    """(key, n, combine): a nonzero code's key is its residue mod n = p for
    a = 1, and its Zech logarithm mod n = q - 1 for table fields, so that
    combine(key c, key A) % n is the key of c*A."""
    if ctx.a == 1:
        return range(ctx.p), ctx.p, operator.mul
    log, exp, _ = ctx.logs()
    return log, len(exp), operator.add


@lru_cache(maxsize=32)
def _sieve_lifts(ctx: FieldCtx, e: int, da: int) -> list:
    """For each monic a of degree da, in polys_of_degree order, the pairs
    (i, key of alpha^e * a(alpha)^2) at the sieve's places alpha = code i
    where that value is nonzero.  A place's values come one coefficient at a
    time, the next one varying fastest."""
    key = _sieve_keys(ctx)[0]
    cols = []
    for x in range(min(ctx.q, SIEVE_PLACES)):
        vals, power = [0], ctx.unit
        for _ in range(da):
            terms = [_times(ctx, c, power) for c in range(ctx.q)]
            vals = [_add(ctx, v, t, 1) for v in vals for t in terms]
            power = _times(ctx, power, x)
        shift = x if e else ctx.unit
        monic = [_add(ctx, v, power, 1) for v in vals]
        cols.append([key[y] if (y := _times(ctx, _times(ctx, v, v), shift)) else None
                     for v in monic])
    return [[(i, k) for i, k in enumerate(ks) if k is not None] for ks in zip(*cols)]


@lru_cache(maxsize=256)
def _sieve_row(ctx: FieldCtx, w: int, v: int) -> list:
    """For each key of t, in order, whether t(t + w)(t + v) is a nonzero
    non-square.  For a = 1 the key is t; for table fields t = g^k, and the
    product has logarithm 3k + log(1 + w/t) + log(1 + v/t), None at a zero."""
    if ctx.a == 1:
        p = ctx.p
        squares = {x * x % p for x in range(p)}
        return [t * (t + w) * (t + v) % p not in squares for t in range(p)]
    log, exp, zech = ctx.logs()
    n = len(exp)
    lw, lv = ([zech[(log[x] - k) % n] for k in range(n)] if x else [0] * n for x in (w, v))
    return [z is not None and y is not None and (k + z + y) % 2 == 1
            for k, z, y in zip(range(n), lw, lv)]


def _candidates(ctx: FieldCtx, num_deg: int, den_deg: int, leads=None, sieve=None,
                shard: int = 0, stride: int = 1):
    """(0, 1, 1), then the triples (c*s^e*a^2, b^2, b) within the bounds, b
    and a monic, c a unit and e in {0, 1}: by b, then e, then a, then c,
    each polynomial in polys_of_degree order by degree.  Given leads, the
    block (deg b, e, deg a) takes only the units leads(deg b, e, deg a), and
    a block with none builds no a^2.  Given a sieve, the pair (b, a) takes
    only the units sieve(b)(e, deg a, units) gives for a, and a pair with
    none builds no a^2.  The walk holds (0, 1, 1) when shard is 0 and the
    (b, a) pairs shard, shard + stride, ..."""
    if shard == 0:
        yield Poly.zero(ctx), Poly.one(ctx), Poly.one(ctx)
    units = [c for c in ctx.elements() if c]
    leads = leads or (lambda db, e, da: units)
    sieve = sieve or (lambda b: lambda e, da, cs: itertools.repeat(cs))
    pairs = itertools.count(-shard)
    for db in range(den_deg // 2 + 1):
        blocks = [(e, da, cs) for e in (0, 1) for da in range((num_deg - e) // 2 + 1)
                  if (cs := leads(db, e, da))]
        for b in polys_of_degree(ctx, db, monic=True):
            w, keep = b * b, sieve(b)
            for e, da, cs in blocks:
                for a, kept in zip(polys_of_degree(ctx, da, monic=True), keep(e, da, cs)):
                    if next(pairs) % stride == 0 and kept:
                        square = (a * a).shift(e)
                        for c in kept:
                            yield square.scale(c), w, b


def _candidate_count(q: int, num_deg: int, den_deg: int) -> int:
    """The length of _candidates over F_q: 1 + (q - 1)*B*(A_0 + A_1), with B
    the monic b of degree <= den_deg/2, A_e the monic a of degree <= (num_deg - e)/2."""
    a_0, a_1, b = (sum(q ** i for i in range(k // 2 + 1)) for k in (num_deg, num_deg - 1, den_deg))
    return 1 + (q - 1) * b * (a_0 + a_1)


def _check_search_work(ctx: FieldCtx, num_deg: int, den_deg: int) -> None:
    """Raise WorkBound above SEARCH_CANDIDATES_MAX candidates, bounds >= 0.  A
    bound b alone gives over q^(b // 2), so b // 2 past the cap's bit length is refused."""
    if (max(num_deg, den_deg) // 2 > SEARCH_CANDIDATES_MAX.bit_length()
            or _candidate_count(ctx.q, num_deg, den_deg) > SEARCH_CANDIDATES_MAX):
        raise WorkBound(f"bounds ({num_deg}, {den_deg}) over F_{ctx.q} exceed the "
                        f"search cap of {SEARCH_CANDIDATES_MAX} candidates")


def _points_from_x(curve: CurveParams, u: Poly, w: Poly, b: Poly) -> list[ECPoint]:
    """The points with x = u/w, w = b^2, or none when u and b have a common
    factor.  x(x+1)(x+s^N) is u(u+w)(u+w*s^N) / w^3.  The search's leads
    rule has dropped every candidate of odd degree but the cancelling leads
    c = -1, whose degree it cannot know; the degree parity of the three
    factors (w^3 has even degree) is tested here, before the gcd and before
    any product.  The product is prime to w, so y is its root over
    b*w = b^3.  With no factor zero the product is nonzero, so a root y is
    nonzero and the points come in the pair (x, y), (x, -y)."""
    ctx = curve.ctx
    x = RatFunc(u, w, reduce=False)
    factors = (u, u + w, u + w.shift(curve.N))
    if not all(factors):  # a zero factor is a multiple of w: coprime only for w = 1
        return [ECPoint.affine(x, RatFunc.zero(ctx))] if w.is_one() else []
    if sum(f.degree() for f in factors) % 2:  # odd degree at infinity
        return []
    if not (b.is_one() or poly_gcd(u, b).is_one()):
        return []
    root = ratfunc_sqrt(RatFunc.from_poly(factors[0] * factors[1] * factors[2]))
    if root is None:
        return []
    y = RatFunc(root.num, b * w, reduce=False)
    return [ECPoint.affine(x, y), ECPoint.affine(x, -y)]


# -- tower stabilization probe ----------------------------------------------------


@dataclass
class StabilizationReport:
    """Empirical estimate only: the probe reports the last level at which the
    bounded search produced points not lifted from below; it never claims
    this equals the true stabilization level."""

    n_est: int
    levels: list[dict] = field(default_factory=list)
    heuristic = True  # an estimate, never a certified level

    def as_record(self) -> dict:
        return {"n_est": self.n_est, "heuristic": self.heuristic, "levels": self.levels}


def stabilization_probe(p: int, a: int, q: int, r: int, n_max: int,
                        bounds: tuple[int, int], workers: int = 1) -> StabilizationReport:
    """Search the curves with exponent q*r^n for n = 0..n_max, with degree
    bounds scaled by r^n, identify points down the tower via s -> s^(r^k),
    and report the last level contributing new points.

    An (affine) point (u/w, y) of level n - 1 lifts by s -> s^r to one in
    lowest terms (a Bezout identity survives s -> s^r), w(s^r) monic,
    within the bounds scaled by r^n and on the curve with exponent q*r^n,
    which the exhaustive search at level n finds; a lift from further down
    is the lift of a level n - 1 point.  Lifting is injective, so level n
    has len(level n) - len(level n - 1) new points.

    q and r must be primes distinct from each other and from p; r = 2 is
    accepted here (the tower identification is generic in r) even though
    the rank statements need r = 3 mod 4.  Every level's exponent and
    bounds are checked (WorkBound) before the first search.
    """
    if not (is_prime(q) and is_prime(r)) or len({p, q, r}) != 3:
        raise BadModulus(f"q = {q}, r = {r} must be primes distinct from p = {p}")
    if n_max < 0 or bounds[0] < 0 or bounds[1] < 0:
        raise ValueError("n_max and bounds must be >= 0")
    ctx = field_ctx(p, a)
    levels = []
    for n in range(n_max + 1):
        scaled = [b * r ** n for b in bounds]
        levels.append((CurveParams(ctx, q * r ** n), scaled))
        _check_search_work(ctx, *scaled)
    report = StabilizationReport(0)
    prev = 0
    for n, (curve, scaled) in enumerate(levels):
        pts = point_search(curve, *scaled, workers=workers)
        if len(pts) > prev:  # at n = 0 nothing is lifted, and n_est stays 0
            report.n_est = n
        report.levels.append({
            "n": n, "curve_exponent": curve.N, "bounds": scaled,
            "points": [format_point(pt) for pt in pts],
            "new_count": len(pts) - prev,
        })
        prev = len(pts)
    return report
