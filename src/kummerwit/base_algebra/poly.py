"""Polynomials over F_q in the indeterminate s, with exact factorization.

A Poly stores its coefficients low-to-high as a tuple of field elements with
no trailing zero; the zero polynomial is the empty tuple and its degree is
the NEG_INF sentinel, which compares below every integer.  All operations
are exact.

Factorization is squarefree decomposition (characteristic-p aware), then
distinct-degree splitting, then randomized equal-degree splitting with a
caller-fixed seed, so factor lists are deterministic.
"""

from __future__ import annotations

import itertools
import random

from ..errors import BothZero, NotCoprime, ZeroInput
from .fields import FF, FieldCtx


class _NegInf:
    """Degree of the zero polynomial: less than every integer."""

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return not isinstance(other, _NegInf)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _NegInf)

    def __eq__(self, other):
        return isinstance(other, _NegInf)

    def __hash__(self):
        return hash("kummerwit-neg-inf")

    def __neg__(self):
        raise ArithmeticError("cannot negate -inf")

    def __repr__(self):
        return "-inf"


NEG_INF = _NegInf()


class Poly:
    """Element of F_q[s]."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self.ctx = ctx
        cs = tuple(coeffs)
        while cs and not cs[-1]:
            cs = cs[:-1]
        self.coeffs = cs

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "Poly":
        """Poly with prime-subfield coefficients given as plain ints."""
        return cls(ctx, tuple(ctx.elem(c) for c in ints))

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (ctx.one(),))

    @classmethod
    def const(cls, ctx: FieldCtx, c) -> "Poly":
        return cls(ctx, (ctx.elem(c),))

    @classmethod
    def gen(cls, ctx: FieldCtx) -> "Poly":
        """The indeterminate s."""
        return cls(ctx, (ctx.zero(), ctx.one()))

    @classmethod
    def monomial(cls, ctx: FieldCtx, k: int, c=1) -> "Poly":
        return cls(ctx, (ctx.zero(),) * k + (ctx.elem(c),))

    # -- structure ----------------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self) -> FF:
        if not self.coeffs:
            raise ValueError("leading coefficient of zero")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.coeffs[0] == self.ctx.one()

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one()

    def coeff_vectors(self) -> list[tuple[int, ...]]:
        """Raw integer coefficient vectors, low-to-high (for serialization)."""
        return [c.coeffs for c in self.coeffs]

    def sort_key(self):
        """(degree, coefficient vectors low-to-high); total order on F_q[s]."""
        return (len(self.coeffs), tuple(c.coeffs for c in self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        from .grammar import format_poly
        return format_poly(self)

    # -- ring operations ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ctx, out)

    def __sub__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        zero = self.ctx.zero()
        out = [(a[i] if i < len(a) else zero) - (b[i] if i < len(b) else zero)
               for i in range(n)]
        return Poly(self.ctx, out)

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.ctx)
        ctx = self.ctx
        raw_mul = ctx._raw_mul
        p, ext = ctx.p, ctx.a
        if ext == 1:
            av = [c.coeffs[0] for c in a]
            bv = [c.coeffs[0] for c in b]
            out = [0] * (len(av) + len(bv) - 1)
            for i, ai in enumerate(av):
                if ai:
                    for j, bj in enumerate(bv):
                        out[i + j] += ai * bj
            return Poly(ctx, tuple(FF(ctx, (v % p,)) for v in out))
        zero_vec = (0,) * ext
        out_vecs = [zero_vec] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                av = ai.coeffs
                for j, bj in enumerate(b):
                    if bj:
                        prod = raw_mul(av, bj.coeffs)
                        cur = out_vecs[i + j]
                        out_vecs[i + j] = tuple((x + y) % p for x, y in zip(cur, prod))
        return Poly(ctx, tuple(FF(ctx, v) for v in out_vecs))

    def scale(self, c: FF) -> "Poly":
        if not c:
            return Poly.zero(self.ctx)
        return Poly(self.ctx, tuple(x * c for x in self.coeffs))

    def shift(self, k: int) -> "Poly":
        """Multiply by s^k."""
        if not self.coeffs:
            return self
        return Poly(self.ctx, (self.ctx.zero(),) * k + self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        ctx = self.ctx
        dv = len(other.coeffs) - 1
        if len(self.coeffs) - 1 < dv:
            return Poly.zero(ctx), self
        if ctx.a == 1:
            p = ctx.p
            rem = [c.coeffs[0] for c in self.coeffs]
            oc = [c.coeffs[0] for c in other.coeffs]
            inv_lc = pow(oc[-1], p - 2, p)
            quo = [0] * (len(rem) - dv)
            for k in range(len(rem) - 1, dv - 1, -1):
                c = rem[k] % p
                if c:
                    c = c * inv_lc % p
                    quo[k - dv] = c
                    for j in range(dv):
                        rem[k - dv + j] -= c * oc[j]
                    rem[k] = 0
            return (Poly(ctx, tuple(FF(ctx, (v % p,)) for v in quo)),
                    Poly(ctx, tuple(FF(ctx, (v % p,)) for v in rem[:dv])))
        rem = list(self.coeffs)
        inv_lc = other.lc().inv()
        quo = [ctx.zero()] * (len(rem) - dv)
        oc = other.coeffs
        for k in range(len(rem) - 1, dv - 1, -1):
            c = rem[k]
            if c:
                c = c * inv_lc
                quo[k - dv] = c
                for j in range(dv + 1):
                    rem[k - dv + j] = rem[k - dv + j] - c * oc[j]
        return Poly(ctx, quo), Poly(ctx, rem[:dv])

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        result = Poly.one(self.ctx)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self.scale(self.lc().inv())

    def derivative(self) -> "Poly":
        ctx = self.ctx
        out = []
        for i in range(1, len(self.coeffs)):
            k = ctx.elem(i)
            out.append(self.coeffs[i] * k)
        return Poly(ctx, out)

    def evaluate(self, x: FF) -> FF:
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose_monomial(self, k: int) -> "Poly":
        """Substitute s -> s^k."""
        if k < 1:
            raise ValueError("exponent must be >= 1")
        ctx = self.ctx
        zero = ctx.zero()
        out = []
        for c in self.coeffs:
            out.append(c)
            out.extend([zero] * (k - 1))
        return Poly(ctx, out[: (len(self.coeffs) - 1) * k + 1] if self.coeffs else ())

    def powmod(self, n: int, mod: "Poly") -> "Poly":
        result = Poly.one(self.ctx) % mod
        base = self % mod
        while n:
            if n & 1:
                result = (result * base) % mod
            base = (base * base) % mod
            n >>= 1
        return result


# -- gcd family ---------------------------------------------------------------------


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) raises BothZero."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    while g:
        f, g = g, f % g
    return f.monic()


def poly_valuation(f: Poly, pi: Poly) -> int:
    """Largest v with pi^v dividing f, for f nonzero and pi nonconstant."""
    if f.is_zero():
        raise ZeroInput("valuation of zero is undefined")
    v = 0
    while True:
        q, r = divmod(f, pi)
        if not r.is_zero():
            return v
        v += 1
        f = q


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with d = gcd(f, g) monic and u*f + v*g = d exactly."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    ctx = f.ctx
    r0, r1 = f, g
    u0, u1 = Poly.one(ctx), Poly.zero(ctx)
    v0, v1 = Poly.zero(ctx), Poly.one(ctx)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    scale = r0.lc().inv()
    return r0.scale(scale), u0.scale(scale), v0.scale(scale)


def crt(pairs: list[tuple[Poly, Poly]]) -> Poly:
    """Solve x = r_i mod m_i for pairwise-coprime nonconstant moduli.

    The result has degree below the sum of the moduli degrees.
    """
    if not pairs:
        raise ValueError("crt needs at least one congruence")
    for _, m in pairs:
        if m.is_constant():
            raise ValueError("crt moduli must be nonconstant")
    res, mod = pairs[0]
    res = res % mod
    for r, m in pairs[1:]:
        d, u, _ = poly_ext_gcd(mod, m)
        if not d.is_one():
            raise NotCoprime(f"moduli {mod!r} and {m!r} share factor {d!r}")
        # x = res + mod * t with t = u*(r - res) mod m, since u*mod = 1 mod m
        t = (u * (r - res)) % m
        res = res + mod * t
        mod = mod * m
        res = res % mod
    return res


# -- enumeration ----------------------------------------------------------------------


def polys_of_degree(ctx: FieldCtx, deg: int, monic: bool = False):
    """All polynomials of exactly this degree (monic ones only if asked), in
    lexicographic coefficient order: constant coefficient slowest, leading
    coefficient fastest."""
    elems = list(ctx.elements())
    lead = [ctx.one()] if monic else elems[1:]
    for coeffs in itertools.product(*[elems] * deg, lead):
        yield Poly(ctx, coeffs)


def irreducibles(ctx: FieldCtx, deg: int):
    """All monic irreducibles of exactly this degree, lexicographic, lazily."""
    if deg < 1:
        raise ValueError("degree must be >= 1")
    return filter(is_irreducible, polys_of_degree(ctx, deg, monic=True))


def irreducibles_stream(ctx: FieldCtx):
    """All monic irreducibles, by increasing degree then lexicographic."""
    for deg in itertools.count(1):
        yield from irreducibles(ctx, deg)


def all_polys(ctx: FieldCtx, max_deg: int | None = None):
    """All polynomials of degree <= max_deg (all of F_q[s] when None): zero
    first, then by exact degree, each degree in polys_of_degree order."""
    yield Poly.zero(ctx)
    degrees = itertools.count() if max_deg is None else range(max_deg + 1)
    for d in degrees:
        yield from polys_of_degree(ctx, d)


# -- irreducibility and factorization ----------------------------------------------


def is_irreducible(f: Poly) -> bool:
    """Rabin's test: deg >= 1, s^(q^d) = s mod f, proper Frobenius gcds trivial."""
    d = f.degree()
    if d is NEG_INF or d < 1:
        return False
    if d == 1:
        return True
    ctx = f.ctx
    q = ctx.q
    s = Poly.gen(ctx)
    h = s
    powers = {}
    for k in range(1, d + 1):
        h = h.powmod(q, f)
        powers[k] = h
    if powers[d] != s % f:
        return False
    from .intarith import factorint
    for ell in factorint(d):
        g = poly_gcd(powers[d // ell] - s, f) if (powers[d // ell] - s) else f
        if not g.is_one():
            return False
    return True


def _pth_root(f: Poly) -> Poly:
    """Inverse Frobenius on a polynomial whose derivative vanishes."""
    ctx = f.ctx
    p = ctx.p
    root_exp = p ** (ctx.a - 1)  # c -> c^(p^(a-1)) inverts c -> c^p in F_{p^a}
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(f.coeffs[i] ** root_exp)
    return Poly(ctx, out)


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """[(g_i, e_i)] with f = lc * prod g_i^e_i, g_i monic squarefree coprime.

    Characteristic-p aware: parts with vanishing derivative are p-th powers
    and are handled by coefficient-wise inverse Frobenius.
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    out: dict[Poly, int] = {}

    def accumulate(g: Poly, mult: int):
        if g.is_constant():
            return
        d = g.derivative()
        if d.is_zero():
            accumulate(_pth_root(g), mult * g.ctx.p)
            return
        c = poly_gcd(g, d)
        w = g // c
        i = 1
        while not w.is_one():
            y = poly_gcd(w, c) if not c.is_constant() else Poly.one(g.ctx)
            z = w // y
            if not z.is_constant():
                out[z.monic()] = out.get(z.monic(), 0) + i * mult
            w = y
            c = c // y
            i += 1
        if not c.is_constant():
            accumulate(_pth_root(c), mult * g.ctx.p)

    accumulate(f.monic(), 1)
    return sorted(out.items(), key=lambda kv: kv[0].sort_key())


def _ddf(f: Poly) -> list[tuple[Poly, int]]:
    """Distinct-degree split of a monic squarefree polynomial."""
    ctx = f.ctx
    q = ctx.q
    s = Poly.gen(ctx)
    out = []
    h = s % f
    d = 0
    rest = f
    while rest.degree() is not NEG_INF and rest.degree() > 0:
        d += 1
        if 2 * d > rest.degree():
            out.append((rest, rest.degree()))
            break
        h = h.powmod(q, rest)
        g = poly_gcd(h - s, rest) if (h - s) else rest
        if not g.is_one():
            out.append((g, d))
            rest = rest // g
            h = h % rest
    return out


def _edf(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d irreducibles."""
    n = f.degree()
    if n == d:
        return [f]
    ctx = f.ctx
    exponent = (ctx.q ** d - 1) // 2
    while True:
        h = Poly(ctx, tuple(_rand_elem(ctx, rng) for _ in range(n)))
        if h.is_constant():
            continue
        g = poly_gcd(h, f) if h else f
        if not g.is_one() and g != f:
            break
        g = h.powmod(exponent, f) - Poly.one(ctx)
        if not g:
            continue
        g = poly_gcd(g, f)
        if not g.is_one() and g != f:
            break
    return sorted(_edf(g, d, rng) + _edf(f // g, d, rng), key=Poly.sort_key)


def _rand_elem(ctx: FieldCtx, rng: random.Random) -> FF:
    return FF(ctx, tuple(rng.randrange(ctx.p) for _ in range(ctx.a)))


def factor(f: Poly, seed: int = 0) -> list[tuple[Poly, int]]:
    """Full factorization into monic irreducibles with multiplicities.

    Deterministic for a fixed seed; factors sorted canonically.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    rng = random.Random(seed)
    out = []
    for g, e in squarefree_decomposition(f):
        for part, d in _ddf(g):
            for irr in _edf(part, d, rng):
                out.append((irr, e))
    return sorted(out, key=lambda kv: (kv[0].sort_key(), kv[1]))


def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero() or g.is_zero():
        return Poly.zero(f.ctx)
    return ((f * g) // poly_gcd(f, g)).monic()
