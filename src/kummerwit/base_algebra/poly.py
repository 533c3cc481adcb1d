"""Polynomials over F_q in the indeterminate s, with exact factorization.

A Poly stores its coefficients low-to-high as a tuple of ints with no
trailing zero; the zero polynomial is the empty tuple and its degree is
NEG_INF, float minus infinity.  A coefficient is its element's code
(FieldCtx.encode): the residue in [0, p) for a = 1, else the int whose
base-p digits are the element's vector, first coordinate most significant,
so int order is element order.  FF is the scalar at the API edges (lc,
evaluate, scale, const, monomial, the grammar).

One int-list kernel serves every field.  _mul is Kronecker substitution: the
operands are packed into ints with byte slots wide enough for any product
slot, multiplied once, unpacked and reduced.  _divmod does schoolbook long
division when quotient length times divisor length is below
_LONG_DIVISION_MAX (short Euclid steps); else it takes the quotient from the
power-series inverse of the reversed divisor (Newton iteration on _mul),
which powmod computes once per call (Barrett reduction).  gcd, extended gcd
and CRT run on int lists and box a Poly only when they return.

Factorization is squarefree decomposition (characteristic-p aware), then
distinct-degree splitting (lazy, by increasing degree), then randomized
equal-degree splitting with a caller-fixed seed, so factor lists are
deterministic.  is_irreducible reads only the first distinct-degree part.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from itertools import zip_longest

from ..errors import BothZero, NotCoprime, ZeroInput
from .fields import FF, FieldCtx, power


NEG_INF = float("-inf")  # degree of the zero polynomial, below every integer


class Poly:
    """Element of F_q[s]; coefficients are codes (see the module docstring)."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs=()):
        self.ctx = ctx
        cs = tuple(coeffs)
        n = len(cs)
        while n and not cs[n - 1]:
            n -= 1
        self.coeffs = cs[:n]

    # -- constructors -----------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "Poly":
        """Poly with prime-subfield coefficients given as plain ints."""
        return cls(ctx, [c % ctx.p * ctx.unit for c in ints])

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (ctx.unit,))

    @classmethod
    def const(cls, ctx: FieldCtx, c) -> "Poly":
        return cls(ctx, (ctx.encode(ctx.elem(c)),))

    @classmethod
    def gen(cls, ctx: FieldCtx) -> "Poly":
        """The indeterminate s."""
        return cls(ctx, (0, ctx.unit))

    @classmethod
    def monomial(cls, ctx: FieldCtx, k: int, c=1) -> "Poly":
        return cls(ctx, (0,) * k + (ctx.encode(ctx.elem(c)),))

    # -- structure ----------------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self) -> FF:
        if not self.coeffs:
            raise ValueError("leading coefficient of zero")
        return self.ctx.decode(self.coeffs[-1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == (self.ctx.unit,)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.unit

    def sort_key(self):
        """(degree, coefficients low-to-high); total order on F_q[s]."""
        return (len(self.coeffs), self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Poly) or self.coeffs != other.coeffs:
            return False
        f, g = self.ctx, other.ctx
        return f is g or (f.p == g.p and f.modulus == g.modulus)

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        from .grammar import format_poly
        return format_poly(self)

    # -- ring operations ------------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return Poly(self.ctx, _addsub(self.ctx, self.coeffs, other.coeffs, 1))

    def __sub__(self, other: "Poly") -> "Poly":
        return Poly(self.ctx, _addsub(self.ctx, self.coeffs, other.coeffs, -1))

    def __neg__(self) -> "Poly":
        return Poly(self.ctx, _addsub(self.ctx, (), self.coeffs, -1))

    def __mul__(self, other: "Poly") -> "Poly":
        return Poly(self.ctx, _mul(self.ctx, self.coeffs, other.coeffs))

    def scale(self, c: FF) -> "Poly":
        if not c:
            return Poly.zero(self.ctx)
        return Poly(self.ctx, _mul(self.ctx, self.coeffs, [self.ctx.encode(c)]))

    def shift(self, k: int) -> "Poly":
        """Multiply by s^k."""
        return Poly(self.ctx, (0,) * k + self.coeffs)

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        quo, rem = _divmod(self.ctx, self.coeffs, other.coeffs)
        return Poly(self.ctx, quo), Poly(self.ctx, rem)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative polynomial power")
        return power(self, n, Poly.one(self.ctx))

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return Poly(self.ctx, _mul(self.ctx, self.coeffs, [_inv(self.ctx, self.coeffs[-1])]))

    def derivative(self) -> "Poly":
        ctx = self.ctx
        p, vec, code = ctx.p, ctx._vec, ctx._code
        return Poly(ctx, [code([x * i % p for x in vec(c)])
                          for i, c in enumerate(self.coeffs) if i])

    def evaluate(self, x: FF) -> FF:
        """Horner's rule on z-digit vectors."""
        ctx = self.ctx
        p, xv = ctx.p, x.coeffs
        raw_mul, vec, acc = ctx._raw_mul, ctx._vec, ctx.zero().coeffs
        for c in reversed(self.coeffs):
            acc = tuple((u + v) % p for u, v in zip(raw_mul(acc, xv), vec(c)))
        return FF(ctx, acc)

    def compose_monomial(self, k: int) -> "Poly":
        """Substitute s -> s^k."""
        if k < 1:
            raise ValueError("exponent must be >= 1")
        out = [0] * ((len(self.coeffs) - 1) * k + 1) if self.coeffs else []
        out[::k] = self.coeffs
        return Poly(self.ctx, out)

    def powmod(self, n: int, mod: "Poly") -> "Poly":
        ctx, m = self.ctx, mod.coeffs
        result, base = (Poly.one(ctx) % mod).coeffs, (self % mod).coeffs
        # Barrett: a product of two residues has a quotient shorter than m - 1
        minv = _inv_series(ctx, m[::-1], max(len(m) - 2, 1))
        while n:
            if n & 1:
                result = _divmod(ctx, _mul(ctx, result, base), m, minv)[1]
            n >>= 1
            if n:
                base = _divmod(ctx, _mul(ctx, base, base), m, minv)[1]
        return Poly(ctx, result)


# -- the int-list kernel ------------------------------------------------------------
# Lists hold codes low-to-high.  _mul and _inv_series may end in zeros;
# _addsub, _divmod's remainder and the gcd routines return trimmed lists.

_KRONECKER_MIN = 32  # products of fewer coefficient pairs go by schoolbook
# quotient length * divisor length below this: long division, unless the
# caller holds the divisor's inverse series (Barrett, as in powmod)
_LONG_DIVISION_MAX = 384


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _pack(vals: list, width: int, p: int) -> int:
    """One int holding vals (each below p) in slots of width bytes, first lowest."""
    if p * width >= 256:
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in vals), "little")
    data = bytearray(width * len(vals))
    data[::width] = bytes(vals)
    return int.from_bytes(data, "little")


@lru_cache(maxsize=64)
def _byte_tables(p: int, width: int) -> list[bytes]:
    """Table i maps a byte b to b * 256^i mod p."""
    return [bytes(b * 256 ** i % p for b in range(256)) for i in range(width)]


def _unpack_mod(n: int, width: int, count: int, p: int) -> list:
    """The count slots of n, each reduced mod p."""
    data = n.to_bytes(width * count, "little")
    if p * width >= 256:
        return [int.from_bytes(data[i:i + width], "little") % p
                for i in range(0, len(data), width)]
    # reduce each byte column by table, add the columns (sums stay < 256), reduce again
    tables = _byte_tables(p, width)
    acc = sum(int.from_bytes(data[i::width].translate(t), "little") for i, t in enumerate(tables))
    return list(acc.to_bytes(count, "little").translate(tables[0]))


def _mul(ctx: FieldCtx, f, g) -> list:
    """f * g as len(f) + len(g) - 1 codes: slot lists (for a > 1 each code's
    z-digits and a - 1 zeros) convolved by one bigint product (Kronecker) or,
    below _KRONECKER_MIN pairs, by schoolbook; for a > 1 then reduced by the modulus."""
    if not f or not g:
        return []
    p, a = ctx.p, ctx.a
    n, count = min(len(f), len(g)), (len(f) + len(g) - 1) * (2 * a - 1)
    schoolbook, square = len(f) * len(g) < _KRONECKER_MIN, f is g
    if a > 1:
        vec, pad = ctx._vec, (0,) * (a - 1)
        f, g = ([x for c in h for x in vec(c) + pad] for h in (f, g))
    if schoolbook:
        prod = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g, i):
                    prod[j] += x * y
        prod = [v % p for v in prod[:count]]
    else:
        width = -(-(a * (p - 1) ** 2 * n).bit_length() // 8)  # bytes for any product slot
        packed = _pack(f, width, p)  # a square packs once and squares faster
        prod = packed * (packed if square else _pack(g, width, p))
        prod = _unpack_mod(prod, width, count, p)
    if a == 1:
        return prod
    step = 2 * a - 1  # each block of product slots is one s-coefficient
    return [ctx._code(ctx._reduce(prod[i:i + step])) for i in range(0, count, step)]


def _addsub(ctx: FieldCtx, f, g, sign: int) -> list:
    """f + sign * g, trimmed."""
    p = ctx.p
    pairs = zip_longest(f, g, fillvalue=0)
    if ctx.a == 1:
        return _trim([(x + sign * y) % p for x, y in pairs])
    vec, code = ctx._vec, ctx._code
    return _trim([code([(u + sign * v) % p for u, v in zip(vec(x), vec(y))])
                  for x, y in pairs])


def _inv(ctx: FieldCtx, c: int) -> int:
    if ctx.a == 1:
        return pow(c, ctx.p - 2, ctx.p)
    return ctx._code(ctx._raw_inv(ctx._vec(c)))


def _inv_series(ctx: FieldCtx, b, n: int) -> list:
    """g with b * g = 1 mod s^n, for b[0] != 0, by Newton iteration."""
    g = [_inv(ctx, b[0])]
    while len(g) < n:
        m = len(g)
        k = min(2 * m, n)
        e = _mul(ctx, b[:k], g)[m:k]  # b*g = 1 + s^m * e mod s^k
        t = _addsub(ctx, (), _mul(ctx, g, e)[:k - m], -1)
        g += t + [0] * (k - m - len(t))  # g <- g - s^m * g * e
    return g


def _divmod(ctx: FieldCtx, f, g, ginv=None) -> tuple[list, list]:
    """(quotient, remainder) for g nonzero and trimmed.  ginv, when given, is
    the inverse series of reversed g to at least the quotient's length."""
    m = len(f) - len(g) + 1  # quotient length
    if m <= 0:
        return [], list(f)
    if len(g) == 1:  # a unit divides exactly
        return _mul(ctx, f, [_inv(ctx, g[0])]), []
    if ginv is None:
        if m * len(g) < _LONG_DIVISION_MAX:
            return _long_divmod(ctx, f, g)
        ginv = _inv_series(ctx, g[::-1], m)
    quo = _mul(ctx, f[:-m - 1:-1], ginv[:m])[m - 1::-1]
    dg = len(g) - 1
    return quo, _addsub(ctx, f[:dg], _mul(ctx, quo[:dg], g[:dg])[:dg], -1)


def _long_divmod(ctx: FieldCtx, f, g) -> tuple[list, list]:
    """_divmod by schoolbook long division.  Remainder slots accumulate
    unreduced: residues for a = 1, z-polynomials of degree < 2a - 1 else;
    each is reduced when read as the next leading term and at the end."""
    p, a, dg, m = ctx.p, ctx.a, len(g) - 1, len(f) - len(g) + 1
    quo = [0] * m
    if a == 1:  # 3-7x faster than the z-vector loop below run at a = 1
        inv, rem = _inv(ctx, g[-1]), list(f)
        for k in range(m - 1, -1, -1):
            c = rem[k + dg] % p * inv % p
            if c:
                quo[k] = c
                rem[k:k + dg] = [x - c * y for x, y in zip(rem[k:k + dg], g)]
        return quo, _trim([x % p for x in rem[:dg]])
    vec, reduce, pad = ctx._vec, ctx._reduce, [0] * (a - 1)
    inv, gv = vec(_inv(ctx, g[-1])), [vec(y) for y in g[:dg]]
    rem = [list(vec(x)) + pad for x in f]
    for k in range(m - 1, -1, -1):
        top = reduce(rem[k + dg])
        if any(top):
            c = ctx._raw_mul(top, inv)
            quo[k] = ctx._code(c)
            for acc, y in zip(rem[k:k + dg], gv):
                for i, ci in enumerate(c):
                    if ci:
                        for j, yj in enumerate(y, i):
                            acc[j] -= ci * yj
    return quo, _trim([ctx._code(reduce(x)) for x in rem[:dg]])


def _gcd(ctx: FieldCtx, f, g) -> list:
    """Monic gcd of two lists, not both zero."""
    while g:
        f, g = g, _divmod(ctx, f, g)[1]
    return _mul(ctx, f, [_inv(ctx, f[-1])])


def _ext_gcd(ctx: FieldCtx, f, g) -> tuple[list, list]:
    """(d, u) with d = gcd(f, g) monic and u*f = d mod g, for f, g not both
    zero; the cofactor of g is left out, since (d - u*f) / g recovers it."""
    r0, r1 = f, g
    u0, u1 = [ctx.unit], []
    while r1:
        quo, rem = _divmod(ctx, r0, r1)
        r0, r1 = r1, rem
        u0, u1 = u1, _addsub(ctx, u0, _mul(ctx, quo, u1), -1)
    scale = [_inv(ctx, r0[-1])]
    return _mul(ctx, r0, scale), _mul(ctx, u0, scale)


# -- gcd family ---------------------------------------------------------------------


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) raises BothZero."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    return Poly(f.ctx, _gcd(f.ctx, f.coeffs, g.coeffs))


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
    d, u = _ext_gcd(ctx, f.coeffs, g.coeffs)
    v = _divmod(ctx, _addsub(ctx, d, _mul(ctx, u, f.coeffs), -1), g.coeffs)[0] if g else []
    return Poly(ctx, d), Poly(ctx, u), Poly(ctx, v)


def crt(pairs: list[tuple[Poly, Poly]]) -> Poly:
    """Solve x = r_i mod m_i for pairwise-coprime nonconstant moduli.

    The result has degree below the sum of the moduli degrees.
    """
    if not pairs:
        raise ValueError("crt needs at least one congruence")
    for _, m in pairs:
        if m.is_constant():
            raise ValueError("crt moduli must be nonconstant")
    ctx, mod = pairs[0][1].ctx, pairs[0][1].coeffs
    res = _divmod(ctx, pairs[0][0].coeffs, mod)[1]
    for r, m in pairs[1:]:
        m = m.coeffs
        d, u = _ext_gcd(ctx, mod, m)
        if d != [ctx.unit]:
            raise NotCoprime(f"moduli {Poly(ctx, mod)!r} and {Poly(ctx, m)!r} "
                             f"share factor {Poly(ctx, d)!r}")
        # x = res + mod * t with t = u*(r - res) mod m, since u*mod = 1 mod m;
        # deg x < deg mod + deg m, so x needs no further reduction
        t = _divmod(ctx, _mul(ctx, u, _addsub(ctx, r.coeffs, res, -1)), m)[1]
        res = _addsub(ctx, res, _mul(ctx, mod, t), 1)
        mod = _mul(ctx, mod, m)
    return Poly(ctx, res)


# -- enumeration ----------------------------------------------------------------------


def polys_of_degree(ctx: FieldCtx, deg: int, monic: bool = False):
    """All polynomials of exactly this degree (monic ones only if asked), in
    lexicographic coefficient order: constant coefficient slowest, leading
    coefficient fastest."""
    for coeffs in itertools.product(*coefficient_slots(ctx, deg, monic)):
        yield Poly(ctx, coeffs)


def coefficient_slots(ctx: FieldCtx, deg: int, monic: bool = False) -> list:
    """The codes each coefficient of a polys_of_degree polynomial runs over,
    constant term first; polys_of_degree is their itertools.product."""
    elems = range(ctx.q)  # codes, in element order
    return [elems] * deg + [[ctx.unit] if monic else elems[1:]]


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
    """True exactly when f has degree >= 1 and no proper factor.

    Read off the first part of the distinct-degree split, which is exact for
    any monic f, squarefree or not.  The irreducible factors of a reducible
    f, repeated or not, have a least degree e <= deg f / 2.  For d < e the
    gcd of s^(q^d) - s with f is 1, and at d = e the split yields a part of
    index e < deg f.  So the first part is (f, deg f) exactly when f is
    irreducible; f = h^2 yields (h, deg h) first.  s | f exits before the
    split: irreducibles runs the constant coefficient slowest, so its first
    q^(deg - 1) candidates are all multiples of s."""
    d = f.degree()
    if d < 1:
        return False
    if not f.coeffs[0]:  # s divides f
        return d == 1
    f = f.monic()
    return next(_ddf(f)) == (f, d)


def _pth_root(f: Poly) -> Poly:
    """Inverse Frobenius on a polynomial whose derivative vanishes."""
    ctx = f.ctx
    p = ctx.p
    root_exp = p ** (ctx.a - 1)  # c -> c^(p^(a-1)) inverts c -> c^p in F_{p^a}
    out = []
    for i in range(0, len(f.coeffs), p):
        out.append(ctx.encode(ctx.decode(f.coeffs[i]) ** root_exp))
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


def _ddf(f: Poly):
    """Distinct-degree split of a monic polynomial, lazily: yields (part, d)
    by increasing d, part the product of the degree-d irreducible factors
    when f is squarefree.  For any monic f the first part is (f, deg f)
    exactly when f is irreducible (see is_irreducible)."""
    ctx = f.ctx
    s = Poly.gen(ctx)
    h = s % f
    d = 0
    rest = f
    while rest.degree() > 0:
        d += 1
        if 2 * d > rest.degree():
            yield rest, rest.degree()
            return
        h = h.powmod(ctx.q, rest)
        g = poly_gcd(h - s, rest) if (h - s) else rest
        if not g.is_one():
            yield g, d
            rest = rest // g
            h = h % rest


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


def _rand_elem(ctx: FieldCtx, rng: random.Random) -> int:
    return ctx._code([rng.randrange(ctx.p) for _ in range(ctx.a)])


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
