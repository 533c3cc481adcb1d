"""Polynomials over F_q in the indeterminate s, with exact factorization.

A Poly stores its coefficients low-to-high as a tuple of ints with no
trailing zero; the zero polynomial is the empty tuple and its degree is
NEG_INF, float minus infinity.  A coefficient is its element's code
(FF.code): the residue in [0, p) for a = 1, else the int whose base-p
digits are the element's vector, first coordinate most significant, so int
order is element order.  FF, which holds one code, is the scalar at the API
edges (lc, evaluate, scale, const, monomial, the grammar).

One int-list kernel serves every field and FF; the field and the operand
sizes pick the path.
- Scalars (_add, _times, _inv, on one code each for FF): residues for a = 1.
  Extension fields of at most _TABLE_MAX elements (table fields) add,
  multiply and invert on the Zech logarithms of FieldCtx.logs, one or two
  list lookups each.  Larger ones add on z-digits, multiply by _kronecker,
  and invert by extended Euclid over F_p against the field modulus.
- _mul: schoolbook for short products (a = 1: below _KRONECKER_MIN pairs;
  table fields: below _LOG_SCHOOLBOOK pairs per slot), else Kronecker
  substitution: the operands' slots (for a > 1, each code's z-digits,
  spread column by column) are packed into ints with byte slots wide enough
  for any product slot, multiplied once, unpacked, and for a > 1 folded
  back by the modulus column by column.
- _divmod: schoolbook long division (on logarithms for table fields) when
  quotient length times divisor length is below _LONG_DIVISION_MAX (a = 1)
  or _TABLE_LONG_DIVISION_MAX (table fields); larger extension fields never
  long-divide.  Else the quotient comes from the power-series inverse of the
  reversed divisor (Newton iteration on _mul).  _powmod takes that inverse
  from its caller (Barrett reduction): powmod computes it once per call,
  the distinct-degree split once per modulus.
- gcd and extended gcd (_euclid, behind poly_gcd, poly_ext_gcd, crt,
  squarefree decomposition, the distinct-degree split and RatFunc
  normalisation): extension fields take one _divmod per Euclid step.  Prime
  fields take _divmod only for leading steps whose quotient is at least as
  long as the divisor's degree; the rest of the remainder sequence runs in
  _packed_euclid on ints with 8-byte-word slots, one shift-and-add per
  quotient term, an operand's slots reduced mod p only when the next
  addend could overflow one.  The extended gcd carries both cofactors
  through one Euclid, as u + s^K v.
- _sqrt_monic (behind ratfunc_sqrt): the monic square root.  Where _divmod
  would long-divide a quotient and divisor as long as the root, it is read
  off the top half coefficient by coefficient, like a long division (on
  logarithms for table fields), and the bottom half is checked term by term,
  so a non-square stops at its first wrong coefficient.  Longer roots come
  from the inverse square root of the reversed polynomial by Newton
  iteration on _mul, checked by squaring.
gcd, extended gcd and CRT box a Poly only when they return.

Factorization is squarefree decomposition (characteristic-p aware), then
distinct-degree splitting (lazy, by increasing degree), then randomized
equal-degree splitting with a caller-fixed seed, so factor lists are
deterministic.  Each stage has one path, which its edge cases fall through
(see squarefree_decomposition, _ddf and _edf).  is_irreducible reads only
the first distinct-degree part.  places.py splits pi(s^(r^n)) by Kummer
theory instead, with _edf for its equal-degree parts.
"""

from __future__ import annotations

import itertools
import operator
import random
from array import array
from functools import lru_cache
from itertools import zip_longest

from ..errors import BothZero, NotCoprime, ZeroInput
from .fields import FF, FieldCtx, power


NEG_INF = float("-inf")  # degree of the zero polynomial, below every integer

# The most degree an input integer may give a dense tuple (WorkBound above): a curve
# exponent, deg f * n in polynomial_in_powers, a literal's exponent.  At 10,000 curve j took
# 1.0-1.5 s (F_3, F_5, F_7; Python 3.11, 2 CPUs); y(32P) of the golden mul point has degree 5,532.
DEGREE_MAX = 10_000


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
        return cls(ctx, (ctx.elem(c).code,))

    @classmethod
    def gen(cls, ctx: FieldCtx) -> "Poly":
        """The indeterminate s."""
        return cls(ctx, (0, ctx.unit))

    @classmethod
    def monomial(cls, ctx: FieldCtx, k: int, c=1) -> "Poly":
        return cls(ctx, (0,) * k + (ctx.elem(c).code,))

    # -- structure ----------------------------------------------------------------

    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def lc(self) -> FF:
        if not self.coeffs:
            raise ValueError("leading coefficient of zero")
        return FF(self.ctx, self.coeffs[-1])

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
        return Poly(self.ctx, _mul(self.ctx, self.coeffs, [c.code]))

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
        ctx, f = self.ctx, self.coeffs
        out = [0] * max(len(f) - 1, 0)
        for k in range(1, min(ctx.p, len(f))):  # the terms i*c*s^(i-1) with i = k mod p
            out[k - 1::ctx.p] = _mul(ctx, f[k::ctx.p], [k * ctx.unit])
        return Poly(ctx, out)

    def evaluate(self, x: FF) -> FF:
        """Horner's rule on codes."""
        ctx, acc = self.ctx, 0
        for c in reversed(self.coeffs):
            acc = _add(ctx, _times(ctx, acc, x.code), c, 1)
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
        return Poly(ctx, _powmod(ctx, (self % mod).coeffs, n, m, _barrett(ctx, m)))


# -- the int-list kernel ------------------------------------------------------------
# Lists hold codes low-to-high.  _mul and _inv_series may end in zeros;
# _addsub, _divmod's remainder and the gcd routines return trimmed lists.
# _pack and _unpack_mod convert between lists and slot-packed ints, for
# Kronecker products in _mul and for the prime-field remainders of
# _packed_euclid, whose slots are whole 8-byte words.

_KRONECKER_MIN = 32  # prime-field products of fewer coefficient pairs go by schoolbook
# quotient length * divisor length below this: long division, unless the
# caller holds the divisor's inverse series (Barrett, as in powmod)
_LONG_DIVISION_MAX = 384
# Table fields: a > 1 and at most _TABLE_MAX elements.  They do their scalar
# work on Zech logarithms (FieldCtx.logs).  A product goes by schoolbook on
# logarithms while its coefficient pairs number fewer than _LOG_SCHOOLBOOK
# times its slots, a * (len f + len g), which Kronecker's cost grows with.
# Their divisions take _TABLE_LONG_DIVISION_MAX for _LONG_DIVISION_MAX.
# Larger extension fields always divide by inverse series.
_TABLE_MAX = 1024
_LOG_SCHOOLBOOK = 3
_TABLE_LONG_DIVISION_MAX = 6000


def _trim(f: list) -> list:
    while f and not f[-1]:
        f.pop()
    return f


def _pack(vals: list, width: int, p: int) -> int:
    """One int holding vals (each below p) in slots of width bytes, first lowest."""
    if width == 8:
        return int.from_bytes(array("Q", vals), "little")
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
    if width == 8:
        return [x % p for x in array("Q", data)]
    if p * width >= 256:
        return [int.from_bytes(data[i:i + width], "little") % p
                for i in range(0, len(data), width)]
    # reduce each byte column by table, add the columns (sums stay < 256), reduce again
    tables = _byte_tables(p, width)
    acc = sum(int.from_bytes(data[i::width].translate(t), "little") for i, t in enumerate(tables))
    return list(acc.to_bytes(count, "little").translate(tables[0]))


def _zech(ctx: FieldCtx):
    """FieldCtx.logs() of an extension field of at most _TABLE_MAX elements, else None."""
    return ctx.logs() if ctx.a > 1 and ctx.q <= _TABLE_MAX else None


def _mul(ctx: FieldCtx, f, g) -> list:
    """f * g as len(f) + len(g) - 1 codes.  Short products go by schoolbook,
    on residues for a = 1 and on Zech logarithms for table fields, the rest
    by _kronecker."""
    if not f or not g:
        return []
    if ctx.a == 1 and len(f) * len(g) < _KRONECKER_MIN:
        prod = [0] * (len(f) + len(g) - 1)
        for i, x in enumerate(f):
            if x:
                for j, y in enumerate(g, i):
                    prod[j] += x * y
        return [v % ctx.p for v in prod]
    tables = _zech(ctx)
    if tables is not None and len(f) * len(g) < _LOG_SCHOOLBOOK * ctx.a * (len(f) + len(g)):
        return _log_mul(tables, f, g)
    return _kronecker(ctx, f, g)


def _kronecker(ctx: FieldCtx, f, g) -> list:
    """f * g, both nonempty, as one bigint product of slot lists, which for
    a > 1 are spread from z-digits and folded back by the modulus."""
    p, a = ctx.p, ctx.a
    n, count = min(len(f), len(g)), (len(f) + len(g) - 1) * (2 * a - 1)
    square = f is g  # a square packs once and squares faster
    if a > 1:
        f, g = _spread(ctx, f), _spread(ctx, g)
    width = -(-(a * (p - 1) ** 2 * n).bit_length() // 8)  # bytes for any product slot
    packed = _pack(f, width, p)
    prod = _unpack_mod(packed * (packed if square else _pack(g, width, p)), width, count, p)
    return prod if a == 1 else _fold(ctx, prod)


def _spread(ctx: FieldCtx, codes) -> list:
    """The slot list of codes, a > 1: each code's z-digits, then a - 1 zeros."""
    p, step = ctx.p, 2 * ctx.a - 1
    slots = [0] * (len(codes) * step)
    for i, w in enumerate(ctx._weights):
        slots[i::step] = [c // w % p for c in codes]
    return slots


def _fold(ctx: FieldCtx, slots) -> list:
    """The codes of a product's slot list, a > 1: each block of 2a - 1 slots
    is a z-polynomial, reduced by the monic modulus column by column."""
    p, a, mod = ctx.p, ctx.a, ctx.modulus
    cols = [slots[i::2 * a - 1] for i in range(2 * a - 1)]
    for k in range(2 * a - 2, a - 1, -1):  # z^k = -sum_j mod[j] z^(k - a + j)
        top = [x % p for x in cols[k]]
        for j, mj in enumerate(mod[:a], k - a):
            if mj:
                cols[j] = [x - mj * t for x, t in zip(cols[j], top)]
    codes = [x % p for x in cols[0]]
    for col in cols[1:a]:
        codes = [c * p + x % p for c, x in zip(codes, col)]
    return codes


def _log_mul(tables, f, g) -> list:
    """Schoolbook f * g with each product slot summed as a Zech logarithm
    (None while the slot is 0)."""
    log, exp, zech = tables
    m = len(exp)
    acc = [None] * (len(f) + len(g) - 1)
    lg = [(j, log[y]) for j, y in enumerate(g) if y]
    for i, x in enumerate(f):
        if x:
            lx = log[x]
            for j, ly in lg:
                k, t = i + j, lx + ly
                s = acc[k]
                if s is None:
                    acc[k] = t % m
                else:  # g^s + g^t = g^(s + Z(t - s))
                    z = zech[(t - s) % m]
                    acc[k] = None if z is None else (s + z) % m
    return [0 if s is None else exp[s] for s in acc]


def _addsub(ctx: FieldCtx, f, g, sign: int) -> list:
    """f + sign * g, trimmed."""
    p = ctx.p
    pairs = zip_longest(f, g, fillvalue=0)
    if ctx.a == 1:
        return _trim([(x + sign * y) % p for x, y in pairs])
    tables = _zech(ctx)
    if tables is None:
        vec, code = ctx._vec, ctx._code
        return _trim([code([(u + sign * v) % p for u, v in zip(vec(x), vec(y))])
                      for x, y in pairs])
    log, exp, zech = tables
    m = len(exp)
    neg = 0 if sign == 1 else m // 2  # -1 = g^(m/2)
    out = []
    for x, y in pairs:
        if not y:
            out.append(x)
        elif not x:
            out.append(exp[(log[y] + neg) % m])
        else:
            lx = log[x]
            z = zech[(log[y] + neg - lx) % m]
            out.append(0 if z is None else exp[(lx + z) % m])
    return _trim(out)


def _add(ctx: FieldCtx, x: int, y: int, sign: int) -> int:
    """x + sign * y for codes."""
    if ctx.a == 1:
        return (x + sign * y) % ctx.p
    return (_addsub(ctx, (x,), (y,), sign) or [0])[0]


def _times(ctx: FieldCtx, x: int, y: int) -> int:
    """x * y for codes."""
    if ctx.a == 1:
        return x * y % ctx.p
    if not x or not y:
        return 0
    tables = _zech(ctx)
    if tables is None:
        return _mul(ctx, (x,), (y,))[0]
    log, exp, _ = tables
    return exp[(log[x] + log[y]) % len(exp)]


def _inv(ctx: FieldCtx, c: int) -> int:
    """1 / c for a nonzero code c."""
    if ctx.a == 1:
        return pow(c, ctx.p - 2, ctx.p)
    tables = _zech(ctx)
    if tables is None:  # u * c = 1 modulo the irreducible modulus, over F_p
        u = _ext_gcd(ctx._prime, _trim(list(ctx._vec(c))), list(ctx.modulus))[1]
        return ctx._code(u + [0] * (ctx.a - len(u)))
    log, exp, _ = tables
    return exp[-log[c] % len(exp)]


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


def _sqrt_monic(ctx: FieldCtx, f) -> list | None:
    """The monic g with g * g = f, for f monic and trimmed, or None.  Reversed,
    f is r_0 + r_1 s + ... + r_d s^d with r_0 = 1 and g is h_0 + ... + h_(n-1)
    s^(n-1), n = d/2 + 1.  Where long division would run (n^2 below
    _long_division_max), the square root is read off like a long division:
    h_0 = 1, h_k = (r_k - sum_{0<i<k} h_i h_(k-i)) / 2 for k < n, then each
    r_k for k >= n is checked against sum h_i h_(k-i) and the first that
    differs returns None; on residues for a = 1 and on Zech logarithms for
    table fields.  Longer roots go by _newton_sqrt_monic."""
    if len(f) % 2 == 0:  # odd degree
        return None
    n, rev = (len(f) + 1) // 2, f[::-1]
    if n * n >= _long_division_max(ctx):
        return _newton_sqrt_monic(ctx, f)
    p, half = ctx.p, (ctx.p + 1) // 2  # the residue of 1/2
    if ctx.a == 1:
        h = [1]
        for k in range(1, len(rev)):
            lo, hi = max(1, k - n + 1), min(k, n)  # r_k - sum_{lo<=i<hi} h_i h_(k-i)
            r = (rev[k] - sum(map(operator.mul, h[lo:hi], h[k - lo:k - hi:-1]))) % p
            if k < n:
                h.append(r * half % p)
            elif r:
                return None
        return h[::-1]
    log, exp, zech = ctx.logs()
    m = len(exp)
    lhalf, neg = log[half * ctx.unit], m // 2  # -1 = g^(m/2)
    h = [0]  # logarithms, None for 0
    for k in range(1, len(rev)):
        r = log[rev[k]]
        for i in range(max(1, k - n + 1), min(k, n)):
            x, y = h[i], h[k - i]
            if x is not None and y is not None:  # r <- r + g^t, g^t = -h_i h_(k-i)
                t = x + y + neg
                if r is None:
                    r = t % m
                else:
                    z = zech[(t - r) % m]
                    r = None if z is None else (r + z) % m
        if k < n:
            h.append(None if r is None else (r + lhalf) % m)
        elif r is not None:
            return None
    return [0 if x is None else exp[x] for x in reversed(h)]


def _newton_sqrt_monic(ctx: FieldCtx, f) -> list | None:
    """_sqrt_monic for f of odd length by Newton iteration on _mul: with F the
    reversed f, h <- h - h * (F * h^2 - 1) / 2 doubles the precision of
    h = F^(-1/2), and F * h gives the reversed g, checked by squaring."""
    n, rev = (len(f) + 1) // 2, f[::-1]
    neg_half = (ctx.p - 1) // 2 * ctx.unit  # the code of -1/2
    h = [ctx.unit]
    while len(h) < n:
        m = len(h)
        k = min(2 * m, n)
        e = _mul(ctx, rev[:k], _mul(ctx, h, h))[m:k]  # F * h^2 = 1 + s^m * e mod s^k
        t = _mul(ctx, _mul(ctx, h, e)[:k - m], [neg_half])
        h += t + [0] * (k - m - len(t))
    g = _mul(ctx, rev[:n], h)[n - 1::-1]
    return g if _mul(ctx, g, g) == list(f) else None


def _barrett(ctx: FieldCtx, m) -> list:
    """The inverse series of reversed m for _divmod to reduce products of two
    residues by: their quotients are shorter than len(m) - 1."""
    return _inv_series(ctx, m[::-1], max(len(m) - 2, 1))


def _powmod(ctx: FieldCtx, f, n: int, m, minv) -> list:
    """f^n mod m by square-and-multiply, for f reduced mod m and
    minv = _barrett(ctx, m)."""
    result = _divmod(ctx, [ctx.unit], m)[1]
    while n:
        if n & 1:
            result = _divmod(ctx, _mul(ctx, result, f), m, minv)[1]
        n >>= 1
        if n:
            f = _divmod(ctx, _mul(ctx, f, f), m, minv)[1]
    return result


def _divmod(ctx: FieldCtx, f, g, ginv=None) -> tuple[list, list]:
    """(quotient, remainder) for g nonzero and trimmed.  ginv, when given, is
    the inverse series of reversed g to at least the quotient's length."""
    m = len(f) - len(g) + 1  # quotient length
    if m <= 0:
        return [], list(f)
    if len(g) == 1:  # a unit divides exactly
        return _mul(ctx, f, [_inv(ctx, g[0])]), []
    if ginv is None:
        if m * len(g) < _long_division_max(ctx):
            return _long_divmod(ctx, f, g)
        ginv = _inv_series(ctx, g[::-1], m)
    quo = _mul(ctx, f[:-m - 1:-1], ginv[:m])[m - 1::-1]
    dg = len(g) - 1
    return quo, _addsub(ctx, f[:dg], _mul(ctx, quo[:dg], g[:dg])[:dg], -1)


def _long_division_max(ctx: FieldCtx) -> int:
    """Quotient length * divisor length below which _divmod long-divides,
    unless the caller holds the divisor's inverse series."""
    if ctx.a == 1:
        return _LONG_DIVISION_MAX
    return _TABLE_LONG_DIVISION_MAX if ctx.q <= _TABLE_MAX else 0


def _long_divmod(ctx: FieldCtx, f, g) -> tuple[list, list]:
    """_divmod by schoolbook long division, for a = 1 and table fields.
    Remainder slots hold residues reduced only when read (a = 1), or Zech
    logarithms (None for 0)."""
    dg, m = len(g) - 1, len(f) - len(g) + 1
    quo = [0] * m
    if ctx.a == 1:
        p = ctx.p
        inv, rem = _inv(ctx, g[-1]), list(f)
        for k in range(m - 1, -1, -1):
            c = rem[k + dg] % p * inv % p
            if c:
                quo[k] = c
                rem[k:k + dg] = [x - c * y for x, y in zip(rem[k:k + dg], g)]
        return quo, _trim([x % p for x in rem[:dg]])
    log, exp, zech = ctx.logs()
    n = len(exp)
    lg = [(j, log[y]) for j, y in enumerate(g[:dg]) if y]
    lc = log[g[-1]]
    rem = [log[x] for x in f]
    for k in range(m - 1, -1, -1):
        top = rem[k + dg]
        if top is not None:  # quotient term c = g^(top - lc); -c*y = g^(c + n/2 + log y)
            quo[k] = exp[(top - lc) % n]
            c = top - lc + n // 2
            for j, ly in lg:
                j += k
                t, s = c + ly, rem[j]
                if s is None:
                    rem[j] = t % n
                else:
                    z = zech[(t - s) % n]
                    rem[j] = None if z is None else (s + z) % n
    return quo, _trim([0 if s is None else exp[s] for s in rem[:dg]])


def _gcd(ctx: FieldCtx, f, g) -> list:
    """Monic gcd of two lists, not both zero."""
    r = _euclid(ctx, f, g, [], [])[0]
    return _mul(ctx, r, [_inv(ctx, r[-1])])


def _ext_gcd(ctx: FieldCtx, f, g) -> tuple[list, list, list]:
    """(d, u, v) with d = gcd(f, g) monic and u*f + v*g = d, for f, g not
    both zero, from one Euclid that carries both cofactors as u + s^K v,
    K = len g + 1: u stays below slot K, as deg u <= deg g (u = 1 for g = 0)."""
    k = len(g) + 1
    r, w = _euclid(ctx, f, g, [ctx.unit], [0] * k + [ctx.unit])
    scale = [_inv(ctx, r[-1])]
    return _mul(ctx, r, scale), _mul(ctx, _trim(w[:k]), scale), _mul(ctx, w[k:], scale)


def _euclid(ctx: FieldCtx, f, g, uf, ug) -> tuple[list, list]:
    """(r, x*uf + y*ug) for lists f, g, not both zero, where r = x*f + y*g is
    the last nonzero remainder of Euclid's sequence, not made monic: the
    cofactors Euclid tracks start from uf for f and ug for g ([] for none).
    Extension fields divide with _divmod at every step.  Prime fields do so
    only while the quotient is at least as long as the divisor's degree,
    since each of its terms would cost _packed_euclid a shift-and-add over
    all of the dividend, and run the rest packed."""
    (a, ua), (b, ub) = (f, uf), (g, ug)
    if len(a) < len(b):  # Euclid's first step only swaps
        (a, ua), (b, ub) = (b, ub), (a, ua)
    while len(b) > 1 and (ctx.a > 1 or len(a) + 2 >= 2 * len(b)):
        quo, rem = _divmod(ctx, a, b)
        u = _addsub(ctx, ua, _mul(ctx, quo, ub), -1) if ua or ub else []
        (a, ua), (b, ub) = (b, ub), (rem, u)
    if not b:
        return a, ua
    if len(b) == 1:  # b is a unit: the next remainder is 0
        return b, ub
    return _packed_euclid(ctx.p, a, ua, b, ub)


def _packed_euclid(p: int, a, ua, b, ub) -> tuple[list, list]:
    """_euclid's result over F_p, from the remainders a, b with
    2 <= len(b) <= len(a) and their cofactors ua, ub.

    Each remainder is one int of slots of whole 8-byte words with room for
    (p - 1)^2 * 2^16.  A quotient term adds c * s^k * b to a, with
    c = -lead(a)/lead(b) mod p, as one nonnegative shift-and-add, so slots
    only grow.  Each operand's bound tracks its largest slot, and an operand
    is reduced mod p (unpacked and repacked) only when the next addend could
    overflow a slot.  When a division ends, the slots it cleared are masked
    off, and so is each top slot divisible by p, which leaves the
    remainder's true degree.  The cofactors ride along with their own
    bounds."""
    width = -(-((p - 1) ** 2 << 16).bit_length() // 64) * 8  # bytes per slot
    w = 8 * width
    top = (1 << w) - 1  # one slot's mask, and the bound no slot may pass

    def slots(n: int) -> int:
        return -(-n.bit_length() // w)

    def reduce(n: int) -> int:
        return _pack(_unpack_mod(n, width, slots(n), p), width, p)

    da, db = len(a) - 1, len(b) - 1
    a, ba, ua, bua = _pack(a, width, p), p - 1, _pack(ua, width, p), p - 1
    b, bb, ub, bub = _pack(b, width, p), p - 1, _pack(ub, width, p), p - 1
    while db > 0:
        inv = pow((b >> db * w) % p, p - 2, p)
        for k in range(da - db, -1, -1):
            lead = (a >> (k + db) * w & top) % p
            if not lead:
                continue
            c = (p - lead) * inv % p
            if ba + c * bb > top:
                a, ba = reduce(a), p - 1
                if ba + c * bb > top:  # a divisor swapped in with a large bound
                    b, bb = reduce(b), p - 1
            a += c * b << k * w
            ba += c * bb
            if ub:
                if bua + c * bub > top:
                    ua, bua = reduce(ua), p - 1
                    if bua + c * bub > top:
                        ub, bub = reduce(ub), p - 1
                ua += c * ub << k * w
                bua += c * bub
        a &= (1 << db * w) - 1
        da = slots(a) - 1
        while da >= 0 and not (a >> da * w) % p:
            a &= (1 << da * w) - 1
            da = slots(a) - 1
        if da < 0:  # b divides a
            break
        a, da, ba, ua, bua, b, db, bb, ub, bub = b, db, bb, ub, bub, a, da, ba, ua, bua
    return _unpack_mod(b, width, db + 1, p), _trim(_unpack_mod(ub, width, slots(ub), p))


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
    if pi.is_constant():
        raise ValueError("valuation needs a nonconstant pi")
    return _split_off(f, pi)[0]


def _split_off(f: Poly, pi: Poly) -> tuple[int, Poly]:
    """(v, g mod pi) for f = pi^v * g with pi not dividing g; f nonzero."""
    v, (f, r) = 0, divmod(f, pi)
    while not r:
        v, (f, r) = v + 1, divmod(f, pi)
    return v, r


def poly_ext_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with d = gcd(f, g) monic and u*f + v*g = d exactly."""
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    ctx = f.ctx
    d, u, v = _ext_gcd(ctx, f.coeffs, g.coeffs)
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
        d, u = _euclid(ctx, _divmod(ctx, mod, m)[1], m, [ctx.unit], [])  # u short, v not carried
        scale = [_inv(ctx, d[-1])]
        if len(d) > 1:
            raise NotCoprime(f"moduli {Poly(ctx, mod)!r} and {Poly(ctx, m)!r} "
                             f"share factor {Poly(ctx, _mul(ctx, d, scale))!r}")
        # x = res + mod * t with t = u*(r - res)/d mod m, since u*mod = d mod m;
        # deg x < deg mod + deg m, so x needs no further reduction
        t = _divmod(ctx, _mul(ctx, _mul(ctx, u, scale), _addsub(ctx, r.coeffs, res, -1)), m)[1]
        res = _addsub(ctx, res, _mul(ctx, mod, t), 1)
        mod = _mul(ctx, mod, m)
    return Poly(ctx, res)


# -- enumeration ----------------------------------------------------------------------


def polys_of_degree(ctx: FieldCtx, deg: int, monic: bool = False):
    """All polynomials of exactly this degree (monic ones only if asked), in
    lexicographic coefficient order: constant coefficient slowest, leading
    coefficient fastest."""
    elems = range(ctx.q)  # codes, in element order
    for coeffs in itertools.product(*[elems] * deg, [ctx.unit] if monic else elems[1:]):
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
    root_exp = ctx.p ** (ctx.a - 1)  # c -> c^(p^(a-1)) inverts c -> c^p in F_{p^a}
    return Poly(ctx, [(FF(ctx, c) ** root_exp).code for c in f.coeffs[::ctx.p]])


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """[(g_i, e_i)] with f = lc * prod g_i^e_i, g_i monic squarefree coprime.

    Yun's loop; what it leaves in c is a p-th power (c' = 0), decomposed by
    coefficient-wise inverse Frobenius with p times the multiplicity.  g' = 0
    needs no case (gcd(g, 0) = g, so w = 1, c = g), nor a constant c (gcd(w, 1) = 1).
    """
    if f.is_zero():
        raise ValueError("cannot decompose the zero polynomial")
    out: dict[Poly, int] = {}

    def accumulate(g: Poly, mult: int):
        if g.is_constant():
            return
        c = poly_gcd(g, g.derivative())
        w = g // c
        i = 1
        while not w.is_one():
            y = poly_gcd(w, c)
            z = w // y
            if not z.is_constant():
                out[z.monic()] = out.get(z.monic(), 0) + i * mult
            w = y
            c = c // y
            i += 1
        accumulate(_pth_root(c), mult * g.ctx.p)

    accumulate(f.monic(), 1)
    return sorted(out.items(), key=lambda kv: kv[0].sort_key())


def _ddf(f: Poly):
    """Distinct-degree split of a monic polynomial, lazily: yields (part, d)
    by increasing d, part the product of the degree-d irreducible factors
    when f is squarefree.  For any monic f the first part is (f, deg f)
    exactly when f is irreducible (see is_irreducible).  Once 2d exceeds
    the rest's degree the rest is irreducible, as its factors have degree d
    or more, and it is yielded whole."""
    ctx = f.ctx
    s = Poly.gen(ctx)
    h = s % f
    d = 0
    rest = f
    rinv = _barrett(ctx, rest.coeffs)  # kept while rest is unchanged
    while rest.degree() > 0:
        d += 1
        if 2 * d > rest.degree():
            yield rest, rest.degree()
            return
        h = Poly(ctx, _powmod(ctx, h.coeffs, ctx.q, rest.coeffs, rinv))
        g = poly_gcd(h - s, rest)  # gcd(0, rest) = rest
        if not g.is_one():
            yield g, d
            rest = rest // g
            h = h % rest
            rinv = _barrett(ctx, rest.coeffs)


def _edf(f: Poly, d: int, rng: random.Random) -> list[Poly]:
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d irreducibles
    (von zur Gathen and Gerhard, ch. 14): random h, deg h < deg f, until g = gcd(e - 1, f),
    e = h^((q^d-1)/2), is not 1 or f.  A constant h, or e = 1, gives g in {1, f} and is
    retried; the factors are sorted, so the try that splits does not change them."""
    n = f.degree()
    if n == d:
        return [f]
    ctx = f.ctx
    exponent = (ctx.q ** d - 1) // 2
    finv = _barrett(ctx, f.coeffs)  # one inverse for every retry
    one = Poly.one(ctx)
    g = f
    while g.is_one() or g == f:
        h = Poly(ctx, [_rand_elem(ctx, rng) for _ in range(n)])  # reduced mod f already
        g = poly_gcd(Poly(ctx, _powmod(ctx, h.coeffs, exponent, f.coeffs, finv)) - one, f)
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
