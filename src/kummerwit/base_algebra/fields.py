"""Exact arithmetic in finite fields F_{p^a}, p an odd prime.

An element of F_{p^a} is its code: the int whose base-p digits are the
element's coefficient vector in the power basis of z modulo the field
modulus, first coordinate (the coefficient of z^0) most significant.  Code
order is the canonical element order (first coordinate compared first) used
everywhere determinism matters; FF.coeffs reads the vector back.

The field context owns p, a and the modulus.  When no modulus is supplied,
it is the first monic irreducible of degree a over F_p in the canonical
order of poly.irreducibles (constant coefficient slowest), so test vectors
are stable; a supplied modulus is checked with poly.is_irreducible.  For
a = 1 the modulus is the identity convention z and is unused.

One kernel serves FF and Poly: an FF operation is poly's int-list kernel on
one code.  That is a residue for a = 1, Zech logarithms for the table fields
(a > 1, at most poly._TABLE_MAX elements), where a power is one lookup, and
a z-polynomial over F_p above that, inverted by extended Euclid against the
modulus.

FieldCtx.logs gives discrete logarithms over codes to the base g, the first
element of order q - 1 in canonical order, with Zech logarithms
Z(k) = log(1 + g^k), so that g^i + g^j = g^(i + Z(j - i)) (Lidl and
Niederreiter, Finite Fields, ch. 2 and 9).  The tables hold O(q) ints; they
are built on first use, without FF (whose table-field powers read them),
and kept on the context, which field_ctx builds once per field and process.
poly's kernel reads them for the table fields, and curve_ff's point search
in every field it searches (FieldCtx.logs says why those are small).
FF.sqrt keeps the power of a non-square that Tonelli-Shanks needs on the
context (Cohen, A Course in Computational Algebraic Number Theory, 1.5.1).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from ..errors import CompositeP, ReducibleModulus
from .intarith import factorint, is_prime


class FieldCtx:
    """The field F_q, q = p^a, with an explicit monic irreducible modulus."""

    __slots__ = ("p", "a", "q", "modulus", "unit", "_weights", "_one", "_zero", "_logs",
                 "_prime", "_shanks")

    def __init__(self, p: int, a: int, modulus: tuple[int, ...] | None = None):
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise CompositeP(f"p = {p} is not an odd prime")
        if a < 1:
            raise ValueError(f"extension degree a = {a} must be >= 1")
        self.p = p
        self.a = a
        self.q = p ** a
        self._weights = [p ** (a - 1 - i) for i in range(a)]  # of a code's digits
        self.unit = self._weights[0]  # the code of 1
        if a == 1:
            # identity convention: modulus "z", never used in arithmetic
            self.modulus = (0, 1)
            self._prime = self
        else:
            self._prime = prime_field = field_ctx(p, 1)  # z-polynomials are over it
            if modulus is None:
                modulus = next(irreducibles(prime_field, a)).coeffs
            else:
                modulus = tuple(c % p for c in modulus)
                if len(modulus) != a + 1 or modulus[-1] != 1:
                    raise ReducibleModulus(f"modulus must be monic of degree {a}")
                if not is_irreducible(Poly.from_ints(prime_field, modulus)):
                    raise ReducibleModulus(f"modulus {modulus} is reducible over F_{p}")
            self.modulus = modulus
        self._zero = FF(self, 0)
        self._one = FF(self, self.unit)
        self._logs = self._shanks = None

    def __eq__(self, other):
        return (isinstance(other, FieldCtx) and self.p == other.p
                and self.a == other.a and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.a, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, a={self.a})"

    # -- constructors ---------------------------------------------------------

    def zero(self) -> "FF":
        return self._zero

    def one(self) -> "FF":
        return self._one

    def elem(self, coeffs) -> "FF":
        """Element from an int (prime subfield) or a coefficient sequence."""
        if isinstance(coeffs, FF):
            if coeffs.ctx is not self and coeffs.ctx != self:
                raise ValueError("element belongs to a different field")
            return coeffs
        if isinstance(coeffs, int):
            return FF(self, coeffs % self.p * self.unit)
        vec = [int(c) % self.p for c in coeffs]
        if len(vec) > self.a:
            raise ValueError(f"coefficient vector longer than a = {self.a}")
        return FF(self, self._code(vec + [0] * (self.a - len(vec))))

    def _code(self, vec) -> int:
        n = 0
        for c in vec:
            n = n * self.p + c
        return n

    def _vec(self, n: int) -> tuple[int, ...]:
        return tuple([n // w % self.p for w in self._weights])

    def logs(self) -> tuple[list, list, list]:
        """(log, exp, zech) over codes, built on the first call.  With m = q - 1
        and g the first element of order m: exp[k] is the code of g^k for
        0 <= k < m, log[code] its k (None for 0), and zech[k] = log(1 + g^k)
        (None for k = m/2, where 1 + g^k = 0).  poly's kernel and FF read them
        for table fields (a > 1, q <= poly._TABLE_MAX) only.  curve_ff's point
        search reads them in every field it searches, prime fields included:
        a nonzero value is a square exactly when its logarithm is even.  A
        search has at least q candidates, so its cap SEARCH_CANDIDATES_MAX
        refuses every field with q > 40,000 before the tables are built."""
        if self._logs is None:
            self._logs = _log_tables(self)
        return self._logs

    def elements(self):
        """All field elements in canonical order (first coordinate slowest)."""
        for code in range(self.q):
            yield FF(self, code)


class FF:
    """An element of F_{p^a}: its code plus its context."""

    __slots__ = ("ctx", "code")

    def __init__(self, ctx: FieldCtx, code: int):
        self.ctx = ctx
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        """The coefficient vector, first coordinate first."""
        return self.ctx._vec(self.code)

    def __add__(self, other: "FF") -> "FF":
        return FF(self.ctx, _add(self.ctx, self.code, other.code, 1))

    def __sub__(self, other: "FF") -> "FF":
        return FF(self.ctx, _add(self.ctx, self.code, other.code, -1))

    def __neg__(self) -> "FF":
        return FF(self.ctx, _add(self.ctx, 0, self.code, -1))

    def __mul__(self, other: "FF") -> "FF":
        return FF(self.ctx, _times(self.ctx, self.code, other.code))

    def inv(self) -> "FF":
        if not self.code:
            raise ZeroDivisionError("inverse of zero field element")
        return FF(self.ctx, _inv(self.ctx, self.code))

    def __truediv__(self, other: "FF") -> "FF":
        return self * other.inv()

    def __pow__(self, n: int) -> "FF":
        ctx = self.ctx
        if n < 0:
            return self.inv() ** (-n)
        if ctx.a == 1:
            return FF(ctx, pow(self.code, n, ctx.p))
        tables = _zech(ctx)
        if tables is None or not self.code:
            return power(self, n, ctx.one())
        log, exp, _ = tables
        return FF(ctx, exp[log[self.code] * n % len(exp)])

    def __bool__(self) -> bool:
        return bool(self.code)

    def __eq__(self, other) -> bool:
        return isinstance(other, FF) and self.code == other.code \
            and self.ctx.p == other.ctx.p and self.ctx.modulus == other.ctx.modulus

    def __hash__(self):
        return hash(self.code)

    def __lt__(self, other: "FF") -> bool:
        return self.code < other.code

    def __repr__(self):
        if self.ctx.a == 1:
            return str(self.code)
        return "[" + ",".join(str(c) for c in self.coeffs) + "]"

    # -- multiplicative structure ------------------------------------------------

    def is_square(self) -> bool:
        return self.is_nth_power(2)

    def is_nth_power(self, n: int) -> bool:
        """Whether the element lies in (F_q^x)^n (zero counts as a power)."""
        if not self:
            return True
        q = self.ctx.q
        g = gcd(n, q - 1)
        return self ** ((q - 1) // g) == self.ctx.one()

    def sqrt(self):
        """A square root, or None.  Tonelli-Shanks in the cyclic group F_q^x,
        which meets a non-square as an element of order 2^e at its first
        step, so no separate Euler test runs.  q = 3 mod 4 needs no case: e = 1,
        r = x^((q+1)/4) is returned when t = x^((q-1)/2) = 1, and t = -1 gives None."""
        ctx = self.ctx
        if not self:
            return ctx.zero()
        q, one = ctx.q, ctx.one()
        if ctx._shanks is None:  # q - 1 = 2^e * m with m odd, and c = z^m for a non-square z
            e = ((q - 1) & (1 - q)).bit_length() - 1
            z = next(x for x in ctx.elements() if x and not x.is_square())
            ctx._shanks = (e, (q - 1) >> e, z ** ((q - 1) >> e))
        e, m, c = ctx._shanks
        t = self ** m
        r = self ** ((m + 1) // 2)
        while t != one:
            # find least i with t^(2^i) = 1; i = e only for a non-square, at the first pass
            i, t2 = 0, t
            while t2 != one:
                t2 = t2 * t2
                i += 1
            if i == e:
                return None
            b = c ** (1 << (e - i - 1))
            r = r * b
            c = b * b
            t = t * c
            e = i
        return r


def _log_tables(ctx: FieldCtx) -> tuple[list, list, list]:
    """The tables of FieldCtx.logs.  g is found by powering z-polynomials
    modulo the modulus over F_p, and exp by doubling: with n codes so far,
    exp[k] * g^(n-1) = exp[k + n - 1], all n products in one Kronecker product."""
    q, m, unit, prime, mod = ctx.q, ctx.q - 1, ctx.unit, ctx._prime, list(ctx.modulus)
    cofactors = [m // ell for ell in factorint(m)]
    g = next(c for c in range(1, q) if all(
        _powmod(prime, _trim(list(ctx._vec(c))), e, mod, None) != [1] for e in cofactors))
    exp = [unit, g]
    while len(exp) < m:
        exp += _kronecker(ctx, exp, exp[-1:])[1:m - len(exp) + 1]
    log = [None] * q
    for k, c in enumerate(exp):
        log[c] = k
    # adding 1 adds 1 mod p to a code's first digit, whose weight is unit
    return log, exp, [log[(c + unit) % q] for c in exp]


def power(x, n: int, one):
    """x^n for n >= 0 by square-and-multiply (shared by FF and Poly): one
    squaring per bit below the top and one product per further set bit."""
    result = None
    while True:
        if n & 1:
            result = x if result is None else result * x
        n >>= 1
        if not n:
            return one if result is None else result
        x = x * x


@lru_cache(maxsize=32)
def field_ctx(p: int, a: int, modulus: tuple[int, ...] | None = None) -> FieldCtx:
    """The validated field context, built once per field and process (modulus a tuple)."""
    return FieldCtx(p, a, modulus)


# poly imports FF and FieldCtx from this module, so its kernel is bound last
from .poly import (Poly, _add, _inv, _kronecker, _powmod, _times,  # noqa: E402
                   _trim, _zech, irreducibles, is_irreducible)
